#include "src/core/report.h"

#include <gtest/gtest.h>

namespace fsbench {
namespace {

SweepRow MakeRow(Bytes size, double mean, double stddev) {
  SweepRow row;
  row.file_size = size;
  row.throughput = Summarize({mean - stddev, mean, mean + stddev});
  row.cache_hit_ratio = 0.5;
  return row;
}

TEST(ReportTest, SweepTableContainsSizesAndNumbers) {
  const std::string out =
      RenderSweepTable({MakeRow(64 * kMiB, 9700.0, 100.0), MakeRow(1 * kGiB, 162.0, 8.0)});
  EXPECT_NE(out.find("64MiB"), std::string::npos);
  EXPECT_NE(out.find("1GiB"), std::string::npos);
  EXPECT_NE(out.find("9700"), std::string::npos);
  EXPECT_NE(out.find("rel stddev %"), std::string::npos);
}

TEST(ReportTest, SweepCsvIsParsableShape) {
  const std::string csv = CsvSweep({MakeRow(64 * kMiB, 100.0, 1.0)});
  // Header + one data line.
  EXPECT_NE(csv.find("file_size_mib,ops_per_sec"), std::string::npos);
  EXPECT_NE(csv.find("\n64,"), std::string::npos);
}

TEST(ReportTest, HistogramShowsBucketsAndModes) {
  LatencyHistogram histogram;
  for (int i = 0; i < 60; ++i) {
    histogram.Add(4100);
  }
  for (int i = 0; i < 40; ++i) {
    histogram.Add(9'000'000);
  }
  const std::string out = RenderHistogram(histogram);
  EXPECT_NE(out.find("4.10us"), std::string::npos);
  EXPECT_NE(out.find("8.39ms"), std::string::npos);
  EXPECT_NE(out.find("modes: 2"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(ReportTest, HistogramCsvHasEveryBucket) {
  LatencyHistogram histogram;
  histogram.Add(100);
  const std::string csv = CsvHistogram(histogram);
  int lines = 0;
  for (char c : csv) {
    if (c == '\n') {
      ++lines;
    }
  }
  EXPECT_EQ(lines, 1 + LatencyHistogram::kBuckets);
}

TEST(ReportTest, TimelinesAlignMultipleSeries) {
  const std::string out =
      RenderTimelines({"ext2", "xfs"}, {{100.0, 200.0, 300.0}, {150.0, 250.0}}, 10 * kSecond);
  EXPECT_NE(out.find("ext2"), std::string::npos);
  EXPECT_NE(out.find("xfs"), std::string::npos);
  EXPECT_NE(out.find("30"), std::string::npos);  // third interval at t=30s
  const std::string csv = CsvTimelines({"a"}, {{1.0, 2.0}}, kSecond);
  EXPECT_NE(csv.find("t_seconds,a"), std::string::npos);
}

TEST(ReportTest, HistogramTimelineRendersOneRowPerSlice) {
  std::vector<LatencyHistogram> slices(3);
  slices[0].Add(9'000'000);
  slices[1].Add(9'000'000);
  slices[1].Add(4100);
  slices[2].Add(4100);
  const std::string out = RenderHistogramTimeline(slices, 20 * kSecond);
  int rows = 0;
  size_t pos = 0;
  while ((pos = out.find('|', pos)) != std::string::npos) {
    ++rows;
    ++pos;
  }
  EXPECT_EQ(rows, 1 + 3);  // header + one per slice
}

TEST(ReportTest, TransitionRendering) {
  TransitionResult transition;
  transition.found = true;
  transition.param_lo = 410.0 * 1024 * 1024;
  transition.param_hi = 416.0 * 1024 * 1024;
  transition.metric_lo = 9700.0;
  transition.metric_hi = 1000.0;
  transition.drop_factor = 9.7;
  transition.samples = {{384.0, 9700.0}, {448.0, 1000.0}};
  const std::string out = RenderTransition(transition, "MiB", 1024.0 * 1024.0);
  EXPECT_NE(out.find("410.00"), std::string::npos);
  EXPECT_NE(out.find("9.7x"), std::string::npos);
  TransitionResult none;
  EXPECT_NE(RenderTransition(none, "MiB", 1.0).find("no transition"), std::string::npos);
}

TEST(ReportTest, NanoSuiteGroupsByDimension) {
  NanoResult io;
  io.name = "io.test";
  io.dimension = Dimension::kIo;
  io.value = 1.0;
  io.unit = 'x';
  NanoResult cache = io;
  cache.name = "cache.test";
  cache.dimension = Dimension::kCaching;
  const std::string out = RenderNanoSuite({io, cache});
  EXPECT_NE(out.find("I/O"), std::string::npos);
  EXPECT_NE(out.find("Caching"), std::string::npos);
  EXPECT_LT(out.find("io.test"), out.find("cache.test"));
}

TEST(ReportTest, ComparisonShowsVerdictAndCaveats) {
  ComparisonReport report;
  report.name_a = "ext2";
  report.name_b = "xfs";
  report.a = Summarize({100.0, 101.0, 99.0});
  report.b = Summarize({200.0, 202.0, 198.0});
  report.welch = WelchTTest({100.0, 101.0, 99.0}, {200.0, 202.0, 198.0});
  report.verdict = "xfs";
  report.caveats.push_back("something to worry about");
  const std::string out = RenderComparison(report);
  EXPECT_NE(out.find("verdict: xfs"), std::string::npos);
  EXPECT_NE(out.find("caveat: something to worry about"), std::string::npos);
  EXPECT_NE(out.find("Welch t"), std::string::npos);
}

}  // namespace
}  // namespace fsbench
