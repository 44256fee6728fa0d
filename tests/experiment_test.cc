#include "src/core/experiment.h"

#include <gtest/gtest.h>

#include "src/core/workloads/random_read.h"

namespace fsbench {
namespace {

MachineFactory PaperMachine(FsKind kind = FsKind::kExt2) {
  return [kind](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.seed = seed;
    return std::make_unique<Machine>(kind, config);
  };
}

WorkloadFactory SmallRandomRead(Bytes file_size = 32 * kMiB) {
  return [file_size] {
    RandomReadConfig config;
    config.file_size = file_size;
    return std::make_unique<RandomReadWorkload>(config);
  };
}

TEST(ExperimentTest, RunsRequestedNumberOfRuns) {
  ExperimentConfig config;
  config.runs = 4;
  config.duration = 2 * kSecond;
  config.prewarm = true;
  const ExperimentResult result =
      Experiment(config).Run(PaperMachine(), SmallRandomRead());
  EXPECT_EQ(result.runs.size(), 4u);
  EXPECT_TRUE(result.AllOk());
  EXPECT_EQ(result.throughput.count, 4u);
}

TEST(ExperimentTest, DeterministicForSameConfig) {
  ExperimentConfig config;
  config.runs = 2;
  config.duration = 2 * kSecond;
  config.prewarm = true;
  const ExperimentResult a = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  const ExperimentResult b = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  EXPECT_TRUE(a == b);
}

TEST(ExperimentTest, DifferentBaseSeedChangesResults) {
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 2 * kSecond;
  config.prewarm = true;
  const ExperimentResult a = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  config.base_seed = 999;
  const ExperimentResult b = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  EXPECT_NE(a.runs[0].ops, b.runs[0].ops);
}

TEST(ExperimentTest, PrewarmedSmallFileRunsAtMemorySpeed) {
  ExperimentConfig config;
  config.runs = 3;
  config.duration = 5 * kSecond;
  config.prewarm = true;
  const ExperimentResult result = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  // ~103 us per op -> ~9.7 kops/s; allow slack for jitter.
  EXPECT_GT(result.throughput.mean, 9000.0);
  EXPECT_LT(result.throughput.mean, 10500.0);
  EXPECT_DOUBLE_EQ(result.runs[0].cache_hit_ratio, 1.0);
}

TEST(ExperimentTest, ColdLargeFileIsDiskBound) {
  ExperimentConfig config;
  config.runs = 2;
  config.duration = 5 * kSecond;
  config.prewarm = false;
  const ExperimentResult result =
      Experiment(config).Run(PaperMachine(), SmallRandomRead(1 * kGiB));
  EXPECT_LT(result.throughput.mean, 500.0);
}

TEST(ExperimentTest, FrameworkOverheadBoundsThroughput) {
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 2 * kSecond;
  config.prewarm = true;
  config.framework_overhead = 1 * kMillisecond;
  const ExperimentResult result = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  EXPECT_LT(result.throughput.mean, 1100.0);
  EXPECT_GT(result.throughput.mean, 900.0);
}

TEST(ExperimentTest, LatencyHistogramExcludesFrameworkOverhead) {
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 2 * kSecond;
  config.prewarm = true;
  config.framework_overhead = 10 * kMillisecond;
  const ExperimentResult result = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  // All ops are cache hits (~4 us): the histogram must show them there, not
  // at the 10 ms framework period.
  EXPECT_LE(result.merged_histogram.LastBucket(), 14);
}

TEST(ExperimentTest, MaxOpsCapStopsEarly) {
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 1000 * kSecond;
  config.prewarm = true;
  config.max_ops = 100;
  const ExperimentResult result = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  EXPECT_EQ(result.runs[0].ops, 100u);
}

TEST(ExperimentTest, WarmupWindowExcludedFromMetrics) {
  ExperimentConfig cold;
  cold.runs = 1;
  cold.duration = 5 * kSecond;
  ExperimentConfig warmed = cold;
  warmed.warmup = 200 * kSecond;  // enough to warm a 32 MiB file
  const ExperimentResult cold_result =
      Experiment(cold).Run(PaperMachine(), SmallRandomRead());
  const ExperimentResult warm_result =
      Experiment(warmed).Run(PaperMachine(), SmallRandomRead());
  // With the warm-up excluded, measured throughput is memory-bound even
  // though the run started cold.
  EXPECT_GT(warm_result.throughput.mean, 5.0 * cold_result.throughput.mean);
}

TEST(ExperimentTest, TimelineSeriesCoversDuration) {
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 10 * kSecond;
  config.timeline_interval = 1 * kSecond;
  config.prewarm = true;
  const ExperimentResult result = Experiment(config).Run(PaperMachine(), SmallRandomRead());
  EXPECT_GE(result.runs[0].throughput_series.size(), 10u);
  EXPECT_LE(result.runs[0].throughput_series.size(), 11u);
}

TEST(ExperimentTest, FailedSetupIsReportedNotCrashed) {
  ExperimentConfig config;
  config.runs = 2;
  config.duration = 1 * kSecond;
  // File far larger than the device: MakeFile must fail with ENOSPC.
  const ExperimentResult result =
      Experiment(config).Run(PaperMachine(), SmallRandomRead(300 * kGiB));
  EXPECT_FALSE(result.AllOk());
  EXPECT_EQ(result.runs[0].error, FsStatus::kNoSpace);
  EXPECT_EQ(result.throughput.count, 0u);
}

TEST(ExperimentTest, ThroughputSamplesSkipFailedRuns) {
  ExperimentConfig config;
  config.runs = 2;
  config.duration = 1 * kSecond;
  const ExperimentResult result =
      Experiment(config).Run(PaperMachine(), SmallRandomRead(300 * kGiB));
  EXPECT_TRUE(result.ThroughputSamples().empty());
}

}  // namespace
}  // namespace fsbench
