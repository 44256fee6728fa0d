// Log2-bucketed latency histogram, following the OSDI'06 latency-profiling
// technique the paper cites ([6] Joukov et al.) and uses for Figure 3/4:
// bucket k holds operations whose latency is in [2^k, 2^(k+1)) ns.
#ifndef SRC_CORE_HISTOGRAM_H_
#define SRC_CORE_HISTOGRAM_H_

#include <array>
#include <cstdint>

#include "src/util/units.h"

namespace fsbench {

class LatencyHistogram {
 public:
  // Buckets 0..32 cover 1 ns .. ~8.6 s; the paper's figures use the same
  // x-axis.
  static constexpr int kBuckets = 33;

  static int BucketFor(Nanos latency_ns);
  // Inclusive lower bound of a bucket in nanoseconds (2^bucket).
  static Nanos BucketLowerBound(int bucket);

  void Add(Nanos latency_ns);
  void Merge(const LatencyHistogram& other);
  void Clear();

  uint64_t total() const { return total_; }
  uint64_t count(int bucket) const { return counts_[bucket]; }
  // Percentage of all operations in `bucket` (0 when empty).
  double SharePct(int bucket) const;

  // Approximate quantile: latency (bucket geometric midpoint) below which a
  // fraction q of operations fall.
  Nanos ApproxPercentile(double q) const;

  // Geometric-midpoint weighted mean latency.
  double ApproxMean() const;

  // First/last non-empty bucket; -1 when empty.
  int FirstBucket() const;
  int LastBucket() const;

  bool operator==(const LatencyHistogram& other) const = default;

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

}  // namespace fsbench

#endif  // SRC_CORE_HISTOGRAM_H_
