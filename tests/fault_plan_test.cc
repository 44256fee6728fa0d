// The seeded fault engine's contracts, from the plan's pure-function verdicts
// up through the disk model's charging and the block layer's retry/remap
// policy: persistent damage is a stateless function of (seed, region),
// transient draws are seed-deterministic, failed attempts cost real device
// time (plus the drive's error-recovery grind), and only a request that
// exhausts the policy surfaces as an error.
#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/core/workloads/random_read.h"
#include "src/sim/disk_model.h"
#include "src/sim/fault_plan.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/machine.h"

namespace fsbench {
namespace {

// --- FaultPlan: pure (config, seed) verdicts ---

TEST(FaultPlanTest, PersistentVerdictIsStatelessAndOrderIndependent) {
  FaultPlanConfig config;
  config.persistent_rate = 0.2;
  const FaultPlan forward(config, /*seed=*/7);
  const FaultPlan backward(config, /*seed=*/7);

  constexpr uint64_t kRegions = 300;
  uint64_t bad = 0;
  for (uint64_t r = 0; r < kRegions; ++r) {
    const uint64_t lba_fwd = r * config.region_sectors;
    const uint64_t lba_bwd = (kRegions - 1 - r) * config.region_sectors;
    // Same region queried on different plans, in opposite orders, at
    // different offsets inside the region: one verdict.
    EXPECT_EQ(forward.RegionIsBad(lba_fwd, 0), backward.RegionIsBad(lba_fwd, 0)) << "region " << r;
    EXPECT_EQ(forward.RegionIsBad(lba_fwd, 0), forward.RegionIsBad(lba_fwd + 17, 0)) << "region " << r;
    EXPECT_EQ(backward.RegionIsBad(lba_bwd, 0), forward.RegionIsBad(lba_bwd, 0));
    bad += forward.RegionIsBad(lba_fwd, 0) ? 1 : 0;
  }
  // The bad set at rate 0.2 is some but not all of the media.
  EXPECT_GT(bad, 0u);
  EXPECT_LT(bad, kRegions);
}

TEST(FaultPlanTest, TransientDrawsAreSeedDeterministic) {
  FaultPlanConfig config;
  config.transient_rate = 0.3;
  FaultPlan a(config, 21);
  FaultPlan b(config, 21);
  FaultPlan other(config, 22);

  uint64_t divergences = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const FaultDecision da = a.Evaluate(i * 8, 0, false);
    const FaultDecision db = b.Evaluate(i * 8, 0, false);
    const FaultDecision dc = other.Evaluate(i * 8, 0, false);
    EXPECT_EQ(da.kind, db.kind) << "draw " << i;
    divergences += da.kind != dc.kind ? 1 : 0;
  }
  EXPECT_EQ(a.stats(), b.stats());
  EXPECT_GT(a.stats().transient_faults, 0u);
  // A different seed is a different fault history.
  EXPECT_GT(divergences, 0u);
}

TEST(FaultPlanTest, BurstWindowMultipliesTransientRate) {
  FaultPlanConfig config;
  config.transient_rate = 0.1;
  config.burst_start = 1 * kSecond;
  config.burst_duration = 1 * kSecond;
  config.burst_factor = 10.0;  // 0.1 * 10 = certainty inside the window
  FaultPlan plan(config, 5);

  // Outside the window the base rate applies: most draws pass.
  uint64_t outside_faults = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    outside_faults += plan.Evaluate(i * 8, 0, false).kind == FaultKind::kTransient ? 1 : 0;
  }
  EXPECT_LT(outside_faults, 50u);
  EXPECT_EQ(plan.stats().burst_faults, 0u);

  // Inside the window every draw clears the multiplied rate.
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(plan.Evaluate(i * 8, 1 * kSecond + 500 * kMillisecond, false).kind,
              FaultKind::kTransient);
  }
  EXPECT_EQ(plan.stats().burst_faults, 50u);

  // One nanosecond past the window the base rate is back.
  uint64_t after_faults = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    after_faults += plan.Evaluate(i * 8, 2 * kSecond, false).kind == FaultKind::kTransient ? 1 : 0;
  }
  EXPECT_LT(after_faults, 50u);
  EXPECT_EQ(plan.stats().burst_faults, 50u);
}

// --- DiskModel: fault charging and remapping ---

// First LBA whose fault region is persistently bad (or good, when
// `want_bad` is false), scanning from the start of the device.
uint64_t FindRegion(const DiskModel& disk, bool want_bad) {
  const FaultPlan* plan = disk.fault_plan();
  EXPECT_NE(plan, nullptr);
  const uint64_t region_sectors = plan->config().region_sectors;
  for (uint64_t lba = 0; lba < disk.total_sectors(); lba += region_sectors) {
    if (plan->RegionIsBad(lba, 0) == want_bad) {
      return lba;
    }
  }
  ADD_FAILURE() << "no such region";
  return 0;
}

TEST(FaultPlanTest, PersistentRegionFailsUntilRemapped) {
  DiskModel disk(DiskParams{}, 3);
  FaultPlanConfig config;
  config.persistent_rate = 0.1;
  disk.EnableFaults(config, 3);
  const uint64_t bad = FindRegion(disk, /*want_bad=*/true);

  const IoRequest req{IoKind::kRead, bad, 8};
  const AccessResult failed = disk.AccessEx(req, 0);
  EXPECT_FALSE(failed.service.has_value());
  EXPECT_EQ(failed.fault, FaultKind::kPersistent);
  EXPECT_GT(failed.fail_time, 0);  // the doomed attempt occupied the device
  EXPECT_EQ(disk.stats().errors, 1u);
  EXPECT_EQ(disk.stats().total_fault_time, failed.fail_time);

  ASSERT_TRUE(disk.RemapRegion(bad));
  EXPECT_EQ(disk.remapped_regions(), 1u);
  // The redirected request reads the spare, not the bad media.
  EXPECT_TRUE(disk.AccessEx(req, 0).service.has_value());
  EXPECT_EQ(disk.stats().errors, 1u);
}

TEST(FaultPlanTest, GrownDefectsDevelopAtSeededOnsetTimes) {
  FaultPlanConfig config;
  config.persistent_rate = 1.0;               // every region is fated to go bad...
  config.defect_onset_spread = 10 * kSecond;  // ...at some seeded point in 10 s
  const FaultPlan plan(config, 11);

  constexpr uint64_t kRegions = 200;
  uint64_t bad_at_start = 0;
  uint64_t bad_midway = 0;
  for (uint64_t r = 0; r < kRegions; ++r) {
    const uint64_t lba = r * config.region_sectors;
    if (plan.RegionIsBad(lba, 5 * kSecond)) {
      // Monotone: a developed defect stays bad.
      EXPECT_TRUE(plan.RegionIsBad(lba, 9 * kSecond)) << "region " << r;
      ++bad_midway;
    }
    bad_at_start += plan.RegionIsBad(lba, 0) ? 1 : 0;
    // By the end of the spread, every fated region has developed.
    EXPECT_TRUE(plan.RegionIsBad(lba, config.defect_onset_spread)) << "region " << r;
  }
  // Onsets are spread across the window: almost none at t=0, roughly half
  // midway through.
  EXPECT_LT(bad_at_start, kRegions / 10);
  EXPECT_GT(bad_midway, kRegions / 4);
  EXPECT_LT(bad_midway, 3 * kRegions / 4);
}

TEST(FaultPlanTest, SpareExhaustionSurfacesAsUnremappable) {
  DiskModel disk(DiskParams{}, 9);
  FaultPlanConfig config;
  config.persistent_rate = 0.3;
  config.spare_regions = 1;
  disk.EnableFaults(config, 9);

  const uint64_t first = FindRegion(disk, /*want_bad=*/true);
  uint64_t second = 0;
  for (uint64_t lba = first + config.region_sectors; lba < disk.total_sectors();
       lba += config.region_sectors) {
    if (disk.fault_plan()->RegionIsBad(lba, 0)) {
      second = lba;
      break;
    }
  }
  ASSERT_GT(second, first);

  ASSERT_TRUE(disk.RemapRegion(first));
  EXPECT_EQ(disk.spare_regions_left(), 0u);
  // The single spare is spent: the second bad region cannot be rescued and
  // keeps faulting.
  EXPECT_FALSE(disk.RemapRegion(second));
  EXPECT_FALSE(disk.AccessEx(IoRequest{IoKind::kRead, second, 8}, 0).service.has_value());
  // Re-remapping an already-remapped region stays true (idempotent).
  EXPECT_TRUE(disk.RemapRegion(first));
  EXPECT_EQ(disk.remapped_regions(), 1u);
}

TEST(FaultPlanTest, SlowFaultMultipliesServiceTimeExactly) {
  DiskParams params;
  DiskModel clean(params, 17);
  DiskModel slow(params, 17);
  FaultPlanConfig config;
  config.slow_rate = 1.0;
  config.slow_multiplier = 8.0;
  slow.EnableFaults(config, 17);

  // Same seed: the rotational draw comes from the disk's own stream, which
  // the plan's dedicated stream must not perturb.
  const IoRequest req{IoKind::kRead, 4096, 8};
  const AccessResult base = clean.AccessEx(req, 0);
  const AccessResult hit = slow.AccessEx(req, 0);
  ASSERT_TRUE(base.service.has_value());
  ASSERT_TRUE(hit.service.has_value());
  EXPECT_TRUE(hit.slow);
  EXPECT_EQ(*hit.service, *base.service * 8);
}

TEST(FaultPlanTest, ErrorRecoveryTimeIsChargedPerFailedAttempt) {
  DiskParams quick;
  DiskParams grinding;
  grinding.error_recovery_time = FromMillis(50);
  DiskModel a(quick, 23);
  DiskModel b(grinding, 23);
  a.InjectError(2048);
  b.InjectError(2048);

  const IoRequest req{IoKind::kRead, 2048, 8};
  const AccessResult fast = a.AccessEx(req, 0);
  const AccessResult deep = b.AccessEx(req, 0);
  ASSERT_FALSE(fast.service.has_value());
  ASSERT_FALSE(deep.service.has_value());
  // Same seed, same mechanical draws: the only difference is the drive's
  // internal error-recovery budget.
  EXPECT_EQ(deep.fail_time - fast.fail_time, FromMillis(50));
}

TEST(FaultPlanTest, InjectErrorSpansWholeBlockAndExplicitRanges) {
  DiskModel disk(DiskParams{}, 1);
  // Default span is one fs block (8 sectors): [1000, 1008).
  disk.InjectError(1000);
  // A request whose middle sectors cross the extent fails even though its
  // first sector is clean.
  EXPECT_FALSE(disk.AccessEx(IoRequest{IoKind::kRead, 996, 8}, 0).service.has_value());
  EXPECT_FALSE(disk.AccessEx(IoRequest{IoKind::kRead, 1004, 8}, 0).service.has_value());
  // Adjacent requests ending at or starting past the extent succeed.
  EXPECT_TRUE(disk.AccessEx(IoRequest{IoKind::kRead, 992, 8}, 0).service.has_value());
  EXPECT_TRUE(disk.AccessEx(IoRequest{IoKind::kRead, 1008, 8}, 0).service.has_value());

  // Explicit two-sector extent in the middle of a multi-sector request.
  disk.InjectError(2000, 2);
  EXPECT_FALSE(disk.AccessEx(IoRequest{IoKind::kRead, 1998, 8}, 0).service.has_value());
  EXPECT_TRUE(disk.AccessEx(IoRequest{IoKind::kRead, 2002, 8}, 0).service.has_value());
}

TEST(FaultPlanTest, LifetimeErrorCounterSurvivesClearErrors) {
  DiskModel disk(DiskParams{}, 1);
  disk.InjectError(512);
  EXPECT_FALSE(disk.AccessEx(IoRequest{IoKind::kRead, 512, 8}, 0).service.has_value());
  EXPECT_EQ(disk.stats().errors, 1u);
  disk.ClearErrors();
  // The damage is gone but the SMART-style lifetime tally is not.
  EXPECT_TRUE(disk.AccessEx(IoRequest{IoKind::kRead, 512, 8}, 0).service.has_value());
  EXPECT_EQ(disk.stats().errors, 1u);
}

// --- IoScheduler: the block layer's retry/remap policy ---

TEST(FaultPlanTest, SchedulerFailsPersistentFaultsFastWithoutRemap) {
  DiskModel disk(DiskParams{}, 4);
  disk.InjectError(4096);
  IoScheduler scheduler(&disk);
  scheduler.set_retry_policy(RetryPolicy{4, FromMillis(1), 2.0, /*remap=*/false});

  // A medium error is deterministic: re-issuing can only burn device time,
  // so no retries are spent on it.
  EXPECT_FALSE(scheduler.SubmitSync(IoRequest{IoKind::kRead, 4096, 8}, 0).has_value());
  EXPECT_EQ(scheduler.stats().sync_errors, 1u);
  EXPECT_EQ(scheduler.stats().retries, 0u);
  EXPECT_EQ(scheduler.stats().retry_backoff_time, 0);
  // The doomed attempt still occupied the device.
  EXPECT_GT(scheduler.busy_until(), 0);
}

TEST(FaultPlanTest, SchedulerRemapRescuesPersistentFaults) {
  DiskModel disk(DiskParams{}, 4);
  disk.InjectError(4096);
  IoScheduler scheduler(&disk);
  scheduler.set_retry_policy(RetryPolicy{4, FromMillis(1), 2.0, /*remap=*/true});

  const auto first = scheduler.SubmitSync(IoRequest{IoKind::kRead, 4096, 8}, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(scheduler.stats().remaps, 1u);
  EXPECT_EQ(scheduler.stats().sync_errors, 0u);
  EXPECT_EQ(disk.remapped_regions(), 1u);
  // The region stays remapped: later requests hit the spare directly.
  EXPECT_TRUE(scheduler.SubmitSync(IoRequest{IoKind::kRead, 4096, 8}, *first).has_value());
  EXPECT_EQ(scheduler.stats().remaps, 1u);
}

TEST(FaultPlanTest, RetryPolicyExhaustsOnPermanentTransientStorm) {
  DiskModel disk(DiskParams{}, 4);
  FaultPlanConfig config;
  config.transient_rate = 1.0;  // every attempt fails: the policy must give up
  disk.EnableFaults(config, 4);
  IoScheduler scheduler(&disk);
  scheduler.set_retry_policy(RetryPolicy{3, FromMillis(1), 2.0, /*remap=*/false});

  EXPECT_FALSE(scheduler.SubmitSync(IoRequest{IoKind::kRead, 0, 8}, 0).has_value());
  EXPECT_EQ(scheduler.stats().sync_errors, 1u);
  // 3 attempts = 2 retries, backing off 1 ms then 2 ms.
  EXPECT_EQ(scheduler.stats().retries, 2u);
  EXPECT_EQ(scheduler.stats().retry_backoff_time, FromMillis(3));
}

// --- Experiment: FaultSummary propagation into RunResult ---

TEST(FaultPlanTest, FaultSummaryPropagatesIntoRunResult) {
  const MachineFactory faulty = [](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.seed = seed;
    config.faults.transient_rate = 0.2;
    config.faults.persistent_rate = 0.02;
    config.faults.slow_rate = 0.05;
    config.retry = RetryPolicy{4, FromMillis(0.1), 2.0, /*remap=*/true};
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 10 * kSecond;
  config.continue_on_error = true;
  const ExperimentResult result = Experiment(config).Run(faulty, [] {
    RandomReadConfig workload_config;
    workload_config.file_size = 8 * kMiB;
    return std::make_unique<RandomReadWorkload>(workload_config);
  });
  ASSERT_EQ(result.runs.size(), 1u);
  const RunResult& run = result.runs[0];
  const FaultSummary& fault = run.fault;
  // The machinery engaged and the summary mirrors the per-layer counters it
  // was assembled from.
  EXPECT_GT(fault.device_errors, 0u);
  EXPECT_EQ(fault.device_errors, run.disk_stats.errors);
  EXPECT_GT(fault.transient_faults, 0u);
  EXPECT_GT(fault.retries, 0u);
  EXPECT_EQ(fault.retries, run.scheduler_stats.retries);
  EXPECT_EQ(fault.retry_backoff_time, run.scheduler_stats.retry_backoff_time);
  // Remap bookkeeping balances against the configured spare pool.
  EXPECT_EQ(fault.remapped_regions + fault.spare_regions_left, 64u);
  EXPECT_EQ(fault.failed_ops, run.failed_ops);
  EXPECT_EQ(fault.sync_io_failures, run.scheduler_stats.sync_errors);
  EXPECT_EQ(fault.async_io_failures, run.scheduler_stats.async_errors);
}

}  // namespace
}  // namespace fsbench
