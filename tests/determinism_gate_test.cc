// The determinism gate: the (config, seed) purity contract as a red/green
// check. A canonical multi-threaded crash-recovery configuration — the most
// machinery any run exercises at once (MT engine cursors, shared device
// timeline, journal commits, crash injection, shadow-disk durability,
// recovery replay) — is run twice, and every RunResult must compare equal
// as a whole value (the defaulted operator==, so a new field cannot be
// left out of the check). detlint (tools/detlint) enforces the same
// contract statically; this test is the dynamic complement that catches
// whatever a token scanner cannot (allocator-order effects, float
// accumulation order, scheduler ties).
#include <gtest/gtest.h>

#include <memory>

#include "src/core/experiment.h"
#include "src/core/workloads/postmark_like.h"
#include "src/sim/recovery.h"

namespace fsbench {
namespace {

// The canonical gate configuration: 4 simulated threads of fsync-heavy
// postmark on ext3 under a small cache, crashing mid-run with the replay
// consistency check on.
MachineFactory GateMachine(FsKind kind, JournalMode mode) {
  return [kind, mode](uint64_t seed) {
    MachineConfig config;
    config.ram = 110 * kMiB;
    config.os_reserved = 102 * kMiB;
    config.journal.mode = mode;
    config.xfs_journal.mode = mode;
    config.seed = seed;
    return std::make_unique<Machine>(kind, config);
  };
}

ThreadedWorkloadFactory GateWorkload() {
  PostmarkConfig pm;
  pm.initial_files = 50;
  pm.min_size = 512;
  pm.max_size = 16 * kKiB;
  pm.fsync_every = 4;
  return MtPostmarkFactory(pm);
}

ExperimentConfig GateConfig() {
  ExperimentConfig config;
  config.runs = 2;  // two seeds per experiment: jitter draws are in the comparison's blast radius
  config.duration = 60 * kSecond;
  config.threads = 4;
  config.base_seed = 11;
  config.crash = CrashScenario{/*at_op=*/600, /*at_time=*/0, /*replay_check=*/true};
  return config;
}

class DeterminismGate : public ::testing::TestWithParam<FsKind> {};

TEST_P(DeterminismGate, RunTwiceBitIdenticalDigest) {
  const ExperimentConfig config = GateConfig();
  const MachineFactory machines = GateMachine(GetParam(), JournalMode::kOrdered);

  const ExperimentResult first = Experiment(config).Run(machines, GateWorkload());
  const ExperimentResult second = Experiment(config).Run(machines, GateWorkload());

  ASSERT_EQ(first.runs.size(), second.runs.size());
  for (size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_TRUE(first.runs[i] == second.runs[i])
        << "run " << i << " diverged — the (config, seed) contract is broken";
  }
  // The gate must be exercising what it claims to: a crash that recovered
  // consistently on every run, with real multi-thread interleaving.
  for (const RunResult& run : first.runs) {
    ASSERT_TRUE(run.crash_report.has_value());
    EXPECT_TRUE(run.crash_report->recovered_consistent);
    EXPECT_EQ(run.per_thread_ops.size(), 4u);
  }
  // Different seeds must NOT compare equal (a comparison blind to the seed
  // would also "pass").
  ASSERT_GE(first.runs.size(), 2u);
  EXPECT_FALSE(first.runs[0] == first.runs[1]);
}

// The same purity contract under the device-fault engine: retries, backoff,
// remapping and (on the journaled file systems) a possible mid-run
// remount-read-only must all replay bit-identically from (config, seed).
TEST_P(DeterminismGate, FaultyRunTwiceBitIdenticalDigest) {
  ExperimentConfig config = GateConfig();
  config.crash.reset();  // degraded mode instead of a crash
  config.continue_on_error = true;
  const FsKind kind = GetParam();
  const MachineFactory machines = [kind](uint64_t seed) {
    MachineConfig machine_config;
    machine_config.ram = 110 * kMiB;
    machine_config.os_reserved = 102 * kMiB;
    machine_config.seed = seed;
    machine_config.faults.transient_rate = 0.05;
    machine_config.faults.persistent_rate = 0.01;
    machine_config.faults.slow_rate = 0.01;
    machine_config.faults.region_sectors = 256;
    machine_config.retry = RetryPolicy{4, FromMillis(0.2), 2.0, /*remap=*/true};
    return std::make_unique<Machine>(kind, machine_config);
  };

  const ExperimentResult first = Experiment(config).Run(machines, GateWorkload());
  const ExperimentResult second = Experiment(config).Run(machines, GateWorkload());

  ASSERT_EQ(first.runs.size(), second.runs.size());
  for (size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_TRUE(first.runs[i] == second.runs[i])
        << "faulty run " << i << " diverged — fault draws are not seed-pure";
  }
  // The gate must actually be exercising the fault machinery.
  for (const RunResult& run : first.runs) {
    EXPECT_GT(run.fault.device_errors, 0u);
    EXPECT_GT(run.fault.retries, 0u);
  }
  ASSERT_GE(first.runs.size(), 2u);
  EXPECT_FALSE(first.runs[0] == first.runs[1]);
}

// Crash × fault interaction (the two scenario axes together): a run that
// remaps bad regions mid-flight and then crashes must keep the ShadowDisk
// durable map, the journal replay and the replayed-prefix consistency check
// agreeing — twice, bit-identically. Regression for the remap/crash
// interaction: a remap redirects LBAs *below* the block layer, so the
// shadow map (keyed by request LBA) must be oblivious to it.
TEST_P(DeterminismGate, CrashWithFaultsRunTwiceBitIdenticalDigest) {
  ExperimentConfig config = GateConfig();  // crash at op 600, replay check on
  config.continue_on_error = true;
  const FsKind kind = GetParam();
  const MachineFactory machines = [kind](uint64_t seed) {
    MachineConfig machine_config;
    machine_config.ram = 110 * kMiB;
    machine_config.os_reserved = 102 * kMiB;
    machine_config.seed = seed;
    machine_config.faults.transient_rate = 0.05;
    machine_config.faults.persistent_rate = 0.02;
    machine_config.faults.region_sectors = 256;
    machine_config.retry = RetryPolicy{4, FromMillis(0.2), 2.0, /*remap=*/true};
    return std::make_unique<Machine>(kind, machine_config);
  };

  const ExperimentResult first = Experiment(config).Run(machines, GateWorkload());
  const ExperimentResult second = Experiment(config).Run(machines, GateWorkload());

  ASSERT_EQ(first.runs.size(), second.runs.size());
  for (size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_TRUE(first.runs[i] == second.runs[i])
        << "crash+fault run " << i << " diverged";
  }
  // Both axes must really have fired: remaps before the crash, and a crash
  // whose replayed prefix still fscks clean.
  uint64_t remaps = 0;
  for (const RunResult& run : first.runs) {
    remaps += run.fault.remapped_regions;
    ASSERT_TRUE(run.crash_report.has_value());
    EXPECT_TRUE(run.crash_report->recovered_consistent);
  }
  EXPECT_GT(remaps, 0u);
}

// The redundancy layer under the same contract: a 4-thread run on a
// degraded mirror — one device killed mid-run, hot-spare rebuild racing
// foreground traffic, background scrub walking the survivors — must compare
// equal twice. Replica selection ties, scrub cadence and rebuild
// progress are all deterministic decisions this test pins.
TEST_P(DeterminismGate, DegradedArrayRunTwiceBitIdenticalDigest) {
  ExperimentConfig config = GateConfig();
  config.crash.reset();
  config.continue_on_error = true;
  const FsKind kind = GetParam();
  const MachineFactory machines = [kind](uint64_t seed) {
    MachineConfig machine_config;
    machine_config.ram = 110 * kMiB;
    machine_config.os_reserved = 102 * kMiB;
    machine_config.seed = seed;
    machine_config.faults.transient_rate = 0.02;
    machine_config.faults.persistent_rate = 0.01;
    machine_config.faults.region_sectors = 256;
    machine_config.faults.device_kill_time = 20 * kSecond;
    machine_config.retry = RetryPolicy{4, FromMillis(0.2), 2.0, /*remap=*/true};
    machine_config.array.geometry = ArrayGeometry::kMirror;
    machine_config.array.devices = 2;
    machine_config.array.hot_spares = 1;
    machine_config.array.scrub = true;
    return std::make_unique<Machine>(kind, machine_config);
  };

  const ExperimentResult first = Experiment(config).Run(machines, GateWorkload());
  const ExperimentResult second = Experiment(config).Run(machines, GateWorkload());

  ASSERT_EQ(first.runs.size(), second.runs.size());
  for (size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_TRUE(first.runs[i] == second.runs[i])
        << "degraded-array run " << i << " diverged — the array is not seed-pure";
  }
  // The gate must actually be exercising the degraded machinery: a noticed
  // device death, a rebuild, and scrub coverage.
  for (const RunResult& run : first.runs) {
    EXPECT_EQ(run.array.devices, 3u);
    EXPECT_EQ(run.array.device_failures, 1u);
    EXPECT_EQ(run.array.rebuilds_started, 1u);
    EXPECT_GT(run.array.scrub_regions_scanned, 0u);
    EXPECT_EQ(run.per_thread_ops.size(), 4u);
  }
  ASSERT_GE(first.runs.size(), 2u);
  EXPECT_FALSE(first.runs[0] == first.runs[1]);
}

// The multi-queue SSD under the canonical gate scenario: 4 threads of
// fsync-heavy postmark, crash at op 600, replay check on — against the
// flash device (per-channel FIFO scheduling, FTL page mapping, recovery
// replay on an SSD recovery device). The FTL has no RNG of its own, so
// the comparison pins it to being a pure function of the request sequence.
TEST_P(DeterminismGate, SsdRunTwiceBitIdenticalDigest) {
  const ExperimentConfig config = GateConfig();
  const FsKind kind = GetParam();
  const MachineFactory machines = [kind](uint64_t seed) {
    MachineConfig machine_config;
    machine_config.ram = 110 * kMiB;
    machine_config.os_reserved = 102 * kMiB;
    machine_config.device = DeviceKind::kSsd;
    machine_config.seed = seed;
    return std::make_unique<Machine>(kind, machine_config);
  };

  const ExperimentResult first = Experiment(config).Run(machines, GateWorkload());
  const ExperimentResult second = Experiment(config).Run(machines, GateWorkload());

  ASSERT_EQ(first.runs.size(), second.runs.size());
  for (size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_TRUE(first.runs[i] == second.runs[i])
        << "SSD run " << i << " diverged — the FTL is not request-pure";
  }
  for (const RunResult& run : first.runs) {
    ASSERT_TRUE(run.crash_report.has_value());
    EXPECT_TRUE(run.crash_report->recovered_consistent);
    EXPECT_EQ(run.per_thread_ops.size(), 4u);
  }
  ASSERT_GE(first.runs.size(), 2u);
  EXPECT_FALSE(first.runs[0] == first.runs[1]);
}

// A mixed mirror — flash primary, spinning secondary — under faults, a
// mid-run device kill, hot-spare rebuild and background scrub. Replica
// selection now picks between devices with wildly different service
// times; the comparison pins that choice (and the rebuild/scrub interleaving
// against the multi-queue device) to (config, seed).
TEST_P(DeterminismGate, SsdMirrorRunTwiceBitIdenticalDigest) {
  ExperimentConfig config = GateConfig();
  config.crash.reset();
  config.continue_on_error = true;
  const FsKind kind = GetParam();
  const MachineFactory machines = [kind](uint64_t seed) {
    MachineConfig machine_config;
    machine_config.ram = 110 * kMiB;
    machine_config.os_reserved = 102 * kMiB;
    machine_config.seed = seed;
    machine_config.faults.transient_rate = 0.02;
    machine_config.faults.persistent_rate = 0.01;
    machine_config.faults.region_sectors = 256;
    machine_config.faults.device_kill_time = 20 * kSecond;
    machine_config.retry = RetryPolicy{4, FromMillis(0.2), 2.0, /*remap=*/true};
    machine_config.array.geometry = ArrayGeometry::kMirror;
    machine_config.array.devices = 2;
    machine_config.array.hot_spares = 1;
    machine_config.array.scrub = true;
    machine_config.array.device_kinds = {DeviceKind::kSsd, DeviceKind::kHdd};
    return std::make_unique<Machine>(kind, machine_config);
  };

  const ExperimentResult first = Experiment(config).Run(machines, GateWorkload());
  const ExperimentResult second = Experiment(config).Run(machines, GateWorkload());

  ASSERT_EQ(first.runs.size(), second.runs.size());
  for (size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_TRUE(first.runs[i] == second.runs[i])
        << "SSD-mirror run " << i << " diverged";
  }
  for (const RunResult& run : first.runs) {
    EXPECT_EQ(run.array.devices, 3u);
    EXPECT_EQ(run.array.device_failures, 1u);
    EXPECT_EQ(run.array.rebuilds_started, 1u);
    EXPECT_GT(run.array.scrub_regions_scanned, 0u);
  }
  ASSERT_GE(first.runs.size(), 2u);
  EXPECT_FALSE(first.runs[0] == first.runs[1]);
}

INSTANTIATE_TEST_SUITE_P(AllFs, DeterminismGate,
                         ::testing::Values(FsKind::kExt2, FsKind::kExt3, FsKind::kXfs),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           switch (info.param) {
                             case FsKind::kExt2: return "ext2";
                             case FsKind::kExt3: return "ext3";
                             case FsKind::kXfs: return "xfs";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace fsbench
