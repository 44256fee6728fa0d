// Crash injection + mount-time recovery, end to end: determinism of the
// crash matrix, post-recovery consistency, fsync durability across the
// crash, torn-tail discarding, and the journal-vs-fsck recovery-cost
// contrast the new benchmark axis is built on.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/experiment.h"
#include "src/core/sim_engine.h"
#include "src/core/workloads/postmark_like.h"
#include "src/sim/recovery.h"

namespace fsbench {
namespace {

MachineFactory CrashMachine(FsKind kind, JournalMode mode = JournalMode::kOrdered) {
  return [kind, mode](uint64_t seed) {
    MachineConfig config;
    // Small cache (8 MiB, jitter-free) so writeback and eviction traffic is
    // part of every scenario.
    config.ram = 110 * kMiB;
    config.os_reserved = 102 * kMiB;
    config.os_reserve_jitter = 0;
    config.journal.mode = mode;
    config.xfs_journal.mode = mode;
    config.seed = seed;
    return std::make_unique<Machine>(kind, config);
  };
}

ThreadedWorkloadFactory CrashPostmark() {
  PostmarkConfig pm;
  pm.initial_files = 60;
  pm.min_size = 512;
  pm.max_size = 24 * kKiB;
  pm.fsync_every = 4;
  return MtPostmarkFactory(pm);
}

ExperimentConfig CrashConfig(uint64_t crash_at_op) {
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 60 * kSecond;
  config.base_seed = 7;
  config.crash = CrashScenario{crash_at_op, 0, /*replay_check=*/true};
  return config;
}

struct MatrixCell {
  FsKind kind;
  JournalMode mode;
  uint64_t crash_op;
};

class CrashMatrix : public ::testing::TestWithParam<MatrixCell> {};

TEST_P(CrashMatrix, DeterministicConsistentAndBounded) {
  const MatrixCell cell = GetParam();
  const ExperimentConfig config = CrashConfig(cell.crash_op);
  const MachineFactory machines = CrashMachine(cell.kind, cell.mode);

  const ExperimentResult first = Experiment(config).Run(machines, CrashPostmark());
  const ExperimentResult second = Experiment(config).Run(machines, CrashPostmark());
  ASSERT_TRUE(first.AllOk());
  ASSERT_TRUE(second.AllOk());

  ASSERT_TRUE(first.runs[0].crash_report.has_value());
  ASSERT_TRUE(second.runs[0].crash_report.has_value());
  const CrashReport& report = *first.runs[0].crash_report;

  // Same (config, seed) twice => bit-identical crash and recovery.
  EXPECT_TRUE(first == second);

  // The crash hit where asked, recovery never claims more than was issued,
  // and the rebuilt state passed fsck.
  EXPECT_EQ(report.ops_issued, cell.crash_op);
  EXPECT_LE(report.recovery_watermark, report.ops_issued);
  EXPECT_TRUE(report.recovered_consistent);
  EXPECT_GT(report.recovery_latency, 0);
  if (cell.kind == FsKind::kExt2) {
    EXPECT_FALSE(report.used_journal);
    EXPECT_GT(report.fsck_blocks, 0u);
  } else {
    EXPECT_TRUE(report.used_journal);
    // The fsync-heavy workload committed durably before the crash.
    EXPECT_GT(report.durable_txns, 0u);
    EXPECT_GT(report.recovery_watermark, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrashMatrix,
    ::testing::Values(MatrixCell{FsKind::kExt2, JournalMode::kOrdered, 60},
                      MatrixCell{FsKind::kExt2, JournalMode::kOrdered, 200},
                      MatrixCell{FsKind::kExt3, JournalMode::kOrdered, 60},
                      MatrixCell{FsKind::kExt3, JournalMode::kOrdered, 200},
                      MatrixCell{FsKind::kExt3, JournalMode::kJournaled, 120},
                      MatrixCell{FsKind::kXfs, JournalMode::kOrdered, 60},
                      MatrixCell{FsKind::kXfs, JournalMode::kOrdered, 200}),
    [](const auto& info) {
      return std::string(FsKindName(info.param.kind)) +
             (info.param.mode == JournalMode::kJournaled ? "_journaled" : "_ordered") + "_op" +
             std::to_string(info.param.crash_op);
    });

// --- fsync durability --------------------------------------------------------

// Deterministic script: op 1 creates /w/f, op 2 writes 16 KiB, op 3 fsyncs;
// later ops churn junk files. No RNG: two instances replay identically.
class FsyncScriptWorkload : public Workload {
 public:
  const char* name() const override { return "fsync-script"; }

  FsStatus Setup(WorkloadContext& ctx) override {
    const FsStatus status = ctx.vfs->Mkdir("/w");
    return status == FsStatus::kExists ? FsStatus::kOk : status;
  }

  FsResult<OpType> Step(WorkloadContext& ctx) override {
    ++step_;
    Vfs& vfs = *ctx.vfs;
    if (step_ == 1) {
      const FsResult<int> fd = vfs.Open("/w/f", /*create=*/true);
      if (!fd.ok()) {
        return FsResult<OpType>::Error(fd.status);
      }
      fd_ = fd.value;
      return FsResult<OpType>::Ok(OpType::kOpen);
    }
    if (step_ == 2) {
      const FsResult<Bytes> written = vfs.Write(fd_, 0, 16 * kKiB);
      return written.ok() ? FsResult<OpType>::Ok(OpType::kWrite)
                          : FsResult<OpType>::Error(written.status);
    }
    if (step_ == 3) {
      const FsStatus synced = vfs.Fsync(fd_);
      return synced == FsStatus::kOk ? FsResult<OpType>::Ok(OpType::kFsync)
                                     : FsResult<OpType>::Error(synced);
    }
    const FsStatus status = vfs.CreateFile("/w/junk" + std::to_string(step_));
    return status == FsStatus::kOk ? FsResult<OpType>::Ok(OpType::kCreate)
                                   : FsResult<OpType>::Error(status);
  }

 private:
  uint64_t step_ = 0;
  int fd_ = -1;
};

ThreadedWorkloadFactory FsyncScript() {
  return [](int) { return std::make_unique<FsyncScriptWorkload>(); };
}

TEST(CrashRecoveryTest, FsyncedDataSurvivesTheCrash) {
  const ExperimentConfig config = CrashConfig(/*crash_at_op=*/12);
  for (const FsKind kind : {FsKind::kExt3, FsKind::kXfs}) {
    const MachineFactory machines = CrashMachine(kind);
    const ExperimentResult result = Experiment(config).Run(machines, FsyncScript());
    ASSERT_TRUE(result.AllOk());
    ASSERT_TRUE(result.runs[0].crash_report.has_value());
    const CrashReport& report = *result.runs[0].crash_report;
    // The fsync at op 3 sync-committed everything through op 2 — the create
    // and the 16 KiB write are inside the durable prefix no matter where
    // the crash landed.
    EXPECT_GE(report.recovery_watermark, 2u) << FsKindName(kind);
    EXPECT_TRUE(report.recovered_consistent) << FsKindName(kind);

    const std::unique_ptr<Machine> recovered = ReplayRecoveredPrefix(
        machines, FsyncScript(), config, config.base_seed, report.recovery_watermark);
    ASSERT_NE(recovered, nullptr) << FsKindName(kind);
    const FsResult<FileAttr> attr = recovered->vfs().Stat("/w/f");
    ASSERT_TRUE(attr.ok()) << FsKindName(kind);
    EXPECT_EQ(attr.value.size, 16 * kKiB) << FsKindName(kind);
  }
}

TEST(CrashRecoveryTest, WithoutAJournalTheSameCrashLosesTheFsyncedWindow) {
  // Same script on ext2: fsync makes /w/f itself durable, but sibling
  // metadata (bitmaps, the parent dirent) stays dirty in the cache, so no
  // all-clean stable point exists and the recovery watermark collapses to
  // the mkfs baseline — the crash-consistency gap the paper's benchmark
  // dimensions are missing.
  const ExperimentConfig config = CrashConfig(/*crash_at_op=*/12);
  const ExperimentResult result =
      Experiment(config).Run(CrashMachine(FsKind::kExt2), FsyncScript());
  ASSERT_TRUE(result.AllOk());
  ASSERT_TRUE(result.runs[0].crash_report.has_value());
  const CrashReport& report = *result.runs[0].crash_report;
  EXPECT_FALSE(report.used_journal);
  EXPECT_EQ(report.recovery_watermark, 0u);
  EXPECT_GT(report.dirty_pages_lost, 0u);
  EXPECT_TRUE(report.recovered_consistent);  // fsck restores consistency...
  // ...but the recovered prefix no longer holds the file.
  const std::unique_ptr<Machine> recovered =
      ReplayRecoveredPrefix(CrashMachine(FsKind::kExt2), FsyncScript(), config,
                            config.base_seed, report.recovery_watermark);
  ASSERT_NE(recovered, nullptr);
  EXPECT_FALSE(recovered->vfs().Stat("/w/f").ok());
}

// --- torn tail ---------------------------------------------------------------

TEST(CrashRecoveryTest, TornTailIsDiscardedAndDurablePrefixReplayed) {
  const std::unique_ptr<Machine> machine = CrashMachine(FsKind::kExt3)(3);
  machine->EnableCrashTracking();
  Vfs& vfs = machine->vfs();

  // Op 1: create + write /f, then a periodic commit 6 s later — its async
  // log writes get serviced long before the crash: durable.
  const FsResult<int> fd = vfs.Open("/f", /*create=*/true);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(vfs.Write(fd.value, 0, 8 * kKiB).ok());
  machine->NotifyOpBoundary(1);
  machine->clock().Advance(6 * kSecond);
  machine->fs().journal()->MaybePeriodicCommit();

  // Op 2: same again for /g, committed at the very instant of the crash —
  // the commit record cannot reach the platter in zero time: torn.
  const FsResult<int> fd2 = vfs.Open("/g", /*create=*/true);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(vfs.Write(fd2.value, 0, 8 * kKiB).ok());
  machine->NotifyOpBoundary(2);
  machine->clock().Advance(6 * kSecond);
  machine->fs().journal()->MaybePeriodicCommit();

  const Nanos crash_time = machine->clock().now();
  const CrashReport report = SimulateCrashRecovery(*machine, crash_time, /*ops_issued=*/2,
                                                   /*stable_watermark=*/0);
  EXPECT_EQ(report.durable_txns, 1u);
  EXPECT_EQ(report.torn_txns, 1u);
  EXPECT_EQ(report.replayed_txns, 1u);
  EXPECT_EQ(report.recovery_watermark, 1u);
  EXPECT_GT(report.replay_log_blocks, 0u);
  EXPECT_GT(report.replay_home_blocks, 0u);
}

TEST(CrashRecoveryTest, FreedBlocksDoNotBreakTheDurableChain) {
  // Regression: a transaction whose logged blocks were freed (unlink
  // dropped the pages, so they were never written home) gets checkpointed
  // via the obsolete path; recovery must treat those blocks as satisfied —
  // not as a gap that discards every later durable fsync'd commit.
  MachineConfig config;
  config.ram = 110 * kMiB;
  config.os_reserved = 102 * kMiB;
  config.os_reserve_jitter = 0;
  config.journal.mode = JournalMode::kJournaled;  // data blocks enter the log
  config.journal_blocks = 16;  // tiny log: every commit forces a checkpoint
  config.seed = 9;
  const auto machine = std::make_unique<Machine>(FsKind::kExt3, config);
  machine->EnableCrashTracking();
  Vfs& vfs = machine->vfs();
  Journal* journal = machine->fs().journal();

  // Op 1: create and write /f — its data blocks join the journal — then
  // commit durably. Op 2: unlink it, dropping those pages forever.
  const FsResult<int> fd = vfs.Open("/f", /*create=*/true);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(vfs.Write(fd.value, 0, 16 * kKiB).ok());
  ASSERT_EQ(vfs.Close(fd.value), FsStatus::kOk);
  machine->NotifyOpBoundary(1);
  machine->clock().AdvanceTo(journal->CommitSync());
  ASSERT_EQ(vfs.Unlink("/f"), FsStatus::kOk);
  machine->NotifyOpBoundary(2);
  machine->clock().AdvanceTo(journal->CommitSync());

  // Ops 3..8: fsync'd churn; the tiny log forces checkpoints of the early
  // transactions, freed blocks and all.
  for (int i = 3; i <= 8; ++i) {
    const FsResult<int> g = vfs.Open("/g" + std::to_string(i), /*create=*/true);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(vfs.Write(g.value, 0, 8 * kKiB).ok());
    ASSERT_EQ(vfs.Close(g.value), FsStatus::kOk);
    machine->NotifyOpBoundary(i);
    machine->clock().AdvanceTo(journal->CommitSync());
  }
  const TxnLog* log = journal->txn_log();
  // The tiny log forced reclaim (threshold checkpointing, stalling if it
  // ever fell behind) and the freed-block transaction is checkpointed.
  ASSERT_GT(log->stats().reclaimed_txns, 0u);
  ASSERT_TRUE(log->records().front().checkpointed);

  const CrashReport report =
      SimulateCrashRecovery(*machine, machine->clock().now(), /*ops_issued=*/8,
                            /*stable_watermark=*/0);
  // Every commit was synchronous and durable: the chain is unbroken all
  // the way to the last fsync.
  EXPECT_EQ(report.torn_txns, 0u);
  EXPECT_EQ(report.recovery_watermark, 8u);
}

TEST(CrashRecoveryTest, OpTriggerBeforeTimeTriggerUsesTheActualStopInstant) {
  // Regression: with both triggers armed and the op count firing first,
  // the crash instant is when the run actually stopped — not the configured
  // future time, which would count still-queued writes as durable.
  const std::unique_ptr<Machine> machine = CrashMachine(FsKind::kExt3)(5);
  machine->EnableCrashTracking();
  SimEngineConfig engine_config;
  engine_config.duration = 60 * kSecond;
  engine_config.framework_overhead = 99 * kMicrosecond;
  engine_config.crash_at_op = 5;
  engine_config.crash_at_time = 50 * kSecond;
  SimEngine engine(machine.get(), engine_config);
  engine.AddThread(FsyncScript()(0), 11);
  ASSERT_EQ(engine.Prepare(), FsStatus::kOk);
  const SimEngineResult result = engine.Run(nullptr);
  ASSERT_TRUE(result.ok);
  ASSERT_TRUE(result.crashed);
  EXPECT_EQ(result.total_ops, 5u);
  EXPECT_EQ(result.crash_time, result.end_time);
  EXPECT_LT(result.crash_time, result.measure_from + 50 * kSecond);
}

// --- recovery-cost contrast --------------------------------------------------

TEST(CrashRecoveryTest, JournalReplayIsOrdersOfMagnitudeCheaperThanFsck) {
  const ExperimentConfig config = CrashConfig(/*crash_at_op=*/150);
  const ExperimentResult ext3 =
      Experiment(config).Run(CrashMachine(FsKind::kExt3), CrashPostmark());
  const ExperimentResult ext2 =
      Experiment(config).Run(CrashMachine(FsKind::kExt2), CrashPostmark());
  ASSERT_TRUE(ext3.AllOk());
  ASSERT_TRUE(ext2.AllOk());
  const CrashReport& journal_report = *ext3.runs[0].crash_report;
  const CrashReport& fsck_report = *ext2.runs[0].crash_report;
  // ext3 replays a few hundred log blocks; ext2 scans every group's bitmaps
  // and inode tables on a 250 GB disk.
  EXPECT_GT(fsck_report.fsck_blocks, 100000u);
  EXPECT_LT(journal_report.replay_log_blocks, 10000u);
  EXPECT_GT(fsck_report.recovery_latency, 10 * journal_report.recovery_latency);
  // And the journal saves work: more of the issued ops survive.
  EXPECT_GE(journal_report.recovery_watermark, fsck_report.recovery_watermark);
}

// --- crash-at-time -----------------------------------------------------------

TEST(CrashRecoveryTest, CrashAtTimeStopsAtTheConfiguredInstant) {
  const std::unique_ptr<Machine> machine = CrashMachine(FsKind::kExt3)(5);
  machine->EnableCrashTracking();
  SimEngineConfig engine_config;
  engine_config.duration = 60 * kSecond;
  engine_config.framework_overhead = 99 * kMicrosecond;
  engine_config.crash_at_time = 2 * kSecond;
  SimEngine engine(machine.get(), engine_config);
  engine.AddThread(FsyncScript()(0), 11);
  ASSERT_EQ(engine.Prepare(), FsStatus::kOk);
  const SimEngineResult result = engine.Run(nullptr);
  ASSERT_TRUE(result.ok);
  ASSERT_TRUE(result.crashed);
  EXPECT_EQ(result.crash_time, result.measure_from + 2 * kSecond);
  EXPECT_GT(result.total_ops, 0u);
  const CrashReport report = SimulateCrashRecovery(*machine, result.crash_time,
                                                   result.total_ops, result.stable_watermark);
  EXPECT_LE(report.recovery_watermark, result.total_ops);
}

}  // namespace
}  // namespace fsbench
