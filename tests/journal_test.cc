// Journal-client behaviour: JbdJournal (ext3) and CilJournal (xfs delayed
// logging) over the generic transaction log. The log mechanism itself —
// space accounting, checkpointing, stalls, wraparound — is covered by
// tests/txn_log_test.cc.
#include "src/sim/journal.h"

#include <gtest/gtest.h>

#include "src/sim/disk_model.h"

namespace fsbench {
namespace {

MetaRef Ref(BlockId block) { return MetaRef{1, block, block}; }

struct JournalFixture {
  DiskParams params;
  VirtualClock clock;
  DiskModel disk;
  IoScheduler scheduler;

  JournalFixture() : disk(params, 1), scheduler(&disk) {}

  JbdJournal MakeJournal(JournalMode mode = JournalMode::kOrdered) {
    return JbdJournal(&scheduler, &clock, Extent{1000, 8192}, /*block_sectors=*/8, mode);
  }

  CilJournal MakeCilJournal() {
    return CilJournal(&scheduler, &clock, Extent{1000, 8192}, /*block_sectors=*/8,
                      JournalMode::kOrdered);
  }
};

TEST(JournalTest, EmptyCommitIsFree) {
  JournalFixture f;
  JbdJournal journal = f.MakeJournal();
  const Nanos done = journal.CommitSync();
  EXPECT_EQ(done, f.clock.now());
  EXPECT_EQ(journal.stats().commits, 0u);
}

TEST(JournalTest, SyncCommitWaitsForTheCommitRecord) {
  JournalFixture f;
  JbdJournal journal = f.MakeJournal();
  journal.LogMetadata(Ref(42));
  journal.LogMetadata(Ref(43));
  const Nanos done = journal.CommitSync();
  EXPECT_GT(done, f.clock.now());
  EXPECT_EQ(journal.stats().commits, 1u);
  EXPECT_EQ(journal.stats().sync_commits, 1u);
  EXPECT_EQ(journal.stats().blocks_logged, 2u);
  EXPECT_EQ(journal.pending_blocks(), 0u);
}

TEST(JournalTest, DuplicateBlocksCoalesceWithinTransaction) {
  JournalFixture f;
  JbdJournal journal = f.MakeJournal();
  journal.LogMetadata(Ref(42));
  journal.LogMetadata(Ref(42));
  journal.LogMetadata(Ref(42));
  EXPECT_EQ(journal.pending_blocks(), 1u);
}

TEST(JournalTest, OrderedModeIgnoresDataBlocks) {
  JournalFixture f;
  JbdJournal journal = f.MakeJournal();
  journal.LogData(Ref(99));
  EXPECT_EQ(journal.pending_blocks(), 0u);
  JbdJournal data_journal = f.MakeJournal(JournalMode::kJournaled);
  data_journal.LogData(Ref(99));
  EXPECT_EQ(data_journal.pending_blocks(), 1u);
}

TEST(JournalTest, PeriodicCommitFiresAfterInterval) {
  JournalFixture f;
  ASSERT_EQ(JbdJournal::kCommitInterval, 5 * kSecond);
  JbdJournal journal = f.MakeJournal();
  journal.LogMetadata(Ref(1));
  journal.MaybePeriodicCommit();
  EXPECT_EQ(journal.stats().commits, 0u);  // too early
  f.clock.Advance(6 * kSecond);
  journal.MaybePeriodicCommit();
  EXPECT_EQ(journal.stats().commits, 1u);
  EXPECT_EQ(journal.stats().sync_commits, 0u);
}

TEST(JournalTest, PeriodicTimerResetsAfterCommit) {
  JournalFixture f;
  JbdJournal journal = f.MakeJournal();
  f.clock.Advance(6 * kSecond);
  journal.LogMetadata(Ref(1));
  journal.MaybePeriodicCommit();
  EXPECT_EQ(journal.stats().commits, 1u);
  journal.LogMetadata(Ref(2));
  journal.MaybePeriodicCommit();
  EXPECT_EQ(journal.stats().commits, 1u);  // timer restarted
}

TEST(JournalTest, CommitClockIsMonotoneAcrossSkewedCursors) {
  // Regression (MT engine): a trailing thread cursor committing via fsync
  // must not regress the periodic-commit timer. Cursor A commits at 10 s;
  // cursor B — bound later but *behind* in virtual time — syncs at 2 s; at
  // 12 s the interval (5 s) has not elapsed since the 10 s commit, so no
  // periodic commit may fire.
  JournalFixture f;
  JbdJournal journal = f.MakeJournal();

  VirtualClock cursor_a;
  VirtualClock cursor_b;
  cursor_a.AdvanceTo(10 * kSecond);
  cursor_b.AdvanceTo(2 * kSecond);

  journal.BindClock(&cursor_a);
  journal.LogMetadata(Ref(1));
  journal.MaybePeriodicCommit();  // 10 s - 0 >= 5 s: commits
  ASSERT_EQ(journal.stats().commits, 1u);

  journal.BindClock(&cursor_b);
  journal.LogMetadata(Ref(2));
  journal.CommitSync();  // trailing cursor at 2 s
  ASSERT_EQ(journal.stats().commits, 2u);

  journal.BindClock(&cursor_a);
  cursor_a.AdvanceTo(12 * kSecond);
  journal.LogMetadata(Ref(3));
  journal.MaybePeriodicCommit();
  // Pre-fix behaviour: last commit time regressed to 2 s, so 12 s - 2 s
  // >= 5 s fired a spurious commit. Monotone: 12 s - 10 s < 5 s.
  EXPECT_EQ(journal.stats().commits, 2u);
}

TEST(JournalTest, JournalWritesAreSequentialOnDisk) {
  JournalFixture f;
  JbdJournal journal = f.MakeJournal();
  for (BlockId b = 0; b < 32; ++b) {
    journal.LogMetadata(Ref(5000 + b * 97));
  }
  journal.CommitSync();
  // Sequential journal writes should mostly be streaming (no seeks beyond
  // the first positioning).
  EXPECT_GE(f.disk.stats().sequential_hits + f.disk.stats().buffer_hits,
            f.disk.stats().writes - 2);
}

// --- CilJournal (delayed logging) -------------------------------------------

TEST(CilJournalTest, DeltasBatchInMemoryUntilPushed) {
  JournalFixture f;
  CilJournal journal = f.MakeCilJournal();
  for (BlockId b = 0; b < 16; ++b) {
    journal.LogMetadata(Ref(100 + b));
  }
  // Nothing on disk yet: the running transaction absorbed every delta.
  EXPECT_EQ(journal.pending_blocks(), 16u);
  EXPECT_EQ(journal.stats().commits, 0u);
  EXPECT_EQ(f.disk.stats().writes, 0u);
  f.scheduler.Drain(f.clock.now());
  EXPECT_EQ(f.disk.stats().writes, 0u);

  journal.CommitSync();
  EXPECT_EQ(journal.pending_blocks(), 0u);
  EXPECT_EQ(journal.stats().commits, 1u);
  EXPECT_EQ(journal.stats().cil_pushes, 1u);
  EXPECT_EQ(journal.stats().blocks_logged, 16u);
  EXPECT_GT(f.disk.stats().writes, 0u);
}

TEST(CilJournalTest, RelogbgedBlocksCostOneCopyPerPush) {
  // The delayed-logging win: a block re-dirtied N times between pushes hits
  // the log once, where JBD would log it once per commit interval.
  JournalFixture f;
  CilJournal journal = f.MakeCilJournal();
  for (int round = 0; round < 50; ++round) {
    journal.LogMetadata(Ref(7));
  }
  EXPECT_EQ(journal.pending_blocks(), 1u);
  EXPECT_EQ(journal.stats().cil_inserts, 50u);
  journal.CommitSync();
  EXPECT_EQ(journal.stats().blocks_logged, 1u);
}

TEST(CilJournalTest, CilPushesWhenItOutgrowsTheThreshold) {
  JournalFixture f;
  CilJournal journal = f.MakeCilJournal();
  for (BlockId b = 0; b + 1 < CilJournal::kPushBlocks; ++b) {
    journal.LogMetadata(Ref(200 + b));
  }
  journal.LogMetadata(Ref(200));  // a duplicate does not grow the transaction
  EXPECT_EQ(journal.pending_blocks(), CilJournal::kPushBlocks - 1);
  EXPECT_EQ(journal.stats().cil_pushes, 0u);
  journal.LogMetadata(Ref(200 + CilJournal::kPushBlocks));
  // The last distinct delta reached the threshold: pushed without any fsync.
  EXPECT_EQ(journal.pending_blocks(), 0u);
  EXPECT_EQ(journal.stats().cil_pushes, 1u);
  EXPECT_EQ(journal.stats().commits, 1u);
  EXPECT_EQ(journal.stats().sync_commits, 0u);
  EXPECT_EQ(journal.stats().blocks_logged, CilJournal::kPushBlocks);
}

TEST(CilJournalTest, PeriodicPushHonoursTheLogTimer) {
  JournalFixture f;
  ASSERT_EQ(CilJournal::kCommitInterval, 30 * kSecond);
  CilJournal journal = f.MakeCilJournal();
  journal.LogMetadata(Ref(1));
  f.clock.Advance(5 * kSecond);
  journal.MaybePeriodicCommit();
  EXPECT_EQ(journal.stats().commits, 0u);  // ext3 would have committed here
  f.clock.Advance(26 * kSecond);
  journal.MaybePeriodicCommit();
  EXPECT_EQ(journal.stats().commits, 1u);
}

TEST(CilJournalTest, AbortedJournalCountsNoPush) {
  // Deltas logged before an abort stay in the dead log's running
  // transaction; a push into that log writes nothing and counts nothing.
  JournalFixture f;
  CilJournal journal = f.MakeCilJournal();
  journal.LogMetadata(Ref(1));
  journal.LogMetadata(Ref(2));
  journal.Abort();
  journal.LogMetadata(Ref(3));
  EXPECT_EQ(journal.stats().cil_inserts, 2u);
  const Nanos now = f.clock.now();
  EXPECT_EQ(journal.CommitSync(), now);
  EXPECT_EQ(journal.CommitSync(), now);
  EXPECT_EQ(journal.stats().cil_pushes, 0u);
  EXPECT_EQ(journal.stats().commits, 0u);
  EXPECT_EQ(journal.stats().sync_commits, 2u);
  EXPECT_EQ(f.disk.stats().writes, 0u);
}

}  // namespace
}  // namespace fsbench
