// Transaction-log mechanism tests: lifecycle, log-space accounting,
// checkpoint reclaim, the log-full stall, wraparound under accounting, and
// oversized-transaction splitting. (The old journal silently wrapped its
// head over its own tail in the last two scenarios; these are the
// regression tests the refactor was asked to make possible.)
#include "src/sim/txn_log.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/disk_model.h"

namespace fsbench {
namespace {

MetaRef Ref(BlockId block) { return MetaRef{1, block, block}; }

struct LogFixture {
  DiskParams params;
  VirtualClock clock;
  DiskModel disk;
  IoScheduler scheduler;

  LogFixture() : disk(params, 1), scheduler(&disk) {}

  TxnLog MakeLog(uint64_t region_blocks) {
    return TxnLog(&scheduler, &clock, Extent{1000, region_blocks}, /*block_sectors=*/8);
  }
};

// Checkpoint sink that counts requests; refs are considered flushed (the
// log's forced path treats them as written after its drain regardless).
struct CountingSink : CheckpointSink {
  size_t calls = 0;
  size_t refs_seen = 0;
  size_t WritebackForCheckpoint(const MetaRef* refs, size_t count, Nanos now) override {
    (void)refs;
    (void)now;
    ++calls;
    refs_seen += count;
    return count;
  }
};

TEST(TxnLogTest, EmptyCommitWritesNothing) {
  LogFixture f;
  TxnLog log = f.MakeLog(64);
  EXPECT_EQ(log.Commit(/*sync=*/true), f.clock.now());
  EXPECT_EQ(log.stats().commits, 0u);
  EXPECT_EQ(log.used_blocks(), 0u);
  EXPECT_EQ(f.disk.stats().writes, 0u);
}

TEST(TxnLogTest, CommitAccountsDescriptorAndCommitRecord) {
  LogFixture f;
  TxnLog log = f.MakeLog(64);
  log.Add(Ref(10));
  log.Add(Ref(11));
  log.Add(Ref(10));  // dedup
  EXPECT_EQ(log.pending_blocks(), 2u);
  log.Commit(/*sync=*/true);
  EXPECT_EQ(log.stats().commits, 1u);
  EXPECT_EQ(log.stats().blocks_logged, 2u);
  EXPECT_EQ(log.used_blocks(), 4u);  // descriptor + 2 + commit record
  EXPECT_EQ(log.pending_blocks(), 0u);
}

TEST(TxnLogTest, HomeWritebackReclaimsTailSpace) {
  LogFixture f;
  TxnLog log = f.MakeLog(64);
  log.Add(Ref(10));
  log.Add(Ref(11));
  log.Commit(/*sync=*/true);
  ASSERT_EQ(log.used_blocks(), 4u);
  // Home writes reported: the next commit's space check reclaims the tail.
  log.NoteHomeWrite(10);
  log.NoteHomeWrite(11);
  log.Add(Ref(12));
  log.Commit(/*sync=*/true);
  EXPECT_EQ(log.used_blocks(), 3u);  // only the second transaction lives
  EXPECT_EQ(log.stats().reclaimed_txns, 1u);
  EXPECT_EQ(log.stats().log_stalls, 0u);
}

TEST(TxnLogTest, HomeWriteBeforeCommitDoesNotReclaim) {
  // A writeback that happened before the commit cannot stand in for the
  // checkpoint of that commit's (newer) content.
  LogFixture f;
  TxnLog log = f.MakeLog(64);
  log.NoteHomeWrite(10);
  log.Add(Ref(10));
  log.Commit(/*sync=*/true);
  log.Add(Ref(20));
  log.Commit(/*sync=*/true);
  EXPECT_EQ(log.stats().reclaimed_txns, 0u);
  EXPECT_EQ(log.used_blocks(), 6u);
}

TEST(TxnLogTest, WrapsAroundRegionWhileCheckpointingKeepsUp) {
  LogFixture f;
  TxnLog log = f.MakeLog(8);
  // Each commit takes 4 of the 8 blocks; with home writes reported between
  // commits, the head wraps the region many times without ever stalling.
  for (int tx = 0; tx < 10; ++tx) {
    log.Add(Ref(100 + tx));
    log.Add(Ref(200 + tx));
    log.Commit(/*sync=*/true);
    log.NoteHomeWrite(100 + tx);
    log.NoteHomeWrite(200 + tx);
  }
  EXPECT_EQ(log.stats().commits, 10u);
  EXPECT_EQ(log.stats().log_stalls, 0u);
  EXPECT_LE(log.stats().max_used_blocks, 8u);
  EXPECT_EQ(log.stats().reclaimed_txns, 9u);  // the last one is still live
}

TEST(TxnLogTest, LogFullStallsUntilForcedCheckpoint) {
  LogFixture f;
  TxnLog log = f.MakeLog(8);
  CountingSink sink;
  log.set_checkpoint_sink(&sink);
  // No home writes reported: the second 2-block transaction does not fit
  // behind the first (4 + 4 > 8 would fit exactly; use 3 blocks to force
  // it) and must stall on a forced checkpoint.
  log.Add(Ref(1));
  log.Add(Ref(2));
  log.Add(Ref(3));
  log.Commit(/*sync=*/false);
  ASSERT_EQ(log.used_blocks(), 5u);
  const Nanos before = f.clock.now();
  log.Add(Ref(4));
  log.Add(Ref(5));
  log.Commit(/*sync=*/false);
  EXPECT_EQ(log.stats().log_stalls, 1u);
  EXPECT_EQ(log.stats().forced_checkpoints, 1u);
  EXPECT_GE(sink.calls, 1u);
  EXPECT_EQ(sink.refs_seen, 3u);
  // The stall waited for the device to drain the checkpoint writeback.
  EXPECT_GT(f.clock.now(), before);
  EXPECT_EQ(log.stats().stall_time, f.clock.now() - before);
  EXPECT_EQ(log.used_blocks(), 4u);  // only the new transaction lives
}

TEST(TxnLogTest, TransactionLargerThanRegionIsSplitNotWrapped) {
  LogFixture f;
  TxnLog log = f.MakeLog(8);
  // 20 home blocks cannot fit an 8-block region: the commit must be chunked
  // into ceil(20/6) = 4 segments, checkpointing between them — never
  // wrapping the head over a live transaction (the old journal's silent
  // corruption case).
  for (BlockId b = 0; b < 20; ++b) {
    log.Add(Ref(500 + b));
  }
  const Nanos done = log.Commit(/*sync=*/true);
  EXPECT_EQ(log.stats().split_commits, 1u);
  EXPECT_EQ(log.stats().commits, 1u);
  EXPECT_EQ(log.stats().blocks_logged, 20u);
  EXPECT_GE(log.stats().log_stalls, 1u);
  EXPECT_GE(done, f.clock.now());
  // Every segment fit: occupancy never exceeded the region.
  EXPECT_LE(log.stats().max_used_blocks, 8u);
  // 20 home copies + 4 segments * (descriptor + commit record).
  EXPECT_EQ(f.disk.stats().writes, 28u);
}

TEST(TxnLogTest, RecordsCarryWatermarkAndCommitGeometry) {
  LogFixture f;
  TxnLog log = f.MakeLog(64);
  log.set_retain_history(true);
  log.SetOpWatermark(7);
  log.Add(Ref(10));
  log.Commit(/*sync=*/true);
  log.SetOpWatermark(19);
  log.Add(Ref(11));
  log.Add(Ref(12));
  log.Commit(/*sync=*/true);
  ASSERT_EQ(log.records().size(), 2u);
  const TxnLog::TxnRecord& first = log.records()[0];
  const TxnLog::TxnRecord& second = log.records()[1];
  EXPECT_EQ(first.watermark, 7u);
  EXPECT_EQ(first.log_start, 0u);
  EXPECT_EQ(first.log_blocks, 3u);
  EXPECT_EQ(first.commit_block, 1000u + 2u);
  EXPECT_EQ(second.watermark, 19u);
  EXPECT_EQ(second.log_start, 3u);
  EXPECT_EQ(second.log_blocks, 4u);
  ASSERT_EQ(second.home.size(), 2u);
  EXPECT_EQ(second.home[0].block, 11u);
  EXPECT_EQ(second.home[1].block, 12u);
}

TEST(TxnLogTest, RetainedHistorySurvivesCheckpointing) {
  LogFixture f;
  TxnLog log = f.MakeLog(8);
  log.set_retain_history(true);
  for (int tx = 0; tx < 6; ++tx) {
    log.Add(Ref(100 + tx));
    log.Commit(/*sync=*/true);
    log.NoteHomeWrite(100 + tx);
  }
  // All six commits are still visible, checkpointed or not.
  ASSERT_EQ(log.records().size(), 6u);
  size_t checkpointed = 0;
  for (const TxnLog::TxnRecord& txn : log.records()) {
    checkpointed += txn.checkpointed ? 1u : 0u;
  }
  EXPECT_EQ(checkpointed, log.stats().reclaimed_txns);
  EXPECT_GE(checkpointed, 4u);
}

}  // namespace
}  // namespace fsbench
