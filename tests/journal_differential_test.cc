// Differential oracle for the transaction-log refactor: ReferenceJournal
// below is the pre-refactor ext3 journal (an unordered_set block bag flushed
// as descriptor + blocks + commit record at a silently-wrapping head), kept
// verbatim behind the new Journal interface — the same role ReferenceVfs
// plays in tests/vfs_pipeline_differential_test.cc and OldSingleThreadLoop
// in tests/mt_engine_test.cc.
//
// On randomized ext3 traces without log pressure (checkpointing keeps up,
// so the new log never stalls), the JbdJournal-over-TxnLog machine must be
// byte-identical to the old journal: clock, VfsStats, DiskStats, scheduler
// stats and journal stats. This pins down that space accounting,
// checkpoint coupling and recovery bookkeeping are pure bookkeeping on the
// non-crash path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/machine.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

// --- the pre-refactor journal, retained as the oracle ------------------------

class ReferenceJournal : public Journal {
 public:
  ReferenceJournal(IoScheduler* scheduler, VirtualClock* clock, Extent region,
                   const JournalConfig& config)
      : Journal(config), scheduler_(scheduler), clock_(clock), region_(region) {}

  void BindClock(VirtualClock* clock) override { clock_ = clock; }

  void LogMetadata(const MetaRef& ref) override { current_tx_.insert(ref.block); }

  void LogData(const MetaRef& ref) override {
    if (config_.mode == JournalMode::kJournaled) {
      current_tx_.insert(ref.block);
    }
  }

  void MaybePeriodicCommit() override {
    if (clock_->now() - last_commit_time_ >= config_.commit_interval) {
      WriteTransaction(/*sync=*/false);
    }
  }

  Nanos CommitSync() override {
    ++stats_.sync_commits;
    return WriteTransaction(/*sync=*/true);
  }

  void NoteHomeWrite(BlockId block) override { (void)block; }  // old model: none

  size_t pending_blocks() const override { return current_tx_.size(); }

 private:
  Nanos WriteTransaction(bool sync) {
    if (current_tx_.empty()) {
      return clock_->now();
    }
    const uint64_t blocks_to_write = current_tx_.size() + 2;
    Nanos completion = clock_->now();
    for (uint64_t i = 0; i < blocks_to_write; ++i) {
      const uint64_t offset = (head_block_ + i) % region_.count;
      const IoRequest req{IoKind::kWrite,
                          (region_.start + offset) * config_.block_sectors,
                          config_.block_sectors};
      if (sync && i + 1 == blocks_to_write) {
        if (const auto done = scheduler_->SubmitSync(req, clock_->now()); done.has_value()) {
          completion = *done;
        }
      } else {
        scheduler_->SubmitAsync(req, clock_->now());
      }
    }
    head_block_ = (head_block_ + blocks_to_write) % region_.count;
    stats_.blocks_logged += current_tx_.size();
    ++stats_.commits;
    current_tx_.clear();
    last_commit_time_ = clock_->now();
    return completion;
  }

  IoScheduler* scheduler_;
  VirtualClock* clock_;
  Extent region_;
  uint64_t head_block_ = 0;
  Nanos last_commit_time_ = 0;
  std::unordered_set<BlockId> current_tx_;
};

// --- randomized trace driver -------------------------------------------------

// The same op mix the MT-engine differential uses, driven directly against
// the VFS (both machines see an identical call sequence from twin RNGs).
class TraceDriver {
 public:
  explicit TraceDriver(Vfs* vfs) : vfs_(vfs) {}

  FsStatus Setup() {
    for (const char* dir : {"/d0", "/d1", "/d2", "/d0/sub"}) {
      const FsStatus status = vfs_->Mkdir(dir);
      if (status != FsStatus::kOk && status != FsStatus::kExists) {
        return status;
      }
      dirs_.emplace_back(dir);
    }
    for (int i = 0; i < 19; ++i) {
      pool_.push_back(dirs_[i % dirs_.size()] + "/f" + std::to_string(i));
    }
    pool_.push_back("/top");
    return FsStatus::kOk;
  }

  void Step(Rng& rng) {
    Vfs& vfs = *vfs_;
    const std::string& path = pool_[rng.NextBelow(pool_.size())];
    const uint64_t op = rng.NextBelow(100);
    if (op < 18) {
      const bool create = rng.NextBelow(2) == 0;
      const FsResult<int> fd = vfs.Open(path, create);
      if (fd.ok()) {
        fds_.push_back(fd.value);
      }
    } else if (op < 36 && !fds_.empty()) {
      (void)vfs.Read(fds_[rng.NextBelow(fds_.size())], rng.NextBelow(40) * 1024,
                     (1 + rng.NextBelow(24)) * 1024);
    } else if (op < 58 && !fds_.empty()) {
      (void)vfs.Write(fds_[rng.NextBelow(fds_.size())], rng.NextBelow(40) * 1024,
                      (1 + rng.NextBelow(24)) * 1024);
    } else if (op < 64) {
      (void)vfs.Stat(path);
    } else if (op < 70) {
      (void)vfs.CreateFile(path);
    } else if (op < 78) {
      (void)vfs.Unlink(path);
    } else if (op < 82) {
      (void)vfs.Truncate(path, rng.NextBelow(30) * 1024);
    } else if (op < 90 && !fds_.empty()) {
      (void)vfs.Fsync(fds_[rng.NextBelow(fds_.size())]);
    } else if (op < 94 && !fds_.empty()) {
      const size_t idx = rng.NextBelow(fds_.size());
      (void)vfs.Close(fds_[idx]);
      fds_[idx] = fds_.back();
      fds_.pop_back();
    } else {
      vfs.SyncAll();
    }
  }

 private:
  Vfs* vfs_;
  std::vector<std::string> dirs_;
  std::vector<std::string> pool_;
  std::vector<int> fds_;
};

// Small cache (1 MiB, jitter-free) so writeback — and with it checkpoint
// reclaim — runs constantly, as on a loaded machine.
std::unique_ptr<Machine> SmallCacheExt3(uint64_t seed, JournalMode mode) {
  MachineConfig config;
  config.ram = 103 * kMiB;
  config.os_reserved = 102 * kMiB;
  config.os_reserve_jitter = 0;
  config.journal.mode = mode;
  config.seed = seed;
  return std::make_unique<Machine>(FsKind::kExt3, config);
}

class JournalEquivalence
    : public ::testing::TestWithParam<std::tuple<JournalMode, uint64_t>> {};

TEST_P(JournalEquivalence, NewLogMatchesPreRefactorJournalByteForByte) {
  const auto [mode, seed] = GetParam();
  constexpr int kSteps = 4000;

  // Stock machine: JbdJournal over the transaction log, checkpoint sink
  // wired — the production configuration.
  std::unique_ptr<Machine> stock = SmallCacheExt3(seed, mode);

  // Twin machine with the journal swapped for the pre-refactor oracle.
  std::unique_ptr<Machine> old = SmallCacheExt3(seed, mode);
  auto& ext3 = dynamic_cast<Ext3Fs&>(old->fs());
  JournalConfig journal_config;
  journal_config.mode = mode;
  ext3.AttachJournal(std::make_unique<ReferenceJournal>(
      &old->scheduler(), &old->clock(), ext3.journal_region(), journal_config));

  TraceDriver stock_driver(&stock->vfs());
  TraceDriver old_driver(&old->vfs());
  ASSERT_EQ(stock_driver.Setup(), FsStatus::kOk);
  ASSERT_EQ(old_driver.Setup(), FsStatus::kOk);

  Rng stock_rng(seed * 977);
  Rng old_rng(seed * 977);
  for (int step = 0; step < kSteps; ++step) {
    stock_driver.Step(stock_rng);
    old_driver.Step(old_rng);
    ASSERT_EQ(stock->clock().now(), old->clock().now()) << "step " << step;
  }

  // The strongest checks: any divergence in commit timing, write ordering
  // or checkpoint-induced extra I/O lands in one of these.
  EXPECT_EQ(stock->clock().now(), old->clock().now());
  EXPECT_EQ(stock->vfs().stats(), old->vfs().stats());
  EXPECT_EQ(stock->disk().stats(), old->disk().stats());
  EXPECT_EQ(stock->scheduler().stats(), old->scheduler().stats());
  EXPECT_EQ(stock->fs().journal()->stats(), old->fs().journal()->stats());

  // And the refactor's whole point: the stock log did all that while also
  // keeping its accounting — no stall, space bounded, transactions
  // reclaimed as writeback confirmed their home blocks.
  const TxnLog* log = stock->fs().journal()->txn_log();
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->stats().log_stalls, 0u);
  EXPECT_GT(log->stats().reclaimed_txns, 0u);
  EXPECT_LE(log->stats().max_used_blocks, log->capacity_blocks());

  std::string error;
  EXPECT_TRUE(stock->fs().CheckConsistency(&error)) << error;
}

INSTANTIATE_TEST_SUITE_P(
    Traces, JournalEquivalence,
    ::testing::Values(std::make_tuple(JournalMode::kOrdered, 41ULL),
                      std::make_tuple(JournalMode::kOrdered, 42ULL),
                      std::make_tuple(JournalMode::kJournaled, 43ULL)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == JournalMode::kOrdered ? "ordered"
                                                                          : "journaled") +
             "_s" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace fsbench
