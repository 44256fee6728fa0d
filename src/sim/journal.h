// Journal clients over the generic transaction log (txn_log.h).
//
// `Journal` is the interface the VFS drives: meta-data (and, in kJournaled
// mode, data) blocks dirtied by an operation join the running transaction;
// commits happen periodically or synchronously on fsync, and the VFS reports
// home-location writebacks so the log can checkpoint. Both clients keep an
// uncommitted block in one place only, the log's running transaction, and
// differ only in when they commit it:
//
//   - JbdJournal (ext3): commits every 5 s (the kjournald timer) or on
//     fsync; each commit writes descriptor + logged blocks + commit record
//     into the log region — JBD's compound-transaction model.
//   - CilJournal (XFS delayed logging): the running transaction plays the
//     Committed Item List. It is pushed every 30 s (the xfs log timer), on
//     fsync, or once it holds kPushBlocks distinct blocks, so a block
//     re-dirtied between pushes costs one log copy per push.
#ifndef SRC_SIM_JOURNAL_H_
#define SRC_SIM_JOURNAL_H_

#include <cstdint>

#include "src/sim/clock.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/txn_log.h"
#include "src/sim/types.h"

namespace fsbench {

enum class JournalMode : uint8_t {
  kOrdered,    // meta-data only (ext3 default)
  kJournaled,  // data + meta-data
};

struct JournalStats {
  uint64_t commits = 0;
  uint64_t sync_commits = 0;
  uint64_t blocks_logged = 0;
  uint64_t cil_inserts = 0;  // deltas CilJournal logged
  uint64_t cil_pushes = 0;   // CilJournal pushes of a non-empty transaction

  bool operator==(const JournalStats& other) const = default;
};

// Client interface the VFS (and the machine wiring) programs against.
class Journal {
 public:
  explicit Journal(JournalMode mode) : mode_(mode) {}
  virtual ~Journal() = default;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Rebinds the clock the journal reads "now" from. The multi-thread engine
  // points this at the acting thread's cursor around every step, so commit
  // timing follows the thread that triggered it.
  virtual void BindClock(VirtualClock* clock) = 0;

  // Adds a dirtied meta-data page to the running transaction.
  virtual void LogMetadata(const MetaRef& ref) = 0;

  // Adds a data page; no-op unless mode == kJournaled.
  virtual void LogData(const MetaRef& ref) = 0;

  // Commits the running transaction asynchronously if the commit interval
  // has elapsed. Called opportunistically from the VFS on every operation.
  virtual void MaybePeriodicCommit() = 0;

  // Synchronous commit (fsync path): the returned completion time reflects
  // waiting for the journal writes to reach the platter.
  virtual Nanos CommitSync() = 0;

  // The VFS reports every home block that no longer needs checkpointing —
  // written back to its home location, or freed without writeback (the
  // revoke-record role); reclaim frees log space from transactions whose
  // home blocks have all been reported since their commit.
  virtual void NoteHomeWrite(BlockId block) = 0;

  virtual size_t pending_blocks() const = 0;

  // The backing transaction log, for log-space/stall introspection and
  // crash recovery. Null for journal implementations without one (e.g. the
  // retained pre-refactor reference in tests).
  virtual TxnLog* txn_log() { return nullptr; }
  const TxnLog* txn_log() const { return const_cast<Journal*>(this)->txn_log(); }

  // Wires the checkpoint writeback provider (the VFS); attached by the
  // machine after the VFS exists.
  virtual void set_checkpoint_sink(CheckpointSink* sink) { (void)sink; }

  // Aborts the journal (errors=remount-ro): further logging and commits
  // become no-ops. Flag-setting only — the abort may fire re-entrantly from
  // a failed log write inside a commit (see TxnLog::Abort).
  virtual void Abort() {
    aborted_ = true;
    if (TxnLog* log = txn_log(); log != nullptr) {
      log->Abort();
    }
  }
  bool aborted() const { return aborted_; }

  // Crash bookkeeping: workload operations with index <= `op` have fully
  // logged their updates (engine-set at op boundaries in crash mode).
  void SetOpWatermark(uint64_t op) {
    if (TxnLog* log = txn_log(); log != nullptr) {
      log->SetOpWatermark(op);
    }
  }

  const JournalStats& stats() const { return stats_; }

 protected:
  JournalMode mode_;
  JournalStats stats_;
  bool aborted_ = false;
};

// Ext3's JBD-flavoured client: every logged block goes straight into the
// log's running transaction. The overrides are defined out of line in
// journal.cc: an inline overrider lets GCC speculatively devirtualize and
// inline journal calls into the VFS's hot paths.
class JbdJournal : public Journal {
 public:
  static constexpr Nanos kCommitInterval = 5 * kSecond;  // kjournald

  // `region` is the reserved on-disk area the log wraps around in, in
  // file-system blocks of `block_sectors` sectors each.
  JbdJournal(BlockIo* io, VirtualClock* clock, Extent region, uint32_t block_sectors,
             JournalMode mode);

  void BindClock(VirtualClock* clock) override;
  void LogMetadata(const MetaRef& ref) override;
  void LogData(const MetaRef& ref) override;
  void MaybePeriodicCommit() override;
  Nanos CommitSync() override;
  void NoteHomeWrite(BlockId block) override;
  size_t pending_blocks() const override;
  TxnLog* txn_log() override;
  void set_checkpoint_sink(CheckpointSink* sink) override;

 protected:
  JbdJournal(BlockIo* io, VirtualClock* clock, Extent region, uint32_t block_sectors,
             JournalMode mode, Nanos commit_interval);

  // Commits the running transaction (empty = free), keeps the stats, and
  // advances the monotone commit clock — a trailing thread cursor must never
  // regress the periodic-commit timer (the cursors themselves are not
  // monotone across threads).
  virtual Nanos Commit(bool sync);

  VirtualClock* clock_;
  TxnLog log_;

 private:
  Nanos commit_interval_;
  Nanos last_commit_time_ = 0;
};

// XFS delayed logging: the same running transaction, pushed on the xfs log
// timer or once it holds kPushBlocks distinct blocks.
class CilJournal : public JbdJournal {
 public:
  static constexpr Nanos kCommitInterval = 30 * kSecond;  // the xfs log timer
  static constexpr uint64_t kPushBlocks = 1024;

  CilJournal(BlockIo* io, VirtualClock* clock, Extent region, uint32_t block_sectors,
             JournalMode mode);

  // Counts the delta and pushes once the transaction reaches kPushBlocks.
  // An aborted journal logs nothing.
  void LogMetadata(const MetaRef& ref) override;

 protected:
  // Counts a push of a non-empty transaction into a live log.
  Nanos Commit(bool sync) override;
};

}  // namespace fsbench

#endif  // SRC_SIM_JOURNAL_H_
