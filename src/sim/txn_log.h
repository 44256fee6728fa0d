// Generic write-ahead transaction log with checkpointing.
//
// This is the mechanism layer under every journaled file system in the
// simulator: an on-disk circular region, an explicit transaction lifecycle
// (open transaction -> logged blocks in insertion order -> descriptor +
// commit record written sequentially at the head), and real log-space
// accounting. Space held by a committed transaction is reclaimed only after
// its home-location blocks have been written back (checkpointing); when the
// region fills before checkpointing catches up, the committing caller
// *stalls* until forced checkpoint writeback completes — the ext3 fsync
// cliff the paper's latency dimension is about.
//
// Clients (JbdJournal for ext3, CilJournal for XFS delayed logging — see
// journal.h) own policy: what joins a transaction and when commits happen.
// The running transaction is the only place an uncommitted block lives.
// The log itself also keeps the bookkeeping crash recovery needs:
// per-transaction home references, the log extent each commit
// occupied, the commit record's block, and an operation watermark, so a
// crash injected at any virtual time can be resolved into "replay these
// committed-but-uncheckpointed transactions, discard that torn tail"
// (see recovery.h).
#ifndef SRC_SIM_TXN_LOG_H_
#define SRC_SIM_TXN_LOG_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/types.h"

namespace fsbench {

struct TxnLogStats {
  uint64_t commits = 0;
  uint64_t blocks_logged = 0;        // home blocks copied into the log
  uint64_t reclaimed_txns = 0;       // transactions whose log space was freed
  uint64_t forced_checkpoints = 0;   // checkpoints that blocked a commit
  uint64_t background_checkpoints = 0;  // threshold-triggered async requests
  uint64_t checkpoint_writes = 0;    // home writes submitted by checkpoints
  uint64_t log_stalls = 0;           // commits that waited for log space
  Nanos stall_time = 0;              // virtual time spent in those waits
  uint64_t split_commits = 0;        // oversized transactions chunked
  uint64_t max_used_blocks = 0;      // high-water mark of log occupancy
};

// Checkpoint writeback provider, implemented by the VFS: writes back the
// cache page behind each ref if it is still dirty (asynchronously, at `now`).
// Returns the number of pages actually submitted. Pages already clean,
// evicted or invalidated cost nothing — their current content is on disk or
// moot, which is exactly real JBD checkpointing (it waits for buffer
// writeback rather than re-writing buffers itself).
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual size_t WritebackForCheckpoint(const MetaRef* refs, size_t count, Nanos now) = 0;
};

class TxnLog {
 public:
  // Background checkpoint writeback is requested when the log is more than
  // this fraction full (JBD's "start flushing before you hit the wall").
  static constexpr double kCheckpointThreshold = 0.75;

  // `region` is the reserved on-disk area, in log blocks of `block_sectors`
  // sectors (the file system's block size).
  TxnLog(BlockIo* io, VirtualClock* clock, Extent region, uint32_t block_sectors);

  // Rebinds the clock "now" is read from (per-thread cursor under the MT
  // engine, via Journal::BindClock).
  void BindClock(VirtualClock* clock) { clock_ = clock; }
  void set_checkpoint_sink(CheckpointSink* sink) { sink_ = sink; }

  // --- Transaction lifecycle ---

  // Adds a home-block reference to the running transaction; duplicates
  // within the transaction coalesce (one log copy per block per commit).
  void Add(const MetaRef& ref);

  // Commits the running transaction: descriptor + logged blocks + commit
  // record written sequentially at the head. `sync` waits for the commit
  // record to reach the platter and returns its completion time (otherwise
  // returns the caller's current time). Stalls first — advancing the bound
  // clock — if the log lacks space and checkpointing must be forced. An
  // empty transaction is free and writes nothing.
  Nanos Commit(bool sync);

  // Aborts the log (errors=remount-ro path): Add and Commit become no-ops.
  // Deliberately sets a flag and nothing else — the abort fires re-entrantly
  // from the write-error sink *inside* a commit's own failed log write, so
  // mutating current_tx_/records_ here would pull state out from under the
  // committing frame.
  void Abort() { aborted_ = true; }
  bool aborted() const { return aborted_; }

  // --- Checkpoint coupling ---

  // The VFS reports every home block that no longer needs checkpointing:
  // its page was written back to its home location, or the block was freed
  // (unlink, truncate — JBD's revoke records play this role) and its
  // logged content is moot. A committed transaction whose home blocks have
  // all been reported since its commit no longer needs the log, and its
  // tail space is reclaimed lazily.
  void NoteHomeWrite(BlockId block) { home_write_event_[block] = ++event_counter_; }

  // --- Crash-recovery bookkeeping ---

  // Operation watermark for the running transaction: all workload operations
  // with index <= `op` have fully logged their updates. Set by the engine at
  // operation boundaries when crash tracking is on; a commit that happens
  // mid-operation inherits the last boundary (never overstating coverage).
  void SetOpWatermark(uint64_t op) { op_watermark_ = op; }

  // Keep full per-transaction records (including home refs of checkpointed
  // transactions) so a crash can be resolved later. Off by default: without
  // it, records are dropped as their space is reclaimed.
  void set_retain_history(bool retain) { retain_history_ = retain; }

  // One committed transaction, in commit order.
  struct TxnRecord {
    uint64_t log_start = 0;   // offset of the descriptor within the region
    uint64_t log_blocks = 0;  // descriptor + home copies + commit record
    BlockId commit_block = kInvalidBlock;  // device block of the commit record
    uint64_t watermark = 0;   // ops fully covered by this commit
    uint64_t commit_event = 0;
    bool checkpointed = false;
    std::vector<MetaRef> home;  // home-location targets, insertion order
    size_t clean_prefix = 0;    // home[0..clean_prefix) confirmed written back
  };

  // Committed transactions not yet dropped: in crash-tracking mode the full
  // history, otherwise only live (un-checkpointed) ones.
  const std::deque<TxnRecord>& records() const { return records_; }

  // --- Introspection ---

  size_t pending_blocks() const { return current_tx_.size(); }
  uint64_t used_blocks() const { return used_blocks_; }
  uint64_t capacity_blocks() const { return region_.count; }
  const Extent& region() const { return region_; }
  const TxnLogStats& stats() const { return stats_; }

 private:
  // Releases the oldest live transaction's log space and marks it
  // checkpointed (record dropped unless history is retained).
  void ReclaimFront();

  // Frees the space of leading transactions whose home blocks have all been
  // written back since they committed.
  void ReclaimCleanTail();

  // True once every home block of `txn` has a home write event newer than
  // the commit; resumes scanning where the last call stopped.
  bool TxnIsClean(TxnRecord& txn);

  // Makes room for a transaction needing `blocks` log blocks, forcing
  // checkpoint writeback (and stalling the bound clock) if reclaim alone is
  // not enough. `blocks` must be <= capacity.
  void EnsureSpace(uint64_t blocks);

  // Writes one committed chunk (descriptor + `count` home copies + commit
  // record) at the head. Returns the commit record's completion for sync.
  Nanos WriteChunk(const MetaRef* refs, uint64_t count, bool sync);

  BlockIo* io_;
  VirtualClock* clock_;
  Extent region_;
  uint32_t block_sectors_;
  CheckpointSink* sink_ = nullptr;

  uint64_t head_block_ = 0;   // next write offset within the region, wraps
  uint64_t used_blocks_ = 0;  // blocks held by live transactions
  size_t live_begin_ = 0;     // first un-checkpointed record in records_

  // Determinism audit (detlint R1): current_set_ and home_write_event_ are
  // lookup/insert-only — never iterated. Everything order-bearing (the log
  // itself, commit records) lives in current_tx_/records_, which keep
  // insertion order.
  std::vector<MetaRef> current_tx_;           // insertion order
  std::unordered_set<BlockId> current_set_;   // dedup within the transaction

  // Monotone event counter ordering commits against home writebacks; clock
  // cursors are not monotone across threads, events are.
  uint64_t event_counter_ = 0;
  std::unordered_map<BlockId, uint64_t> home_write_event_;

  uint64_t op_watermark_ = 0;
  bool aborted_ = false;
  bool retain_history_ = false;
  std::deque<TxnRecord> records_;
  TxnLogStats stats_;
};

}  // namespace fsbench

#endif  // SRC_SIM_TXN_LOG_H_
