#include "src/sim/journal.h"

#include <algorithm>

namespace fsbench {

// --- JbdJournal --------------------------------------------------------------

JbdJournal::JbdJournal(BlockIo* io, VirtualClock* clock, Extent region, uint32_t block_sectors,
                       JournalMode mode)
    : JbdJournal(io, clock, region, block_sectors, mode, kCommitInterval) {}

JbdJournal::JbdJournal(BlockIo* io, VirtualClock* clock, Extent region, uint32_t block_sectors,
                       JournalMode mode, Nanos commit_interval)
    : Journal(mode),
      clock_(clock),
      log_(io, clock, region, block_sectors),
      commit_interval_(commit_interval) {}

void JbdJournal::BindClock(VirtualClock* clock) {
  clock_ = clock;
  log_.BindClock(clock);
}

void JbdJournal::LogMetadata(const MetaRef& ref) { log_.Add(ref); }

void JbdJournal::LogData(const MetaRef& ref) {
  if (mode_ == JournalMode::kJournaled) {
    LogMetadata(ref);
  }
}

void JbdJournal::MaybePeriodicCommit() {
  if (clock_->now() - last_commit_time_ >= commit_interval_) {
    Commit(/*sync=*/false);
  }
}

Nanos JbdJournal::CommitSync() {
  ++stats_.sync_commits;
  return Commit(/*sync=*/true);
}

void JbdJournal::NoteHomeWrite(BlockId block) { log_.NoteHomeWrite(block); }

size_t JbdJournal::pending_blocks() const { return log_.pending_blocks(); }

TxnLog* JbdJournal::txn_log() { return &log_; }

void JbdJournal::set_checkpoint_sink(CheckpointSink* sink) { log_.set_checkpoint_sink(sink); }

Nanos JbdJournal::Commit(bool sync) {
  const uint64_t logged = log_.pending_blocks();
  if (aborted_ || logged == 0) {
    return clock_->now();
  }
  const Nanos completion = log_.Commit(sync);
  stats_.blocks_logged += logged;
  ++stats_.commits;
  last_commit_time_ = std::max(last_commit_time_, clock_->now());
  return completion;
}

// --- CilJournal --------------------------------------------------------------

CilJournal::CilJournal(BlockIo* io, VirtualClock* clock, Extent region, uint32_t block_sectors,
                       JournalMode mode)
    : JbdJournal(io, clock, region, block_sectors, mode, kCommitInterval) {}

void CilJournal::LogMetadata(const MetaRef& ref) {
  if (aborted_) {
    return;
  }
  ++stats_.cil_inserts;
  log_.Add(ref);
  if (log_.pending_blocks() >= kPushBlocks) {
    Commit(/*sync=*/false);
  }
}

Nanos CilJournal::Commit(bool sync) {
  if (!aborted_ && log_.pending_blocks() != 0) {
    ++stats_.cil_pushes;
  }
  return JbdJournal::Commit(sync);
}

}  // namespace fsbench
