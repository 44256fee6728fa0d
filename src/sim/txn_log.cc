#include "src/sim/txn_log.h"

#include <algorithm>
#include <cassert>

namespace fsbench {

TxnLog::TxnLog(BlockIo* io, VirtualClock* clock, Extent region, uint32_t block_sectors)
    : io_(io), clock_(clock), region_(region), block_sectors_(block_sectors) {
  // A log must at least hold a descriptor, one home copy and a commit record.
  assert(region_.count >= 3);
}

void TxnLog::Add(const MetaRef& ref) {
  if (aborted_) {
    return;
  }
  if (current_set_.insert(ref.block).second) {
    current_tx_.push_back(ref);
  }
}

bool TxnLog::TxnIsClean(TxnRecord& txn) {
  while (txn.clean_prefix < txn.home.size()) {
    const auto it = home_write_event_.find(txn.home[txn.clean_prefix].block);
    if (it == home_write_event_.end() || it->second < txn.commit_event) {
      return false;
    }
    ++txn.clean_prefix;
  }
  return true;
}

void TxnLog::ReclaimFront() {
  TxnRecord& txn = records_[live_begin_];
  used_blocks_ -= txn.log_blocks;
  txn.checkpointed = true;
  ++stats_.reclaimed_txns;
  if (retain_history_) {
    ++live_begin_;
  } else {
    records_.pop_front();
  }
}

void TxnLog::ReclaimCleanTail() {
  while (live_begin_ < records_.size()) {
    if (!TxnIsClean(records_[live_begin_])) {
      return;
    }
    ReclaimFront();
  }
}

void TxnLog::EnsureSpace(uint64_t blocks) {
  assert(blocks <= region_.count);
  ReclaimCleanTail();
  if (region_.count - used_blocks_ >= blocks) {
    return;
  }
  // Log full: force checkpoint writeback of the oldest live transactions
  // until the incoming one fits, then wait for the device to drain — the
  // stall applications feel as the ext3 fsync cliff.
  ++stats_.log_stalls;
  ++stats_.forced_checkpoints;
  const Nanos stall_start = clock_->now();
  while (live_begin_ < records_.size() && region_.count - used_blocks_ < blocks) {
    TxnRecord& txn = records_[live_begin_];
    if (sink_ != nullptr && txn.clean_prefix < txn.home.size()) {
      stats_.checkpoint_writes += sink_->WritebackForCheckpoint(
          txn.home.data() + txn.clean_prefix, txn.home.size() - txn.clean_prefix,
          clock_->now());
    }
    // After the drain below, every submitted home write is on the platter;
    // blocks with no dirty page left (already written back, evicted, or
    // invalidated) need nothing. Either way the log copy is obsolete.
    txn.clean_prefix = txn.home.size();
    ReclaimFront();
  }
  clock_->AdvanceTo(io_->Drain(clock_->now()));
  stats_.stall_time += clock_->now() - stall_start;
  assert(region_.count - used_blocks_ >= blocks);
}

Nanos TxnLog::WriteChunk(const MetaRef* refs, uint64_t count, bool sync) {
  // Descriptor block + home copies + commit record, written sequentially at
  // the head (wrapping). Sequential writes are nearly free on the disk
  // model, as on real hardware — which is exactly why journaling costs show
  // up in meta-data benchmarks but not in read benchmarks.
  const uint64_t blocks_to_write = count + 2;
  Nanos completion = clock_->now();
  for (uint64_t i = 0; i < blocks_to_write; ++i) {
    const uint64_t offset = (head_block_ + i) % region_.count;
    const IoRequest req{IoKind::kWrite, (region_.start + offset) * block_sectors_,
                        block_sectors_, /*meta=*/true};
    if (sync && i + 1 == blocks_to_write) {
      // Only the commit record is waited on.
      if (const auto done = io_->SubmitSync(req, clock_->now()); done.has_value()) {
        completion = *done;
      }
    } else {
      // A full device queue stalls the committing thread like any producer.
      clock_->AdvanceTo(io_->SubmitAsync(req, clock_->now()));
    }
  }
  TxnRecord record;
  record.log_start = head_block_;
  record.log_blocks = blocks_to_write;
  record.commit_block = region_.start + (head_block_ + blocks_to_write - 1) % region_.count;
  record.watermark = op_watermark_;
  record.commit_event = ++event_counter_;
  record.home.assign(refs, refs + count);
  records_.push_back(std::move(record));
  head_block_ = (head_block_ + blocks_to_write) % region_.count;
  used_blocks_ += blocks_to_write;
  stats_.max_used_blocks = std::max(stats_.max_used_blocks, used_blocks_);
  return completion;
}

Nanos TxnLog::Commit(bool sync) {
  if (aborted_ || current_tx_.empty()) {
    return clock_->now();
  }
  // A transaction larger than the log region cannot exist on disk: it is
  // committed in segments that each fit, with a forced checkpoint between
  // them (a massive stall by design — the old journal silently wrapped the
  // head over its own tail here).
  const uint64_t max_payload = region_.count - 2;
  if (current_tx_.size() > max_payload) {
    ++stats_.split_commits;
  }
  Nanos completion = clock_->now();
  size_t offset = 0;
  while (offset < current_tx_.size()) {
    const uint64_t count =
        std::min<uint64_t>(current_tx_.size() - offset, max_payload);
    EnsureSpace(count + 2);
    const bool last = offset + count == current_tx_.size();
    completion = WriteChunk(current_tx_.data() + offset, count, sync && last);
    offset += count;
    if (aborted_) {
      // A log write inside WriteChunk failed permanently and the write-error
      // sink aborted us re-entrantly; stop writing chunks to a dead log.
      break;
    }
  }
  stats_.blocks_logged += current_tx_.size();
  ++stats_.commits;
  current_tx_.clear();
  current_set_.clear();
  // Over the pressure threshold: ask for background writeback of the oldest
  // live transaction's pending home blocks so reclaim can catch up without
  // ever reaching the forced-stall path. No waiting here.
  if (sink_ != nullptr &&
      static_cast<double>(used_blocks_) >
          kCheckpointThreshold * static_cast<double>(region_.count)) {
    ReclaimCleanTail();
    if (live_begin_ < records_.size() &&
        static_cast<double>(used_blocks_) >
            kCheckpointThreshold * static_cast<double>(region_.count)) {
      TxnRecord& txn = records_[live_begin_];
      if (txn.clean_prefix < txn.home.size()) {
        ++stats_.background_checkpoints;
        stats_.checkpoint_writes += sink_->WritebackForCheckpoint(
            txn.home.data() + txn.clean_prefix, txn.home.size() - txn.clean_prefix,
            clock_->now());
      }
    }
  }
  return completion;
}

}  // namespace fsbench
