// Durable-vs-volatile block state for crash injection.
//
// The DiskModel is a timing oracle and the FileSystem is in-memory
// bookkeeping; neither knows, at a given virtual instant, which writes had
// actually reached the platter. ShadowDisk closes that gap: registered as
// the IoScheduler's completion observer, it records the completion time of
// the latest write covering each file-system block. A crash injected at
// virtual time T then partitions the write history exactly — a block is
// durable iff its last write completed at or before T — which is what
// mount-time recovery (recovery.h) uses to tell replayable transactions
// from torn tails.
#ifndef SRC_SIM_SHADOW_DISK_H_
#define SRC_SIM_SHADOW_DISK_H_

#include <cstdint>
#include <unordered_map>

#include "src/sim/io_scheduler.h"
#include "src/sim/types.h"

namespace fsbench {

class ShadowDisk : public IoCompletionObserver {
 public:
  explicit ShadowDisk(uint32_t sectors_per_block) : sectors_per_block_(sectors_per_block) {}

  void OnIoComplete(const IoRequest& req, Nanos completion, bool ok) override;

  // Whether `block`'s latest write had completed by `t`. A never-written
  // block reports false: callers asking about it care about a write they
  // know was issued logically (e.g. a journal commit record), so absence
  // means the write never made it.
  bool DurableBy(BlockId block, Nanos t) const {
    const auto it = last_write_completion_.find(block);
    return it != last_write_completion_.end() && it->second <= t;
  }

  // Blocks whose latest write completes after `t`: in flight at the crash.
  // The reduction below is a pure count — invariant under the map's
  // iteration order — which is what the annotation asserts.
  uint64_t VolatileCount(Nanos t) const {
    uint64_t count = 0;
    // detlint: order-insensitive
    for (const auto& [block, completion] : last_write_completion_) {
      if (completion > t) {
        ++count;
      }
    }
    return count;
  }

  size_t tracked_blocks() const { return last_write_completion_.size(); }

 private:
  uint32_t sectors_per_block_;
  std::unordered_map<BlockId, Nanos> last_write_completion_;
};

}  // namespace fsbench

#endif  // SRC_SIM_SHADOW_DISK_H_
