// Bitmap block allocator with block groups.
//
// Models the allocation behaviour that determines on-disk layout quality:
// goal-directed first-fit inside a block group (ext2-style locality), with
// spill-over to other groups when the goal group is full. Contiguous extent
// allocation serves the extent-based file system.
#ifndef SRC_SIM_BLOCK_ALLOCATOR_H_
#define SRC_SIM_BLOCK_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/types.h"

namespace fsbench {

struct BlockAllocatorStats {
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t goal_hits = 0;   // allocated exactly at the requested goal
  uint64_t group_spills = 0;  // had to leave the goal's group
};

class BlockAllocator {
 public:
  // `total_blocks` device blocks split into groups of `group_blocks`.
  BlockAllocator(uint64_t total_blocks, uint64_t group_blocks);

  // Allocates one block, preferring `goal`, then the goal's group, then
  // other groups. Returns std::nullopt when the device is full.
  std::optional<BlockId> AllocateBlock(BlockId goal);

  // Allocates a contiguous run of between min_count and max_count blocks
  // near `goal`. Prefers the longest run up to max_count it can find in the
  // goal group, then scans other groups; returns std::nullopt if no run of
  // at least min_count exists anywhere.
  std::optional<Extent> AllocateExtent(BlockId goal, uint64_t min_count, uint64_t max_count);

  // Marks a range allocated at mkfs time (superblock, inode tables, journal).
  // Requires the range to be entirely free.
  void ReserveRange(const Extent& extent);

  void Free(const Extent& extent);

  bool IsAllocated(BlockId block) const;
  uint64_t total_blocks() const { return total_blocks_; }
  uint64_t used_blocks() const { return used_; }
  uint64_t free_blocks() const { return total_blocks_ - used_; }
  uint64_t group_count() const { return group_free_.size(); }
  uint64_t GroupOf(BlockId block) const { return block / group_blocks_; }
  const BlockAllocatorStats& stats() const { return stats_; }

  // Verifies the per-group free counters against the bitmap (fsck helper).
  bool CheckInvariants() const;

 private:
  bool TestBit(BlockId block) const;
  void SetBit(BlockId block);
  void ClearBit(BlockId block);
  // First free block in [from, to), or kInvalidBlock.
  BlockId FindFree(BlockId from, BlockId to) const;
  // Longest free run starting at or after `from` within [from, to), capped
  // at max_count. Returns count 0 when none.
  Extent FindRun(BlockId from, BlockId to, uint64_t min_count, uint64_t max_count) const;

  uint64_t total_blocks_;
  uint64_t group_blocks_;
  std::vector<uint64_t> bitmap_;
  std::vector<uint64_t> group_free_;
  uint64_t used_ = 0;
  BlockAllocatorStats stats_;
};

}  // namespace fsbench

#endif  // SRC_SIM_BLOCK_ALLOCATOR_H_
