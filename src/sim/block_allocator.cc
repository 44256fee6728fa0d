#include "src/sim/block_allocator.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fsbench {

BlockAllocator::BlockAllocator(uint64_t total_blocks, uint64_t group_blocks)
    : total_blocks_(total_blocks), group_blocks_(group_blocks) {
  assert(total_blocks_ > 0);
  assert(group_blocks_ > 0);
  bitmap_.assign((total_blocks_ + 63) / 64, 0);
  const uint64_t groups = (total_blocks_ + group_blocks_ - 1) / group_blocks_;
  group_free_.assign(groups, group_blocks_);
  // The trailing group may be short.
  const uint64_t tail = total_blocks_ % group_blocks_;
  if (tail != 0) {
    group_free_.back() = tail;
  }
}

bool BlockAllocator::TestBit(BlockId block) const {
  return (bitmap_[block / 64] >> (block % 64)) & 1;
}

void BlockAllocator::SetBit(BlockId block) {
  assert(!TestBit(block));
  bitmap_[block / 64] |= 1ULL << (block % 64);
  --group_free_[GroupOf(block)];
  ++used_;
}

void BlockAllocator::ClearBit(BlockId block) {
  assert(TestBit(block));
  bitmap_[block / 64] &= ~(1ULL << (block % 64));
  ++group_free_[GroupOf(block)];
  --used_;
}

BlockId BlockAllocator::FindFree(BlockId from, BlockId to) const {
  to = std::min<BlockId>(to, total_blocks_);
  for (BlockId b = from; b < to;) {
    const uint64_t word = bitmap_[b / 64];
    if (word == ~0ULL) {
      // Skip the rest of a fully allocated word.
      b = (b / 64 + 1) * 64;
      continue;
    }
    if (!((word >> (b % 64)) & 1)) {
      return b;
    }
    ++b;
  }
  return kInvalidBlock;
}

Extent BlockAllocator::FindRun(BlockId from, BlockId to, uint64_t min_count,
                               uint64_t max_count) const {
  to = std::min<BlockId>(to, total_blocks_);
  BlockId b = from;
  while (b < to) {
    const BlockId start = FindFree(b, to);
    if (start == kInvalidBlock) {
      break;
    }
    BlockId end = start;
    while (end < to && end - start < max_count && !TestBit(end)) {
      ++end;
    }
    if (end - start >= min_count) {
      return Extent{start, end - start};
    }
    b = end + 1;
  }
  return Extent{kInvalidBlock, 0};
}

std::optional<BlockId> BlockAllocator::AllocateBlock(BlockId goal) {
  if (used_ == total_blocks_) {
    return std::nullopt;
  }
  goal = std::min<BlockId>(goal, total_blocks_ - 1);
  if (!TestBit(goal)) {
    SetBit(goal);
    ++stats_.allocations;
    ++stats_.goal_hits;
    return goal;
  }
  // Forward scan within the goal group, then wrap within the group.
  const uint64_t group = GroupOf(goal);
  const BlockId group_start = group * group_blocks_;
  const BlockId group_end = std::min<BlockId>(group_start + group_blocks_, total_blocks_);
  if (group_free_[group] > 0) {
    BlockId b = FindFree(goal + 1, group_end);
    if (b == kInvalidBlock) {
      b = FindFree(group_start, goal);
    }
    if (b != kInvalidBlock) {
      SetBit(b);
      ++stats_.allocations;
      return b;
    }
  }
  // Spill to the nearest non-full group (alternating out from the goal).
  ++stats_.group_spills;
  const uint64_t groups = group_free_.size();
  for (uint64_t d = 1; d < groups; ++d) {
    for (const int64_t dir : {1, -1}) {
      const int64_t g = static_cast<int64_t>(group) + dir * static_cast<int64_t>(d);
      if (g < 0 || g >= static_cast<int64_t>(groups) || group_free_[g] == 0) {
        continue;
      }
      const BlockId s = static_cast<BlockId>(g) * group_blocks_;
      const BlockId e = std::min<BlockId>(s + group_blocks_, total_blocks_);
      const BlockId b = FindFree(s, e);
      assert(b != kInvalidBlock);
      SetBit(b);
      ++stats_.allocations;
      return b;
    }
  }
  return std::nullopt;
}

std::optional<Extent> BlockAllocator::AllocateExtent(BlockId goal, uint64_t min_count,
                                                     uint64_t max_count) {
  assert(min_count > 0 && min_count <= max_count);
  if (free_blocks() < min_count) {
    return std::nullopt;
  }
  goal = std::min<BlockId>(goal, total_blocks_ - 1);
  const uint64_t group = GroupOf(goal);
  const BlockId group_start = group * group_blocks_;
  const BlockId group_end = std::min<BlockId>(group_start + group_blocks_, total_blocks_);

  Extent run = FindRun(goal, group_end, min_count, max_count);
  if (run.count == 0) {
    run = FindRun(group_start, group_end, min_count, max_count);
  }
  if (run.count == 0) {
    // Alternating group scan outward from the goal group.
    ++stats_.group_spills;
    const uint64_t groups = group_free_.size();
    for (uint64_t d = 1; d < groups && run.count == 0; ++d) {
      for (const int64_t dir : {1, -1}) {
        const int64_t g = static_cast<int64_t>(group) + dir * static_cast<int64_t>(d);
        if (g < 0 || g >= static_cast<int64_t>(groups) || group_free_[g] < min_count) {
          continue;
        }
        const BlockId s = static_cast<BlockId>(g) * group_blocks_;
        const BlockId e = std::min<BlockId>(s + group_blocks_, total_blocks_);
        run = FindRun(s, e, min_count, max_count);
        if (run.count != 0) {
          break;
        }
      }
    }
  }
  if (run.count == 0) {
    return std::nullopt;
  }
  for (BlockId b = run.start; b < run.start + run.count; ++b) {
    SetBit(b);
  }
  stats_.allocations += run.count;
  if (run.start == goal) {
    ++stats_.goal_hits;
  }
  return run;
}

void BlockAllocator::ReserveRange(const Extent& extent) {
  for (BlockId b = extent.start; b < extent.start + extent.count; ++b) {
    SetBit(b);
  }
}

void BlockAllocator::Free(const Extent& extent) {
  for (BlockId b = extent.start; b < extent.start + extent.count; ++b) {
    ClearBit(b);
  }
  stats_.frees += extent.count;
}

bool BlockAllocator::IsAllocated(BlockId block) const { return TestBit(block); }

bool BlockAllocator::CheckInvariants() const {
  // Allocated blocks in [begin, end), a word at a time. Groups need not be
  // 64-aligned, so the first and last words are masked to the range.
  const auto count_allocated = [this](BlockId begin, BlockId end) {
    const uint64_t first = begin / 64;
    const uint64_t last = (end - 1) / 64;
    const uint64_t first_mask = ~0ULL << (begin % 64);
    const uint64_t last_mask = ~0ULL >> (63 - (end - 1) % 64);
    if (first == last) {
      return static_cast<uint64_t>(std::popcount(bitmap_[first] & first_mask & last_mask));
    }
    uint64_t count = static_cast<uint64_t>(std::popcount(bitmap_[first] & first_mask));
    for (uint64_t w = first + 1; w < last; ++w) {
      count += static_cast<uint64_t>(std::popcount(bitmap_[w]));
    }
    return count + static_cast<uint64_t>(std::popcount(bitmap_[last] & last_mask));
  };
  uint64_t used = 0;
  for (uint64_t g = 0; g < group_free_.size(); ++g) {
    const BlockId begin = g * group_blocks_;
    const BlockId end = std::min<BlockId>(begin + group_blocks_, total_blocks_);
    const uint64_t group_used = count_allocated(begin, end);
    if (group_used + group_free_[g] != end - begin) {
      return false;
    }
    used += group_used;
  }
  return used == used_;
}

}  // namespace fsbench
