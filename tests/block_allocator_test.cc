#include "src/sim/block_allocator.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "src/util/rng.h"

namespace fsbench {
namespace {

TEST(BlockAllocatorTest, AllocatesAtGoalWhenFree) {
  BlockAllocator alloc(1024, 256);
  const auto block = alloc.AllocateBlock(100);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 100u);
  EXPECT_TRUE(alloc.IsAllocated(100));
  EXPECT_EQ(alloc.used_blocks(), 1u);
}

TEST(BlockAllocatorTest, ScansForwardWithinGroup) {
  BlockAllocator alloc(1024, 256);
  ASSERT_TRUE(alloc.AllocateBlock(100).has_value());
  const auto next = alloc.AllocateBlock(100);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 101u);
  EXPECT_EQ(alloc.GroupOf(*next), alloc.GroupOf(100));
}

TEST(BlockAllocatorTest, WrapsWithinGroupBeforeSpilling) {
  BlockAllocator alloc(1024, 256);
  // Fill group 0 except block 3.
  for (uint64_t b = 0; b < 256; ++b) {
    if (b != 3) {
      alloc.ReserveRange(Extent{b, 1});
    }
  }
  const auto block = alloc.AllocateBlock(200);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 3u);
}

TEST(BlockAllocatorTest, SpillsToNearestGroup) {
  BlockAllocator alloc(1024, 256);
  alloc.ReserveRange(Extent{256, 256});  // group 1 full
  const auto block = alloc.AllocateBlock(300);
  ASSERT_TRUE(block.has_value());
  const uint64_t group = alloc.GroupOf(*block);
  EXPECT_TRUE(group == 0 || group == 2) << group;
  EXPECT_EQ(alloc.stats().group_spills, 1u);
}

TEST(BlockAllocatorTest, FullDeviceReturnsNullopt) {
  BlockAllocator alloc(64, 64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(alloc.AllocateBlock(0).has_value());
  }
  EXPECT_FALSE(alloc.AllocateBlock(0).has_value());
}

TEST(BlockAllocatorTest, FreeMakesBlocksReusable) {
  BlockAllocator alloc(64, 64);
  const auto block = alloc.AllocateBlock(10);
  ASSERT_TRUE(block.has_value());
  alloc.Free(Extent{*block, 1});
  EXPECT_FALSE(alloc.IsAllocated(*block));
  EXPECT_EQ(alloc.used_blocks(), 0u);
  const auto again = alloc.AllocateBlock(10);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *block);
}

TEST(BlockAllocatorTest, ExtentAllocationIsContiguous) {
  BlockAllocator alloc(1024, 256);
  const auto extent = alloc.AllocateExtent(50, 4, 16);
  ASSERT_TRUE(extent.has_value());
  EXPECT_GE(extent->count, 4u);
  EXPECT_LE(extent->count, 16u);
  for (uint64_t b = extent->start; b < extent->start + extent->count; ++b) {
    EXPECT_TRUE(alloc.IsAllocated(b));
  }
}

TEST(BlockAllocatorTest, ExtentRespectsMinCount) {
  BlockAllocator alloc(64, 64);
  // Fragment the space: allocate every other block.
  for (uint64_t b = 0; b < 64; b += 2) {
    alloc.ReserveRange(Extent{b, 1});
  }
  EXPECT_FALSE(alloc.AllocateExtent(0, 2, 8).has_value());
  const auto single = alloc.AllocateExtent(0, 1, 8);
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->count, 1u);
}

TEST(BlockAllocatorTest, TrailingShortGroupAccounting) {
  BlockAllocator alloc(300, 128);  // groups: 128, 128, 44
  EXPECT_EQ(alloc.group_count(), 3u);
  EXPECT_TRUE(alloc.CheckInvariants());
  // Fill the trailing group entirely.
  for (int i = 0; i < 44; ++i) {
    ASSERT_TRUE(alloc.AllocateBlock(299).has_value());
  }
  EXPECT_TRUE(alloc.CheckInvariants());
}

class AllocatorPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorPropertySweep, RandomAllocFreeKeepsInvariants) {
  BlockAllocator alloc(2048, 256);
  Rng rng(GetParam());
  std::set<BlockId> owned;
  for (int step = 0; step < 4000; ++step) {
    if (rng.NextDouble() < 0.6 || owned.empty()) {
      const auto block = alloc.AllocateBlock(rng.NextBelow(2048));
      if (block.has_value()) {
        ASSERT_TRUE(owned.insert(*block).second) << "double allocation";
      }
    } else {
      auto it = owned.begin();
      std::advance(it, rng.NextBelow(owned.size()));
      alloc.Free(Extent{*it, 1});
      owned.erase(it);
    }
  }
  EXPECT_EQ(alloc.used_blocks(), owned.size());
  EXPECT_TRUE(alloc.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertySweep, ::testing::Values(1, 2, 3, 4, 5, 6));

// Groups that do not line up with the bitmap's 64-bit words: CheckInvariants
// counts each group a word at a time, so a group shares its first and last
// words with its neighbours. 1,050 blocks in 100-block groups end in a
// 50-block group; 530 in 24-block groups have groups inside one word, groups
// across two, and a 2-block tail.
class UnalignedGroupSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnalignedGroupSweep, RandomAllocFreeKeepsInvariants) {
  for (const auto& [total, group] : {std::pair<uint64_t, uint64_t>{1050, 100}, {530, 24}}) {
    SCOPED_TRACE(testing::Message() << total << " blocks in groups of " << group);
    BlockAllocator alloc(total, group);
    ASSERT_TRUE(alloc.CheckInvariants());
    Rng rng(GetParam());
    std::set<BlockId> owned;
    for (int step = 0; step < 3000; ++step) {
      if (rng.NextDouble() < 0.6 || owned.empty()) {
        const auto block = alloc.AllocateBlock(rng.NextBelow(total));
        if (block.has_value()) {
          ASSERT_TRUE(owned.insert(*block).second) << "double allocation";
        }
      } else {
        auto it = owned.begin();
        std::advance(it, rng.NextBelow(owned.size()));
        alloc.Free(Extent{*it, 1});
        owned.erase(it);
      }
      if (step % 10 == 0) {
        ASSERT_TRUE(alloc.CheckInvariants()) << "step " << step;
      }
    }
    EXPECT_EQ(alloc.used_blocks(), owned.size());
    EXPECT_TRUE(alloc.CheckInvariants());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnalignedGroupSweep, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace fsbench
