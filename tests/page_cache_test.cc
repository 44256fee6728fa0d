#include "src/sim/page_cache.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace fsbench {
namespace {

PageKey Key(InodeId ino, uint64_t index) { return PageKey{ino, index}; }

TEST(PageCacheTest, MissThenHit) {
  PageCache cache(8, EvictionPolicyKind::kLru);
  EXPECT_FALSE(cache.Lookup(Key(1, 0)));
  cache.Insert(Key(1, 0), 100, false);
  EXPECT_TRUE(cache.Lookup(Key(1, 0)));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PageCacheTest, ContainsDoesNotTouchStats) {
  PageCache cache(8, EvictionPolicyKind::kLru);
  cache.Insert(Key(1, 0), 100, false);
  EXPECT_TRUE(cache.Contains(Key(1, 0)));
  EXPECT_FALSE(cache.Contains(Key(1, 1)));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(PageCacheTest, CapacityIsEnforced) {
  PageCache cache(4, EvictionPolicyKind::kLru);
  for (uint64_t i = 0; i < 10; ++i) {
    cache.Insert(Key(1, i), 100 + i, false);
    EXPECT_LE(cache.size(), 4u);
    EXPECT_TRUE(cache.CheckInvariants());
  }
  EXPECT_EQ(cache.stats().evictions, 6u);
}

TEST(PageCacheTest, LruEvictionOrder) {
  PageCache cache(3, EvictionPolicyKind::kLru);
  cache.Insert(Key(1, 0), 0, false);
  cache.Insert(Key(1, 1), 1, false);
  cache.Insert(Key(1, 2), 2, false);
  ASSERT_TRUE(cache.Lookup(Key(1, 0)));  // refresh 0
  const auto evicted = cache.Insert(Key(1, 3), 3, false);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key.index, 1u);  // 1 was LRU
}

TEST(PageCacheTest, EvictedDirtyPagesCarryBlock) {
  PageCache cache(1, EvictionPolicyKind::kLru);
  cache.Insert(Key(1, 0), 777, true);
  const auto evicted = cache.Insert(Key(1, 1), 888, false);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_TRUE(evicted[0].dirty);
  EXPECT_EQ(evicted[0].block, 777u);
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST(PageCacheTest, InsertExistingRefreshesAndMergesDirty) {
  PageCache cache(4, EvictionPolicyKind::kLru);
  cache.Insert(Key(1, 0), 10, false);
  EXPECT_EQ(cache.dirty_count(), 0u);
  cache.Insert(Key(1, 0), 10, true);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.dirty_count(), 1u);
  // Inserting clean over dirty keeps it dirty.
  cache.Insert(Key(1, 0), 10, false);
  EXPECT_EQ(cache.dirty_count(), 1u);
}

TEST(PageCacheTest, MarkDirtyAndTakeDirty) {
  PageCache cache(8, EvictionPolicyKind::kLru);
  cache.Insert(Key(1, 0), 10, false);
  cache.Insert(Key(1, 1), 11, false);
  EXPECT_TRUE(cache.MarkDirty(Key(1, 0)));
  EXPECT_FALSE(cache.MarkDirty(Key(2, 0)));
  // A page cached as a hole needs a block before it can be dirtied.
  cache.Insert(Key(1, 2), kInvalidBlock, false);
  EXPECT_FALSE(cache.MarkDirty(Key(1, 2)));
  EXPECT_EQ(cache.dirty_count(), 1u);
  const auto dirty = cache.TakeDirty(10);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].block, 10u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  // Pages stay resident after TakeDirty.
  EXPECT_TRUE(cache.Contains(Key(1, 0)));
}

TEST(PageCacheTest, TakeDirtyHonoursLimit) {
  PageCache cache(16, EvictionPolicyKind::kLru);
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Insert(Key(1, i), i, true);
  }
  EXPECT_EQ(cache.TakeDirty(3).size(), 3u);
  EXPECT_EQ(cache.dirty_count(), 5u);
}

TEST(PageCacheTest, RemoveFileDropsAllItsPages) {
  PageCache cache(16, EvictionPolicyKind::kLru);
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Insert(Key(1, i), i, i % 2 == 0);
    cache.Insert(Key(2, i), 100 + i, false);
  }
  cache.RemoveRange(1, 0, 4);
  EXPECT_EQ(cache.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(cache.Contains(Key(1, i)));
    EXPECT_TRUE(cache.Contains(Key(2, i)));
  }
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PageCacheTest, ClearEmptiesEverything) {
  PageCache cache(16, EvictionPolicyKind::kLru);
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Insert(Key(1, i), i, true);
  }
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PageCacheTest, MetaAndDataKeysCoexist) {
  PageCache cache(8, EvictionPolicyKind::kLru);
  cache.Insert(Key(kMetaInode, 500), 500, false);
  cache.Insert(Key(1, 500), 900, false);
  EXPECT_TRUE(cache.Contains(Key(kMetaInode, 500)));
  EXPECT_TRUE(cache.Contains(Key(1, 500)));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PageCacheTest, TakeDirtyIsFifoInFirstDirtiedOrder) {
  // Regression: writeback order used to follow unordered_map iteration
  // order, which varies by stdlib. The dirty chain makes it deterministic:
  // pages come out in the order they were first dirtied.
  PageCache cache(16, EvictionPolicyKind::kLru);
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Insert(Key(1, i), 100 + i, false);
  }
  const uint64_t order[] = {5, 2, 7, 0};
  for (const uint64_t index : order) {
    ASSERT_TRUE(cache.MarkDirty(Key(1, index)));
  }
  // Re-dirtying an already-dirty page must not move it in the queue.
  ASSERT_TRUE(cache.MarkDirty(Key(1, 5)));
  cache.Insert(Key(1, 2), 102, true);

  auto taken = cache.TakeDirty(2);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].key.index, 5u);
  EXPECT_EQ(taken[1].key.index, 2u);

  // A page dirtied after the drain goes to the back of the queue.
  ASSERT_TRUE(cache.MarkDirty(Key(1, 3)));
  taken = cache.TakeDirty(10);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].key.index, 7u);
  EXPECT_EQ(taken[1].key.index, 0u);
  EXPECT_EQ(taken[2].key.index, 3u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PageCacheTest, TakeDirtySkipsRecleanedPages) {
  PageCache cache(16, EvictionPolicyKind::kLru);
  cache.Insert(Key(1, 0), 10, true);
  cache.Insert(Key(1, 1), 11, true);
  cache.Remove(Key(1, 0));  // dirty page invalidated: must leave the queue
  const auto taken = cache.TakeDirty(10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].key.index, 1u);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PageCacheTest, GhostEntriesAreInvisibleToResidency) {
  // Capacity-2 ARC with the working set promoted to T2: an overflow leaves
  // a B2 ghost. Ghosts must not count as resident for Contains / Lookup /
  // MarkDirty / Remove, and reviving one must re-admit the page.
  PageCache cache(2, EvictionPolicyKind::kArc);
  cache.Insert(Key(1, 0), 0, false);
  cache.Lookup(Key(1, 0));
  cache.Insert(Key(1, 1), 1, false);
  cache.Lookup(Key(1, 1));
  const auto evicted = cache.Insert(Key(1, 2), 2, false);
  ASSERT_EQ(evicted.size(), 1u);
  const PageKey ghost = evicted[0].key;  // T2 LRU victim, ghosted in B2
  EXPECT_GT(cache.ghost_count(), 0u);
  EXPECT_FALSE(cache.Contains(ghost));
  EXPECT_FALSE(cache.MarkDirty(ghost));
  const uint64_t misses_before = cache.stats().misses;
  EXPECT_FALSE(cache.Lookup(ghost));
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  cache.Remove(ghost);  // no-op on ghosts
  EXPECT_GT(cache.ghost_count(), 0u);
  cache.Insert(ghost, 7, false);  // ghost hit: revived into T2
  EXPECT_TRUE(cache.Contains(ghost));
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PageCacheTest, RemoveFileLeavesOtherInodeChainsIntact) {
  PageCache cache(256, EvictionPolicyKind::kTwoQueue);
  for (InodeId ino = 1; ino <= 16; ++ino) {
    for (uint64_t i = 0; i < 8; ++i) {
      cache.Insert(Key(ino, i), ino * 100 + i, ino % 3 == 0);
    }
  }
  cache.RemoveRange(7, 0, 8);
  cache.RemoveRange(7, 0, 8);  // second drop of the same range is a no-op
  EXPECT_EQ(cache.size(), 15u * 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(cache.Contains(Key(7, i)));
    EXPECT_TRUE(cache.Contains(Key(8, i)));
  }
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PageCacheTest, ClearKeepsGhostHistory) {
  PageCache cache(4, EvictionPolicyKind::kArc);
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Insert(Key(1, i), i, false);
    cache.Lookup(Key(1, i));  // promote to T2 so overflow ghosts persist
  }
  for (uint64_t i = 4; i < 8; ++i) {
    cache.Insert(Key(1, i), i, false);
  }
  const size_t ghosts = cache.ghost_count();
  ASSERT_GT(ghosts, 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  // Dropping caches forgets residency, not the policy's reference history
  // (matching the pre-slab behaviour, where ghost lists survived Clear).
  EXPECT_EQ(cache.ghost_count(), ghosts);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PageCacheTest, InsertReportsIntoCallerBatch) {
  PageCache cache(1, EvictionPolicyKind::kLru);
  PageCache::EvictedBatch batch;
  cache.Insert(Key(1, 0), 10, true, &batch);
  EXPECT_TRUE(batch.empty());
  cache.Insert(Key(1, 1), 11, false, &batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].key.index, 0u);
  EXPECT_TRUE(batch[0].dirty);
  // A null sink discards the report but still evicts.
  cache.Insert(Key(1, 2), 12, false, nullptr);
  EXPECT_FALSE(cache.Contains(Key(1, 1)));
  EXPECT_EQ(cache.size(), 1u);
}

class PageCachePolicySweep : public ::testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(PageCachePolicySweep, RandomWorkloadKeepsInvariants) {
  PageCache cache(32, GetParam());
  Rng rng(123);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t index = rng.NextBelow(100);
    if (!cache.Lookup(Key(1, index))) {
      cache.Insert(Key(1, index), index, rng.NextDouble() < 0.3);
    }
    if (step % 1000 == 0) {
      ASSERT_TRUE(cache.CheckInvariants()) << "step " << step;
    }
  }
  EXPECT_TRUE(cache.CheckInvariants());
  // Uniform over 100 pages with 32-page cache: hit ratio should be near
  // 32/100 for any sane policy.
  const double hit_ratio = static_cast<double>(cache.stats().hits) /
                           (cache.stats().hits + cache.stats().misses);
  EXPECT_GT(hit_ratio, 0.22);
  EXPECT_LT(hit_ratio, 0.45);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PageCachePolicySweep,
                         ::testing::Values(EvictionPolicyKind::kLru, EvictionPolicyKind::kClock,
                                           EvictionPolicyKind::kTwoQueue,
                                           EvictionPolicyKind::kArc),
                         [](const auto& info) { return EvictionPolicyKindName(info.param); });

}  // namespace
}  // namespace fsbench
