// PageSlab against std::unordered_map, and IndexList against std::list,
// under seeded random operations. The slab runs stay small enough that the
// table grows through its first sizes and erases shift nodes back, so every
// step can check that each live node's cached slot still points at it. The
// list runs share one link array between several lists, as PageCache's
// policy lists do, and splice segments to the front as its runs do.
#include "src/sim/page_slab.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"

namespace fsbench {
namespace {

constexpr uint32_t kNil = PageSlab::kNil;

// Erases and frees node n, as both cache tiers do; returns whether the
// backward shift moved another node into n's slot.
bool EraseAndFree(PageSlab& slab, uint32_t n) {
  const uint32_t hash = PageSlab::Hash(slab.key(n));
  const size_t slot = slab.Probe(slab.key(n), hash);
  const size_t hole = slab.Erase(n);
  slab.Free(n);
  EXPECT_EQ(slab.at(hole), kNil);
  return hole != slot;
}

void RunSlabOps(uint64_t seed, size_t* shifts, size_t* recycled, size_t* rehashes) {
  Rng rng(seed);
  PageSlab slab;
  std::unordered_map<PageKey, uint32_t, PageKeyHash> live;
  std::vector<PageKey> live_keys;
  std::vector<uint32_t> freed;  // ids in the order they were freed
  std::vector<PageKey> erased_keys;

  for (int op = 0; op < 1500; ++op) {
    const double roll = rng.NextDouble();
    if (live_keys.empty() || roll < (live_keys.size() < 120 ? 0.6 : 0.45)) {
      // Small inode and index ranges, so a key comes back after its erase.
      PageKey key{1 + rng.NextBelow(6), rng.NextBelow(64)};
      if (live.count(key) != 0) {
        continue;
      }
      const uint32_t hash = PageSlab::Hash(key);
      const size_t fresh = slab.node_count();
      const uint32_t n = slab.Alloc(key, hash);
      if (freed.empty()) {
        ASSERT_EQ(n, fresh) << "op " << op;
      } else {
        ASSERT_EQ(n, freed.back()) << "freed ids must come back last-in first-out, op " << op;
        freed.pop_back();
        ++*recycled;
      }
      ASSERT_EQ(slab.at(slab.Probe(key, hash)), kNil) << "op " << op;
      slab.Insert(slab.Probe(key, hash), n);
      live[key] = n;
      live_keys.push_back(key);
    } else if (roll < 0.98) {
      const size_t pick = rng.NextBelow(live_keys.size());
      const PageKey key = live_keys[pick];
      const uint32_t n = live.at(key);
      *shifts += EraseAndFree(slab, n) ? 1 : 0;
      live.erase(key);
      live_keys[pick] = live_keys.back();
      live_keys.pop_back();
      freed.push_back(n);
      erased_keys.push_back(key);
    } else {
      slab.Rehash(0);  // rebuilds at the same size, moving nodes
      ++*rehashes;
    }

    ASSERT_EQ(slab.node_count(), live.size() + freed.size()) << "op " << op;
    for (const PageKey& key : live_keys) {
      const uint32_t n = live.at(key);
      ASSERT_EQ(slab.Find(key), n) << "live key lost at op " << op;
      ASSERT_TRUE(slab.CheckNode(n)) << "stale slot or hash of node " << n << " at op " << op;
      ASSERT_EQ(slab.key(n), key) << "op " << op;
    }
    for (const PageKey& key : erased_keys) {
      if (live.count(key) == 0) {
        ASSERT_EQ(slab.Find(key), kNil) << "erased key found at op " << op;
      }
    }
    ASSERT_TRUE(slab.CheckPopulation(live.size())) << "op " << op;
  }
}

TEST(PageSlabTest, RandomOpsMatchUnorderedMap) {
  size_t shifts = 0;
  size_t recycled = 0;
  size_t rehashes = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    RunSlabOps(seed, &shifts, &recycled, &rehashes);
  }
  // The runs really exercised what they are for.
  EXPECT_GT(shifts, 100u) << "too few erases shifted a node back";
  EXPECT_GT(recycled, 1000u);
  EXPECT_GT(rehashes, 10u);
}

TEST(PageSlabTest, ClearStartsIdsOver) {
  PageSlab slab;
  for (uint64_t i = 0; i < 3; ++i) {
    const PageKey key{7, i};
    slab.Insert(slab.Probe(key, PageSlab::Hash(key)), slab.Alloc(key, PageSlab::Hash(key)));
  }
  slab.Clear();
  EXPECT_EQ(slab.node_count(), 0u);
  EXPECT_EQ(slab.Find(PageKey{7, 1}), kNil);
  EXPECT_TRUE(slab.CheckPopulation(0));
  EXPECT_EQ(slab.Alloc(PageKey{7, 1}, PageSlab::Hash(PageKey{7, 1})), 0u);
}

// Several IndexLists over one link array against one std::list each.
class ListModel {
 public:
  static constexpr uint32_t kNodes = 12;
  static constexpr int kLists = 3;

  ListModel() : links_(kNodes), on_(kNodes, -1) {}

  // Checks every list forward and backward, and that a node on no list has
  // a reset link.
  void Check(int op) const {
    for (int l = 0; l < kLists; ++l) {
      const IndexList& list = lists_[l];
      const std::list<uint32_t>& ref = ref_[l];
      ASSERT_EQ(list.size(), ref.size()) << "list " << l << " op " << op;
      std::vector<uint32_t> forward;
      for (uint32_t n = list.head(); n != kNil && forward.size() <= kNodes; n = links_[n].next) {
        forward.push_back(n);
      }
      ASSERT_EQ(forward, std::vector<uint32_t>(ref.begin(), ref.end()))
          << "list " << l << " op " << op;
      std::vector<uint32_t> backward;
      for (uint32_t n = list.tail(); n != kNil && backward.size() <= kNodes; n = links_[n].prev) {
        backward.push_back(n);
      }
      ASSERT_EQ(backward, std::vector<uint32_t>(ref.rbegin(), ref.rend()))
          << "list " << l << " op " << op;
    }
    for (uint32_t n = 0; n < kNodes; ++n) {
      if (on_[n] < 0) {
        ASSERT_EQ(links_[n].prev, kNil) << "node " << n << " op " << op;
        ASSERT_EQ(links_[n].next, kNil) << "node " << n << " op " << op;
      }
    }
  }

  // What the random steps exercised.
  struct Coverage {
    size_t back_inserts = 0;  // InsertBefore(kNil)
    size_t head_inserts = 0;  // InsertBefore(head)
    size_t head_moves = 0;    // MoveToFront(head)
    size_t last_unlinks = 0;  // Unlink of a list's only member
    size_t head_splices = 0;  // SpliceToFront of a segment starting at the head
    size_t tail_splices = 0;  // SpliceToFront of a segment ending at the tail
  };

  void Step(Rng& rng) {
    const uint32_t n = static_cast<uint32_t>(rng.NextBelow(kNodes));
    if (on_[n] < 0) {
      const int l = static_cast<int>(rng.NextBelow(kLists));
      Link(l, n, rng);
      return;
    }
    const int l = on_[n];
    IndexList& list = lists_[l];
    std::list<uint32_t>& ref = ref_[l];
    const double roll = rng.NextDouble();
    if (roll < 0.35) {
      coverage_.head_moves += list.head() == n ? 1 : 0;
      list.MoveToFront(links_, n);
      ref.remove(n);
      ref.push_front(n);
    } else if (roll < 0.7) {
      coverage_.last_unlinks += list.size() == 1 ? 1 : 0;
      list.Unlink(links_, n);
      ref.remove(n);
      on_[n] = -1;
    } else {
      // A random segment of n's list, which may start at the head or end at
      // the tail.
      const size_t at = rng.NextBelow(ref.size());
      const size_t count = 1 + rng.NextBelow(ref.size() - at);
      const auto first = std::next(ref.begin(), static_cast<std::ptrdiff_t>(at));
      const auto end = std::next(first, static_cast<std::ptrdiff_t>(count));
      coverage_.head_splices += at == 0 ? 1 : 0;
      coverage_.tail_splices += end == ref.end() ? 1 : 0;
      list.SpliceToFront(links_, *first, *std::prev(end));
      // std::list::splice may not move a range to a position inside it.
      if (at != 0) {
        ref.splice(ref.begin(), ref, first, end);
      }
    }
  }

  const Coverage& coverage() const { return coverage_; }

 private:
  void Link(int l, uint32_t n, Rng& rng) {
    IndexList& list = lists_[l];
    std::list<uint32_t>& ref = ref_[l];
    on_[n] = l;
    const double roll = rng.NextDouble();
    if (roll < 0.3) {
      list.PushFront(links_, n);
      ref.push_front(n);
      return;
    }
    // Before a random member, or at the back when the pick is ref.end().
    const size_t at = rng.NextBelow(ref.size() + 1);
    const auto pos = std::next(ref.begin(), static_cast<std::ptrdiff_t>(at));
    const uint32_t before = pos == ref.end() ? kNil : *pos;
    coverage_.back_inserts += before == kNil ? 1 : 0;
    coverage_.head_inserts += before != kNil && before == list.head() ? 1 : 0;
    list.InsertBefore(links_, before, n);
    ref.insert(pos, n);
  }

  std::vector<IndexLink> links_;
  std::vector<int> on_;  // list index of each node, or -1
  IndexList lists_[kLists];
  std::list<uint32_t> ref_[kLists];
  Coverage coverage_;
};

TEST(IndexListTest, RandomOpsOnListsSharingLinksMatchStdList) {
  ListModel model;
  Rng rng(11);
  for (int op = 0; op < 4000; ++op) {
    model.Step(rng);
    model.Check(op);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  const ListModel::Coverage& coverage = model.coverage();
  EXPECT_GT(coverage.back_inserts, 50u);
  EXPECT_GT(coverage.head_inserts, 50u);
  EXPECT_GT(coverage.head_moves, 50u);
  EXPECT_GT(coverage.last_unlinks, 20u);
  EXPECT_GT(coverage.head_splices, 50u);
  EXPECT_GT(coverage.tail_splices, 50u);
}

TEST(IndexListTest, EdgeCases) {
  std::vector<IndexLink> links(4);
  IndexList list;
  list.InsertBefore(links, kNil, 0);  // into an empty list
  EXPECT_EQ(list.head(), 0u);
  EXPECT_EQ(list.tail(), 0u);
  list.InsertBefore(links, list.head(), 1);  // new head: 1 0
  list.InsertBefore(links, kNil, 2);         // new tail: 1 0 2
  EXPECT_EQ(list.head(), 1u);
  EXPECT_EQ(list.tail(), 2u);
  EXPECT_EQ(links[0].prev, 1u);
  EXPECT_EQ(links[0].next, 2u);
  list.MoveToFront(links, 1);  // already the head: nothing moves
  EXPECT_EQ(list.head(), 1u);
  EXPECT_EQ(list.size(), 3u);
  list.MoveToFront(links, 2);  // 2 1 0
  EXPECT_EQ(list.head(), 2u);
  EXPECT_EQ(list.tail(), 0u);
  EXPECT_EQ(list.size(), 3u);
  list.SpliceToFront(links, 2, 1);  // starts at the head: nothing moves
  EXPECT_EQ(list.head(), 2u);
  EXPECT_EQ(list.tail(), 0u);
  EXPECT_EQ(links[1].next, 0u);
  list.SpliceToFront(links, 1, 0);  // ends at the tail: 1 0 2
  EXPECT_EQ(list.head(), 1u);
  EXPECT_EQ(list.tail(), 2u);
  EXPECT_EQ(links[1].prev, kNil);
  EXPECT_EQ(links[0].next, 2u);
  EXPECT_EQ(links[2].prev, 0u);
  EXPECT_EQ(links[2].next, kNil);
  EXPECT_EQ(list.size(), 3u);
  for (const uint32_t n : {1u, 0u, 2u}) {
    list.Unlink(links, n);
  }
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.head(), kNil);
  EXPECT_EQ(list.tail(), kNil);
}

}  // namespace
}  // namespace fsbench
