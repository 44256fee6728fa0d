// Differential test: the slab-backed PageCache vs. the retained pre-slab
// reference implementations (tests/reference_policies.h). Over randomized
// access traces, for all four policies, the two caches must agree on every
// observable decision:
//   - every Insert's victim sequence (key, block, dirty bit, order),
//   - every Lookup/Contains/MarkDirty result,
//   - resident size and dirty count after every operation,
//   - ARC's adaptive T1 target p (bit-identical: same arithmetic, same
//     order), proving ghost-hit adaptation carried over,
//   - every LookupRun's outcome and hit count against the one-by-one
//     lookups it stands for.
// The slab rewrite changes mechanics only; decisions are provably unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "src/sim/page_cache.h"
#include "src/util/rng.h"
#include "tests/reference_policies.h"

namespace fsbench {
namespace {

// gtest names each ctest case after a byte dump of its parameter, so the
// struct carries no padding: `reserved` holds the bytes after `kind` as zeros,
// and the case names are the same in every build.
struct TraceParam {
  EvictionPolicyKind kind;
  uint8_t reserved[alignof(size_t) - sizeof(EvictionPolicyKind)];
  size_t capacity;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TraceParam>);

TraceParam Trace(EvictionPolicyKind kind, size_t capacity, uint64_t seed) {
  return TraceParam{kind, {}, capacity, seed};
}

std::string ParamName(const ::testing::TestParamInfo<TraceParam>& info) {
  return std::string(EvictionPolicyKindName(info.param.kind)) + "_cap" +
         std::to_string(info.param.capacity) + "_seed" + std::to_string(info.param.seed);
}

BlockId BlockFor(const PageKey& key) { return key.ino * 1000 + key.index; }

bool EvictedEqual(const PageCache::Evicted& a, const reference::ReferencePageCache::Evicted& b) {
  return a.key == b.key && a.block == b.block && a.dirty == b.dirty;
}

class CacheDifferential : public ::testing::TestWithParam<TraceParam> {};

TEST_P(CacheDifferential, IdenticalVictimSequencesOverRandomTrace) {
  const TraceParam param = GetParam();
  PageCache cache(param.capacity, param.kind);
  reference::ReferencePageCache oracle(param.capacity, param.kind);

  // Key space ~4x the capacity across a handful of inodes, so the trace
  // exercises residency churn, ghost hits and whole-file drops.
  const uint64_t inodes = 4;
  const uint64_t pages_per_inode = std::max<uint64_t>(1, param.capacity * 4 / inodes);
  Rng rng(param.seed * 6364136223846793005ULL + 1442695040888963407ULL);
  auto random_key = [&] {
    return PageKey{1 + rng.NextBelow(inodes), rng.NextBelow(pages_per_inode)};
  };

  bool arc_p_moved = false;
  std::vector<PageCache::Evicted> scratch;
  constexpr int kSteps = 12000;
  for (int step = 0; step < kSteps; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.70) {
      // Touch: lookup, insert on miss (30% of inserts dirty).
      const PageKey key = random_key();
      const bool hit = cache.Lookup(key);
      ASSERT_EQ(hit, oracle.Lookup(key)) << "step " << step;
      if (!hit) {
        const bool dirty = rng.NextDouble() < 0.3;
        const PageCache::EvictedBatch evicted = cache.Insert(key, BlockFor(key), dirty);
        const auto expected = oracle.Insert(key, BlockFor(key), dirty);
        ASSERT_EQ(evicted.size(), expected.size()) << "step " << step;
        for (uint32_t i = 0; i < evicted.size(); ++i) {
          ASSERT_TRUE(EvictedEqual(evicted[i], expected[i]))
              << "step " << step << " victim " << i << ": slab {" << evicted[i].key.ino << ","
              << evicted[i].key.index << "} vs oracle {" << expected[i].key.ino << ","
              << expected[i].key.index << "}";
        }
      }
    } else if (action < 0.78) {
      // Re-insert (refresh or ghost revival) without a preceding lookup.
      const PageKey key = random_key();
      const PageCache::EvictedBatch evicted = cache.Insert(key, BlockFor(key), false);
      const auto expected = oracle.Insert(key, BlockFor(key), false);
      ASSERT_EQ(evicted.size(), expected.size()) << "step " << step;
      for (uint32_t i = 0; i < evicted.size(); ++i) {
        ASSERT_TRUE(EvictedEqual(evicted[i], expected[i])) << "step " << step;
      }
    } else if (action < 0.88) {
      const PageKey key = random_key();
      ASSERT_EQ(cache.MarkDirty(key), oracle.MarkDirty(key)) << "step " << step;
    } else if (action < 0.93) {
      const PageKey key = random_key();
      ASSERT_EQ(cache.Contains(key), oracle.Contains(key)) << "step " << step;
      cache.Remove(key);
      oracle.Remove(key);
    } else if (action < 0.97) {
      // TakeDirty drains in different orders (the oracle inherits
      // unordered_map iteration when partial), so compare full drains as
      // key-sorted sets.
      cache.TakeDirty(cache.size() + 1, &scratch);
      auto expected = oracle.TakeDirty(oracle.size() + 1);
      ASSERT_EQ(scratch.size(), expected.size()) << "step " << step;
      auto by_key = [](const auto& a, const auto& b) {
        return a.key.ino != b.key.ino ? a.key.ino < b.key.ino : a.key.index < b.key.index;
      };
      std::sort(scratch.begin(), scratch.end(), by_key);
      std::sort(expected.begin(), expected.end(), by_key);
      for (size_t i = 0; i < scratch.size(); ++i) {
        ASSERT_TRUE(EvictedEqual(scratch[i], expected[i])) << "step " << step;
      }
    } else {
      const InodeId ino = 1 + rng.NextBelow(inodes);
      cache.RemoveRange(ino, 0, pages_per_inode);
      oracle.RemoveFile(ino);
    }

    ASSERT_EQ(cache.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(cache.dirty_count(), oracle.dirty_count()) << "step " << step;
    if (param.kind == EvictionPolicyKind::kArc) {
      ASSERT_EQ(cache.arc_target_t1(), oracle.policy()->target_t1()) << "step " << step;
      arc_p_moved = arc_p_moved || cache.arc_target_t1() != 0.0;
    }
    if (step % 997 == 0) {
      ASSERT_TRUE(cache.CheckInvariants()) << "step " << step;
    }
  }
  ASSERT_TRUE(cache.CheckInvariants());
  if (param.kind == EvictionPolicyKind::kArc) {
    // The trace must actually have exercised ghost-hit adaptation.
    EXPECT_TRUE(arc_p_moved) << "ARC target_t1 never adapted; trace too tame";
  }
}

// A denser unlink-heavy trace: whole-file drops interleaved with inserts,
// the create/delete pattern where the old full-table scan was hottest. The
// cache drops a file as the VFS does, by the range of pages it can hold.
TEST_P(CacheDifferential, RemoveFileLockstep) {
  const TraceParam param = GetParam();
  PageCache cache(param.capacity, param.kind);
  reference::ReferencePageCache oracle(param.capacity, param.kind);
  Rng rng(param.seed + 99);
  for (int step = 0; step < 3000; ++step) {
    const PageKey key{1 + rng.NextBelow(3), rng.NextBelow(param.capacity * 2)};
    if (rng.NextDouble() < 0.9) {
      if (!cache.Contains(key)) {
        const PageCache::EvictedBatch evicted = cache.Insert(key, BlockFor(key), false);
        const auto expected = oracle.Insert(key, BlockFor(key), false);
        ASSERT_EQ(evicted.size(), expected.size()) << "step " << step;
        for (uint32_t i = 0; i < evicted.size(); ++i) {
          ASSERT_TRUE(EvictedEqual(evicted[i], expected[i])) << "step " << step;
        }
      } else {
        oracle.Lookup(key);
        cache.Lookup(key);
      }
    } else {
      const InodeId ino = 1 + rng.NextBelow(3);
      cache.RemoveRange(ino, 0, param.capacity * 2);
      oracle.RemoveFile(ino);
    }
    ASSERT_EQ(cache.size(), oracle.size()) << "step " << step;
  }
  EXPECT_TRUE(cache.CheckInvariants());
}

// LookupRun against the lookups it stands for. The usual insert, lookup,
// remove and whole-file drop mix is interleaved with runs of 1-3 chain keys, drawn
// from the resident set with repeats (of each other and of the run's own
// pages), and a range of 1-40 pages of one inode anchored on a resident page.
// Two runs in five are mixed: their chains also draw recent victims (ghosts
// under 2Q and ARC) and random keys, and half of them let the range run past
// the resident stretch at its anchor. When every key is resident the oracle
// makes the expanded lookups (chain, page, chain, page, ...) and the run must
// succeed; otherwise the run must fail and change nothing. The victim
// sequences of later inserts, and a final drain, catch any difference in
// recency.
TEST_P(CacheDifferential, LookupRunMatchesExpandedLookups) {
  const TraceParam param = GetParam();
  PageCache cache(param.capacity, param.kind);
  reference::ReferencePageCache oracle(param.capacity, param.kind);

  // Key space twice the capacity, so runs find most of it resident.
  const uint64_t inodes = 4;
  const uint64_t pages_per_inode = std::max<uint64_t>(1, param.capacity * 2 / inodes);
  Rng rng(param.seed * 2862933555777941757ULL + 3037000493ULL);
  auto random_key = [&] {
    return PageKey{1 + rng.NextBelow(inodes), rng.NextBelow(pages_per_inode)};
  };

  uint64_t hits = 0;
  uint64_t misses = 0;
  std::vector<PageKey> victims;
  auto insert = [&](const PageKey& key, bool dirty) {
    const PageCache::EvictedBatch evicted = cache.Insert(key, BlockFor(key), dirty);
    const auto expected = oracle.Insert(key, BlockFor(key), dirty);
    ASSERT_EQ(evicted.size(), expected.size());
    for (uint32_t i = 0; i < evicted.size(); ++i) {
      ASSERT_TRUE(EvictedEqual(evicted[i], expected[i]))
          << "victim " << i << ": slab {" << evicted[i].key.ino << "," << evicted[i].key.index
          << "} vs oracle {" << expected[i].key.ino << "," << expected[i].key.index << "}";
      victims.push_back(evicted[i].key);
    }
  };

  int resident_runs = 0;
  int missed_runs = 0;
  std::vector<PageKey> resident;
  std::vector<PageKey> chain;
  for (int step = 0; step < 6000; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.45) {
      const PageKey key = random_key();
      const bool hit = cache.Lookup(key);
      ASSERT_EQ(hit, oracle.Lookup(key)) << "step " << step;
      ++(hit ? hits : misses);
      if (!hit) {
        ASSERT_NO_FATAL_FAILURE(insert(key, rng.NextDouble() < 0.3)) << "step " << step;
      }
    } else if (action < 0.50) {
      const PageKey key = random_key();
      cache.Remove(key);
      oracle.Remove(key);
    } else if (action < 0.52) {
      const InodeId ino = 1 + rng.NextBelow(inodes);
      cache.RemoveRange(ino, 0, pages_per_inode);
      oracle.RemoveFile(ino);
    } else {
      resident.clear();
      for (InodeId ino = 1; ino <= inodes; ++ino) {
        for (uint64_t index = 0; index < pages_per_inode; ++index) {
          if (oracle.Contains(PageKey{ino, index})) {
            resident.push_back(PageKey{ino, index});
          }
        }
      }
      if (resident.empty()) {
        continue;
      }
      const PageKey anchor = resident[rng.NextBelow(resident.size())];
      auto page_key = [&](uint64_t i) { return PageKey{anchor.ino, anchor.index + i}; };
      uint32_t stretch = 1;
      while (stretch < 40 && oracle.Contains(page_key(stretch))) {
        ++stretch;
      }
      const bool mixed = rng.NextBelow(5) < 2;
      const uint32_t pages =
          1 + static_cast<uint32_t>(rng.NextBelow(mixed && rng.NextBelow(2) == 0 ? 40 : stretch));
      const uint32_t chain_size = 1 + static_cast<uint32_t>(rng.NextBelow(3));
      chain.clear();
      for (uint32_t c = 0; c < chain_size; ++c) {
        const uint64_t pick = rng.NextBelow(8);
        if (mixed && pick == 0) {
          const bool ghost = !victims.empty() && rng.NextBelow(2) == 0;
          chain.push_back(ghost ? victims[victims.size() - 1 -
                                         rng.NextBelow(std::min<size_t>(victims.size(), 32))]
                                : random_key());
        } else if (c > 0 && pick == 1) {
          const PageKey repeat = chain[rng.NextBelow(c)];
          chain.push_back(repeat);
        } else if (pick == 2) {
          chain.push_back(page_key(rng.NextBelow(pages)));
        } else {
          chain.push_back(resident[rng.NextBelow(resident.size())]);
        }
      }
      bool all_resident = std::all_of(chain.begin(), chain.end(),
                                      [&](const PageKey& key) { return oracle.Contains(key); });
      for (uint32_t i = 0; i < pages; ++i) {
        all_resident = all_resident && oracle.Contains(page_key(i));
      }
      const PageCacheStats before = cache.stats();
      const bool charged = cache.LookupRun(chain, anchor.ino, anchor.index, pages);
      ASSERT_EQ(charged, all_resident) << "step " << step;
      if (charged) {
        for (uint32_t i = 0; i < pages; ++i) {
          for (const PageKey& key : chain) {
            ASSERT_TRUE(oracle.Lookup(key)) << "step " << step;
          }
          ASSERT_TRUE(oracle.Lookup(page_key(i))) << "step " << step;
        }
        hits += static_cast<uint64_t>(chain_size + 1) * pages;
        ++resident_runs;
      } else {
        ASSERT_EQ(cache.stats(), before) << "step " << step;
        ++missed_runs;
      }
    }

    ASSERT_EQ(cache.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(cache.dirty_count(), oracle.dirty_count()) << "step " << step;
    if (param.kind == EvictionPolicyKind::kArc) {
      ASSERT_EQ(cache.arc_target_t1(), oracle.policy()->target_t1()) << "step " << step;
    }
    if (step % 997 == 0) {
      ASSERT_TRUE(cache.CheckInvariants()) << "step " << step;
    }
  }
  EXPECT_GT(resident_runs, 0);
  EXPECT_GT(missed_runs, 0);
  EXPECT_EQ(cache.stats().hits, hits);
  EXPECT_EQ(cache.stats().misses, misses);
  // Drain: fresh keys evict the whole resident set in the final recency order.
  for (uint64_t index = 0; index < 2 * param.capacity; ++index) {
    ASSERT_NO_FATAL_FAILURE(insert(PageKey{inodes + 1, index}, false)) << "drain " << index;
  }
  EXPECT_TRUE(cache.CheckInvariants());
}

// LookupRun's run memo and spliced recency moves against the lookups a run
// stands for. A few fixed directory-like runs (1-2 chain keys, 20-200 pages)
// repeat, so about half the resident runs are answered from the memo, and
// their moves splice long blocks. Two of them repeat a node next to a block
// of two or more nodes: one's chain key is a page of the run, the other
// gives its chain key twice. Two more share a range with another run but
// not its chain, or share its start but not its length.
// Between runs the trace makes single hits on run pages (which break
// blocks), inserts new keys (which evict once the cache is full), and makes
// Remove of a run page and of another page, a whole-file drop of a run's
// inode and Clear. A run that fails is charged one lookup at a time with an insert on
// each miss, as the VFS does, so it becomes resident again. Every step
// compares with the reference policies and runs CheckInvariants, which also
// checks the memo's entries against the table.
class RunMemoDifferential : public ::testing::TestWithParam<TraceParam> {};

TEST_P(RunMemoDifferential, RepeatedRunsMatchExpandedLookups) {
  const TraceParam param = GetParam();
  PageCache cache(param.capacity, param.kind);
  reference::ReferencePageCache oracle(param.capacity, param.kind);
  Rng rng(param.seed * 0x9E3779B97F4A7C15ULL + 7);

  struct Run {
    std::vector<PageKey> chain;
    InodeId ino;
    uint64_t first_page;
    uint32_t pages;
  };
  // Inode 9 stands for the metadata blocks a directory's chain reads.
  const PageKey inode_block{9, 1};
  const PageKey indirect_block{9, 2};
  const std::vector<Run> runs = {
      {{inode_block}, 1, 0, 24},
      {{inode_block, indirect_block}, 1, 24, 200},
      {{inode_block}, 2, 0, 40},
      {{PageKey{2, 5}}, 2, 0, 30},
      {{indirect_block, indirect_block}, 2, 8, 20},
      // The range of the first run with another chain, and a shorter range
      // at the third run's start: a memo entry matches only its own run.
      {{indirect_block}, 1, 0, 24},
      {{inode_block}, 2, 0, 36},
  };
  constexpr InodeId kOther = 3;

  // A run repeats from the memo when it succeeded before and no resident
  // page has left the cache since; `losses` counts the departures.
  uint64_t losses = 0;
  uint64_t evictions = 0;
  std::vector<uint64_t> charged_after(runs.size(), ~0ULL);
  int charged_runs = 0;
  int repeated_runs = 0;
  int failed_runs = 0;
  auto insert = [&](const PageKey& key, bool dirty) {
    const PageCache::EvictedBatch evicted = cache.Insert(key, BlockFor(key), dirty);
    const auto expected = oracle.Insert(key, BlockFor(key), dirty);
    ASSERT_EQ(evicted.size(), expected.size());
    for (uint32_t i = 0; i < evicted.size(); ++i) {
      ASSERT_TRUE(EvictedEqual(evicted[i], expected[i]))
          << "victim " << i << ": slab {" << evicted[i].key.ino << "," << evicted[i].key.index
          << "} vs oracle {" << expected[i].key.ino << "," << expected[i].key.index << "}";
    }
    losses += evicted.size();
    evictions += evicted.size();
  };
  auto touch = [&](const PageKey& key) {
    const bool hit = cache.Lookup(key);
    ASSERT_EQ(hit, oracle.Lookup(key));
    if (!hit) {
      ASSERT_NO_FATAL_FAILURE(insert(key, false));
    }
  };
  auto remove = [&](const PageKey& key) {
    losses += oracle.Contains(key) ? 1 : 0;
    cache.Remove(key);
    oracle.Remove(key);
  };
  auto run_page = [&](const Run& run) {
    return PageKey{run.ino, run.first_page + rng.NextBelow(run.pages)};
  };

  // Other keys, as many as the cache holds: bursts of touches of them evict
  // once the cache is full.
  auto other_key = [&] { return PageKey{kOther, rng.NextBelow(param.capacity)}; };

  for (int step = 0; step < 2000; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.72) {
      const size_t r = rng.NextBelow(runs.size());
      const Run& run = runs[r];
      auto page_key = [&](uint32_t i) { return PageKey{run.ino, run.first_page + i}; };
      bool all_resident = std::all_of(run.chain.begin(), run.chain.end(),
                                      [&](const PageKey& key) { return oracle.Contains(key); });
      for (uint32_t i = 0; i < run.pages; ++i) {
        all_resident = all_resident && oracle.Contains(page_key(i));
      }
      const PageCacheStats before = cache.stats();
      const bool charged = cache.LookupRun(run.chain, run.ino, run.first_page, run.pages);
      ASSERT_EQ(charged, all_resident) << "step " << step;
      if (charged) {
        for (uint32_t i = 0; i < run.pages; ++i) {
          for (const PageKey& key : run.chain) {
            ASSERT_TRUE(oracle.Lookup(key)) << "step " << step;
          }
          ASSERT_TRUE(oracle.Lookup(page_key(i))) << "step " << step;
        }
        ASSERT_EQ(cache.stats().hits - before.hits, (run.chain.size() + 1) * run.pages)
            << "step " << step;
        ++charged_runs;
        repeated_runs += charged_after[r] == losses ? 1 : 0;
        charged_after[r] = losses;
      } else {
        ASSERT_EQ(cache.stats(), before) << "step " << step;
        ++failed_runs;
        for (uint32_t i = 0; i < run.pages; ++i) {
          for (const PageKey& key : run.chain) {
            ASSERT_NO_FATAL_FAILURE(touch(key)) << "step " << step;
          }
          ASSERT_NO_FATAL_FAILURE(touch(page_key(i))) << "step " << step;
        }
      }
    } else if (action < 0.84) {
      ASSERT_NO_FATAL_FAILURE(touch(run_page(runs[rng.NextBelow(runs.size())])))
          << "step " << step;
    } else if (action < 0.88) {
      for (uint64_t n = 1 + rng.NextBelow(param.capacity / 8); n > 0; --n) {
        ASSERT_NO_FATAL_FAILURE(touch(other_key())) << "step " << step;
      }
    } else if (action < 0.92) {
      remove(run_page(runs[rng.NextBelow(runs.size())]));
    } else if (action < 0.96) {
      remove(other_key());
    } else if (action < 0.99) {
      const InodeId ino = 1 + rng.NextBelow(2);
      for (uint64_t index = 0; index < 224; ++index) {
        losses += oracle.Contains(PageKey{ino, index}) ? 1 : 0;
      }
      cache.RemoveRange(ino, 0, 224);
      oracle.RemoveFile(ino);
    } else {
      losses += oracle.size();
      cache.Clear();
      oracle.Clear();
    }

    ASSERT_EQ(cache.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(cache.dirty_count(), oracle.dirty_count()) << "step " << step;
    if (param.kind == EvictionPolicyKind::kArc) {
      ASSERT_EQ(cache.arc_target_t1(), oracle.policy()->target_t1()) << "step " << step;
    }
    const char* why = nullptr;
    ASSERT_TRUE(cache.CheckInvariants(&why)) << "step " << step << ": " << why;
  }
  // Many resident runs repeated from the memo, and the trace also failed
  // runs and evicted.
  EXPECT_GT(3 * repeated_runs, charged_runs);
  EXPECT_GT(failed_runs, 0);
  EXPECT_GT(evictions, 0u);
  // Drain: new keys evict the whole resident set in the final recency order.
  for (uint64_t n = 0; n < 2 * param.capacity; ++n) {
    ASSERT_NO_FATAL_FAILURE(insert(PageKey{kOther + 1, n}, false)) << "drain " << n;
  }
  EXPECT_TRUE(cache.CheckInvariants());
}

// The cache and the reference policies driven in lock step, for the traces
// below. A run that LookupRun does not charge whole is charged one lookup at
// a time with an insert on each miss, as the VFS does.
class Lockstep {
 public:
  Lockstep(size_t capacity, EvictionPolicyKind kind) : cache_(capacity, kind), oracle_(capacity, kind) {}

  const PageCache& cache() const { return cache_; }
  bool Contains(const PageKey& key) const { return oracle_.Contains(key); }
  // Keys evicted so far, in order.
  const std::vector<PageKey>& victims() const { return victims_; }

  void Insert(const PageKey& key) {
    const PageCache::EvictedBatch evicted = cache_.Insert(key, BlockFor(key), false);
    const auto expected = oracle_.Insert(key, BlockFor(key), false);
    ASSERT_EQ(evicted.size(), expected.size());
    for (uint32_t i = 0; i < evicted.size(); ++i) {
      ASSERT_TRUE(EvictedEqual(evicted[i], expected[i]))
          << "victim " << i << ": slab {" << evicted[i].key.ino << "," << evicted[i].key.index
          << "} vs oracle {" << expected[i].key.ino << "," << expected[i].key.index << "}";
      victims_.push_back(evicted[i].key);
    }
  }
  void Touch(const PageKey& key) {
    const bool hit = cache_.Lookup(key);
    ASSERT_EQ(hit, oracle_.Lookup(key));
    if (!hit) {
      ASSERT_NO_FATAL_FAILURE(Insert(key));
    }
  }
  void Remove(const PageKey& key) {
    cache_.Remove(key);
    oracle_.Remove(key);
  }
  // Charges the run; `charged` tells whether LookupRun took it whole.
  void Run(const std::vector<PageKey>& chain, InodeId ino, uint64_t first_page, uint32_t pages,
           bool* charged) {
    bool all_resident = std::all_of(chain.begin(), chain.end(),
                                    [&](const PageKey& key) { return oracle_.Contains(key); });
    for (uint32_t i = 0; i < pages; ++i) {
      all_resident = all_resident && oracle_.Contains(PageKey{ino, first_page + i});
    }
    const PageCacheStats before = cache_.stats();
    *charged = cache_.LookupRun(chain, ino, first_page, pages);
    ASSERT_EQ(*charged, all_resident);
    const auto lookup = [&](const PageKey& key) {
      if (*charged) {
        ASSERT_TRUE(oracle_.Lookup(key));
      } else {
        ASSERT_NO_FATAL_FAILURE(Touch(key));
      }
    };
    for (uint32_t i = 0; i < pages; ++i) {
      for (const PageKey& key : chain) {
        ASSERT_NO_FATAL_FAILURE(lookup(key));
      }
      ASSERT_NO_FATAL_FAILURE(lookup(PageKey{ino, first_page + i}));
    }
    if (*charged) {
      ASSERT_EQ(cache_.stats().hits - before.hits, (chain.size() + 1) * pages);
    }
  }
  // Compares what both sides expose and checks the cache's invariants.
  void Check() {
    ASSERT_EQ(cache_.size(), oracle_.size());
    ASSERT_EQ(cache_.dirty_count(), oracle_.dirty_count());
    if (cache_.policy_kind() == EvictionPolicyKind::kArc) {
      ASSERT_EQ(cache_.arc_target_t1(), oracle_.policy()->target_t1());
    }
    const char* why = nullptr;
    ASSERT_TRUE(cache_.CheckInvariants(&why)) << why;
  }
  // Fresh keys evict the whole resident set in its final recency order.
  void Drain(InodeId fresh_ino) {
    for (uint64_t n = 0; n < 2 * cache_.capacity(); ++n) {
      ASSERT_NO_FATAL_FAILURE(Insert(PageKey{fresh_ino, n})) << "drain " << n;
    }
    ASSERT_NO_FATAL_FAILURE(Check());
  }

 private:
  PageCache cache_;
  reference::ReferencePageCache oracle_;
  std::vector<PageKey> victims_;
};

// A run longer than twice the page cache's move log (1,024 entries), applied
// again after bursts of single hits on its pages: bursts of up to 600 hits
// leave a short log, which a repeated run reads instead of checking every
// page, and bursts of 1,025 to 1,174 log more moves than the log keeps,
// which it must not read. Runs over a prefix and a middle stretch of the same
// pages splice blocks out of it between applications, and bursts of fresh
// keys evict.
TEST_P(RunMemoDifferential, LongRunAcrossAWrappedMoveLog) {
  const TraceParam param = GetParam();
  Lockstep lockstep(2560 + param.capacity / 4, param.kind);
  Rng rng(param.seed * 0xD1B54A32D192ED03ULL + 11);
  constexpr uint32_t kLongPages = 2400;
  const std::vector<PageKey> long_chain = {PageKey{9, 1}};
  const std::vector<PageKey> prefix_chain = {PageKey{9, 2}};
  uint64_t fresh = 0;
  int charged_runs = 0;
  int wrapped_then_charged = 0;
  for (int step = 0; step < 160; ++step) {
    const uint64_t action = rng.NextBelow(10);
    bool charged = false;
    if (action < 3) {
      ASSERT_NO_FATAL_FAILURE(lockstep.Run(long_chain, 1, 0, kLongPages, &charged))
          << "step " << step;
    } else if (action < 4) {
      ASSERT_NO_FATAL_FAILURE(lockstep.Run(prefix_chain, 1, 0, 300, &charged)) << "step " << step;
    } else if (action < 5) {
      ASSERT_NO_FATAL_FAILURE(lockstep.Run(long_chain, 1, 1000, 500, &charged))
          << "step " << step;
    } else if (action < 9) {
      const bool wrap = rng.NextBelow(2) == 0;
      const uint64_t hits = wrap ? 1025 + rng.NextBelow(150) : 1 + rng.NextBelow(600);
      for (uint64_t h = 0; h < hits; ++h) {
        ASSERT_NO_FATAL_FAILURE(lockstep.Touch(PageKey{1, rng.NextBelow(kLongPages)}))
            << "step " << step;
      }
      ASSERT_NO_FATAL_FAILURE(lockstep.Run(long_chain, 1, 0, kLongPages, &charged))
          << "step " << step;
      wrapped_then_charged += wrap && charged ? 1 : 0;
    } else {
      for (uint64_t n = 1 + rng.NextBelow(64); n > 0; --n) {
        ASSERT_NO_FATAL_FAILURE(lockstep.Insert(PageKey{3, fresh++})) << "step " << step;
      }
    }
    charged_runs += charged ? 1 : 0;
    ASSERT_NO_FATAL_FAILURE(lockstep.Check()) << "step " << step;
  }
  EXPECT_GT(charged_runs, 0);
  if (param.kind == EvictionPolicyKind::kLru || param.kind == EvictionPolicyKind::kArc) {
    // Where the run's pages can all stay resident, the log did wrap between
    // two applications of it.
    EXPECT_GT(wrapped_then_charged, 0);
  }
  ASSERT_NO_FATAL_FAILURE(lockstep.Drain(4));
}

// A departing chain key empties the run memo as a departing page does. Two
// runs cover the same pages with different chain keys; then the first run's
// chain key leaves the cache, by Remove or by eviction, and the first run
// must fail while the second may still be answered from the memo. Only keys
// a remembered run names empty the memo: fresh keys evicted on the way
// leave it as it is. Counted are the departures after which every page and
// the other chain key stayed, where a stale memo entry would answer.
TEST_P(RunMemoDifferential, ChainKeyDeparturesEmptyTheMemo) {
  const TraceParam param = GetParam();
  Lockstep lockstep(param.capacity, param.kind);
  Rng rng(param.seed * 0xA0761D6478BD642FULL + 5);
  const PageKey gone{9, 3};
  const PageKey kept{9, 4};
  const std::vector<PageKey> gone_chain = {gone};
  const std::vector<PageKey> kept_chain = {kept};
  const uint32_t pages = static_cast<uint32_t>(param.capacity / 8);
  uint64_t fresh = 0;
  int removed = 0;
  int evicted = 0;
  for (int round = 0; round < 40; ++round) {
    bool charged = false;
    for (int repeat = 0; repeat < 3; ++repeat) {
      ASSERT_NO_FATAL_FAILURE(lockstep.Run(gone_chain, 2, 0, pages, &charged)) << "round " << round;
      ASSERT_NO_FATAL_FAILURE(lockstep.Run(kept_chain, 2, 0, pages, &charged)) << "round " << round;
    }
    const bool remove = rng.NextBelow(2) == 0;
    if (remove) {
      lockstep.Remove(gone);
    } else {
      // Fresh keys until the chain key goes, or a cacheful of them: 2Q's
      // Am and ARC's T2 keep it against a stream of new keys.
      for (size_t n = 0; n < param.capacity && lockstep.Contains(gone); ++n) {
        ASSERT_NO_FATAL_FAILURE(lockstep.Insert(PageKey{3, fresh++})) << "round " << round;
      }
    }
    ASSERT_NO_FATAL_FAILURE(lockstep.Check()) << "round " << round;
    bool others_stayed = lockstep.Contains(kept);
    for (uint32_t i = 0; i < pages; ++i) {
      others_stayed = others_stayed && lockstep.Contains(PageKey{2, i});
    }
    if (!lockstep.Contains(gone) && others_stayed) {
      ++(remove ? removed : evicted);
    }
    ASSERT_NO_FATAL_FAILURE(lockstep.Run(gone_chain, 2, 0, pages, &charged)) << "round " << round;
    ASSERT_NO_FATAL_FAILURE(lockstep.Run(kept_chain, 2, 0, pages, &charged)) << "round " << round;
    ASSERT_NO_FATAL_FAILURE(lockstep.Check()) << "round " << round;
  }
  EXPECT_GT(removed, 0);
  if (param.kind == EvictionPolicyKind::kLru) {
    EXPECT_GT(evicted, 0);
  }
  ASSERT_NO_FATAL_FAILURE(lockstep.Drain(4));
}

INSTANTIATE_TEST_SUITE_P(Traces, RunMemoDifferential,
                         ::testing::Values(Trace(EvictionPolicyKind::kLru, 320, 1),
                                           Trace(EvictionPolicyKind::kLru, 512, 2),
                                           Trace(EvictionPolicyKind::kClock, 320, 1),
                                           Trace(EvictionPolicyKind::kClock, 512, 2),
                                           Trace(EvictionPolicyKind::kTwoQueue, 320, 1),
                                           Trace(EvictionPolicyKind::kTwoQueue, 512, 2),
                                           Trace(EvictionPolicyKind::kArc, 320, 1),
                                           Trace(EvictionPolicyKind::kArc, 512, 2)),
                         ParamName);

INSTANTIATE_TEST_SUITE_P(
    Traces, CacheDifferential,
    ::testing::Values(Trace(EvictionPolicyKind::kLru, 64, 1),
                      Trace(EvictionPolicyKind::kLru, 4, 2),
                      Trace(EvictionPolicyKind::kClock, 64, 1),
                      Trace(EvictionPolicyKind::kClock, 4, 2),
                      Trace(EvictionPolicyKind::kTwoQueue, 64, 1),
                      Trace(EvictionPolicyKind::kTwoQueue, 4, 2),
                      Trace(EvictionPolicyKind::kArc, 64, 1),
                      Trace(EvictionPolicyKind::kArc, 4, 2),
                      Trace(EvictionPolicyKind::kArc, 48, 3)),
    ParamName);

}  // namespace
}  // namespace fsbench
