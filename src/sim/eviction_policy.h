// Eviction-policy vocabulary for the slab-based page cache.
//
// The paper asks (§2): "How are elements evicted from the cache? To the best
// of our knowledge, none of the existing benchmarks consider these
// questions." fsbench makes the policy a first-class, swappable dimension so
// caching can be benchmarked in isolation (see bench/ablation_eviction).
// Implemented: LRU, CLOCK, simplified 2Q (Johnson & Shasha, VLDB'94) and ARC
// (Megiddo & Modha, FAST'03).
//
// All four policies are specified over a handful of queues (LRU stacks,
// CLOCK's ring, 2Q's A1in/A1out/Am, ARC's T1/T2/B1/B2). Rather than a
// virtual policy object keeping its own key->iterator maps next to the
// cache's key->entry map, the cache stores every page — resident and ghost —
// as one slab node tagged with the CacheListId of the intrusive list it
// currently lives on. This header defines that shared vocabulary; the slab
// itself and the policy transition rules live in src/sim/page_cache.{h,cc}.
#ifndef SRC_SIM_EVICTION_POLICY_H_
#define SRC_SIM_EVICTION_POLICY_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/types.h"

namespace fsbench {

// Identity of a cached page: (inode, page index within the file). Meta-data
// blocks are cached under the reserved kMetaInode.
struct PageKey {
  InodeId ino = kInvalidInode;
  uint64_t index = 0;

  bool operator==(const PageKey& other) const = default;
};

inline constexpr InodeId kMetaInode = ~0ULL;

struct PageKeyHash {
  size_t operator()(const PageKey& key) const {
    uint64_t h = key.ino * 0x9e3779b97f4a7c15ULL;
    h ^= key.index + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    // murmur3 finalizer: without it the low bits are affine in `index` for a
    // fixed inode, and sequential pages of one file fill contiguous runs of
    // an open-addressed table — harmless under chaining, pathological for
    // linear probing (backward-shift deletes crawl the whole run).
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

enum class EvictionPolicyKind : uint8_t { kLru, kClock, kTwoQueue, kArc };

const char* EvictionPolicyKindName(EvictionPolicyKind kind);

// Which intrusive list a slab node is linked on. Which ids a cache uses
// depends on its policy:
//   LRU   : kLruList  (resident LRU stack)
//   CLOCK : kClockRing (resident ring; per-node referenced bit)
//   2Q    : kA1in (resident FIFO), kAm (resident LRU), kA1out (ghost FIFO)
//   ARC   : kT1/kT2 (resident), kB1/kB2 (ghosts)
// Ghost lists hold identities only: no block, never dirty, off the per-inode
// and dirty chains, invisible to Lookup/Contains.
enum class CacheListId : uint8_t {
  kNone = 0,  // free slab node
  kLruList,
  kClockRing,
  kA1in,
  kAm,
  kA1out,
  kT1,
  kT2,
  kB1,
  kB2,
};

inline constexpr size_t kNumCacheLists = 10;

inline constexpr bool IsGhostList(CacheListId id) {
  return id == CacheListId::kA1out || id == CacheListId::kB1 || id == CacheListId::kB2;
}

inline constexpr bool IsResidentList(CacheListId id) {
  return id != CacheListId::kNone && !IsGhostList(id);
}

// Sizing derived from (kind, capacity): 2Q's A1in threshold and A1out bound,
// ARC's c, and the worst-case number of live (resident + ghost) slab nodes.
// The cache pre-sizes its slab and hash table from max_live_nodes so the
// steady state never allocates or rehashes.
struct PolicyGeometry {
  size_t kin = 0;             // 2Q: prefer evicting A1in while |A1in| > kin
  size_t kout = 0;            // 2Q: A1out ghost-list bound
  size_t arc_c = 0;           // ARC: cache size c
  size_t max_live_nodes = 0;  // slab bound, including eviction-time transients

  static PolicyGeometry For(EvictionPolicyKind kind, size_t capacity_pages);
};

}  // namespace fsbench

#endif  // SRC_SIM_EVICTION_POLICY_H_
