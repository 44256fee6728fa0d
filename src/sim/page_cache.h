// Simulated unified page cache, slab-backed.
//
// Holds (inode, page-index) keys with a dirty bit and the device block the
// page maps to (so evicted dirty pages can be written back without another
// mapping lookup). Capacity is fixed in pages; the eviction policy (LRU,
// CLOCK, 2Q, ARC) is selected at construction.
//
// Layout: one FlatIndex (src/sim/flat_index.h) maps PageKey -> node index
// into a slab of parallel arrays ("structure of arrays": each access class
// lives in its own dense array, so a hot path only pulls the cache lines it
// needs):
//
//   table_ (FlatIndex: linear probe, backward-shift deletion)
//     PageKey ──hash──> node index n ──┐
//                                      v
//   keys_[n]        identity, compared while probing
//   list_meta_[n]   packed {list id, dirty, referenced} byte
//   links_[n]       prev/next of the policy list tagged by the list id
//   ino_links_[n]   per-inode chain (resident nodes)
//   dirty_links_[n] dirty FIFO (resident dirty nodes)
//   blocks_[n]      backing device block
//   hashes_[n]      cached key hash (backward-shift homes)
//   slots_[n]       current table slot (probe-free erase)
//
// Ghost pages (2Q A1out, ARC B1/B2) live in the same table and slab, tagged
// by their list id, so a single probe answers "resident? ghost? absent?".
// Consequences:
//   - Lookup / MarkDirty / Remove: one hash probe + O(1) index splices.
//   - Insert: one probe on the hit path; the miss path re-probes once after
//     eviction has mutated the table, and reports victims into a caller
//     buffer instead of a heap-allocated vector.
//   - RemoveFile: walks the per-inode chain, O(resident pages of the file).
//   - TakeDirty: pops the dirty chain head, O(pages taken), in deterministic
//     first-dirtied order (FIFO writeback).
// The slab and table are pre-sized from PolicyGeometry::max_live_nodes, so
// steady-state operation never allocates or rehashes. A second FlatIndex,
// inode_index_, maps each inode to the head node of its chain.
#ifndef SRC_SIM_PAGE_CACHE_H_
#define SRC_SIM_PAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/eviction_policy.h"
#include "src/sim/flat_index.h"
#include "src/sim/types.h"

namespace fsbench {

struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t dirty_evictions = 0;

  bool operator==(const PageCacheStats& other) const = default;
};

class PageCache {
 public:
  PageCache(size_t capacity_pages, EvictionPolicyKind policy_kind);

  // A page evicted to make room; dirty pages must be written back by the
  // caller to `block`.
  struct Evicted {
    PageKey key;
    BlockId block = kInvalidBlock;
    bool dirty = false;
  };

  // Caller-supplied eviction sink: a fixed inline buffer, so the
  // steady-state miss path never touches the heap. A single Insert evicts at
  // most one page (the cache never exceeds capacity), leaving headroom.
  class EvictedBatch {
   public:
    uint32_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const Evicted& operator[](uint32_t i) const { return items_[i]; }
    const Evicted* begin() const { return items_; }
    const Evicted* end() const { return items_ + count_; }
    void clear() { count_ = 0; }

   private:
    friend class PageCache;
    static constexpr uint32_t kInlineCapacity = 4;
    Evicted items_[kInlineCapacity];
    uint32_t count_ = 0;
  };

  // Membership test without touching recency state or statistics. Ghost
  // entries are not resident. (Defined inline below: Lookup, Contains and
  // MarkDirty are the simulator's hottest calls and inline into callers.)
  bool Contains(const PageKey& key) const;

  // Hit path: returns true and updates the policy's recency state on a hit;
  // records a miss otherwise.
  bool Lookup(const PageKey& key);

  // Lookup of a run in one call: keys[0, chain) are a chain looked up again
  // before each of the page keys that follow, so the run stands for the
  // sequence chain, page 0, chain, page 1, ... Each key is probed once. If
  // every key is resident, applies the hits of that sequence and returns
  // true. Otherwise returns false and changes nothing, misses included: the
  // caller then makes the lookups one by one.
  bool LookupRun(std::span<const PageKey> keys, uint32_t chain);

  // Makes `key` resident (or refreshes it if already resident). Evicts as
  // needed, reporting victims into `evicted` (cleared on entry; may be null
  // to discard). `block` is the device block backing the page
  // (kInvalidBlock for holes).
  void Insert(const PageKey& key, BlockId block, bool dirty, EvictedBatch* evicted);
  EvictedBatch Insert(const PageKey& key, BlockId block, bool dirty) {
    EvictedBatch batch;
    Insert(key, block, dirty, &batch);
    return batch;
  }

  // Marks a resident page dirty; returns false if not resident.
  bool MarkDirty(const PageKey& key);

  // Collects up to `max_pages` dirty pages into `out` (cleared first),
  // marking them clean (the caller is about to write them). Pages come out
  // in the order they were first dirtied (FIFO writeback). Returns the
  // number taken.
  size_t TakeDirty(size_t max_pages, std::vector<Evicted>* out);
  std::vector<Evicted> TakeDirty(size_t max_pages) {
    std::vector<Evicted> out;
    TakeDirty(max_pages, &out);
    return out;
  }

  // Collects every dirty page of one file into `out` (cleared first),
  // marking them clean; other files' dirty pages are untouched. Walks the
  // file's per-inode resident chain — O(resident pages of the file) — which
  // is what lets Fsync write back exactly one file instead of draining the
  // global dirty set. Returns the number taken.
  size_t TakeDirtyFile(InodeId ino, std::vector<Evicted>* out);

  // Takes one specific page if it is resident and dirty, appending it to
  // `out` (NOT cleared) and marking it clean. Fsync uses this for the
  // file's own metadata blocks (inode table, indirect/extent nodes), which
  // are keyed under kMetaInode and so invisible to TakeDirtyFile.
  bool TakeDirtyPage(const PageKey& key, std::vector<Evicted>* out);

  size_t dirty_count() const { return dirty_count_; }

  // Invalidates one page / every page of a file / everything. Dirty contents
  // are discarded (callers invalidate after freeing blocks, as unlink does).
  // Ghost entries are untouched, matching the policies' view that a dropped
  // page was still "seen recently".
  void Remove(const PageKey& key);
  void RemoveFile(InodeId ino);
  void Clear();

  size_t size() const { return resident_count_; }
  size_t capacity() const { return capacity_; }
  const PageCacheStats& stats() const { return stats_; }
  EvictionPolicyKind policy_kind() const { return kind_; }
  const char* policy_name() const { return EvictionPolicyKindName(kind_); }

  // Ghost entries currently tracked (2Q A1out, ARC B1+B2); 0 for LRU/CLOCK.
  size_t ghost_count() const { return live_count_ - resident_count_; }

  // ARC's adaptive T1 target p (0 for other policies); exposed so tests can
  // assert ghost-hit adaptation against a reference implementation.
  double arc_target_t1() const { return arc_p_; }

  // Deep structural check for tests: list/chain/table/count consistency.
  // On failure, `why` (when non-null) names the violated invariant.
  bool CheckInvariants(const char** why = nullptr) const;

 private:
  static constexpr uint32_t kNil = FlatIndex::kEmpty;

  struct Link {
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  // Packed per-node state byte: low 4 bits CacheListId, bit 4 dirty,
  // bit 5 CLOCK referenced.
  static constexpr uint8_t kListMask = 0x0F;
  static constexpr uint8_t kDirtyBit = 0x10;
  static constexpr uint8_t kReferencedBit = 0x20;

  struct ListAnchor {
    uint32_t head = kNil;  // MRU end
    uint32_t tail = kNil;  // LRU end
    size_t size = 0;
  };

  CacheListId ListOf(uint32_t n) const {
    return static_cast<CacheListId>(list_meta_[n] & kListMask);
  }
  void SetList(uint32_t n, CacheListId id) {
    list_meta_[n] = static_cast<uint8_t>((list_meta_[n] & ~kListMask) |
                                         static_cast<uint8_t>(id));
  }
  bool IsDirty(uint32_t n) const { return (list_meta_[n] & kDirtyBit) != 0; }
  bool IsResidentNode(uint32_t n) const { return IsResidentList(ListOf(n)); }

  // --- hash table (PageKey -> node index) ---
  // Erasing goes by node, not key: the backward shift starts directly at
  // slots_[n], takes each displaced node's home from hashes_[] without
  // rehashing, and keeps slots_[] current as it moves nodes.
  static uint32_t HashOf(const PageKey& key) {
    return static_cast<uint32_t>(PageKeyHash{}(key));
  }
  size_t ProbeSlot(const PageKey& key, uint32_t hash) const;  // key slot or first empty
  uint32_t FindNode(const PageKey& key) const;
  void TableInsertAt(size_t slot, uint32_t node);
  void TableEraseNode(uint32_t node);  // probe-free: starts from slots_[node]

  // --- slab ---
  uint32_t AllocNode(const PageKey& key, uint32_t hash);
  void ReleaseNode(uint32_t n);  // to the free list; no unlinking

  // --- intrusive policy lists ---
  ListAnchor& AnchorOf(CacheListId id) { return lists_[static_cast<size_t>(id)]; }
  const ListAnchor& AnchorOf(CacheListId id) const { return lists_[static_cast<size_t>(id)]; }
  void ListPushFront(CacheListId id, uint32_t n);
  void ListLinkBefore(CacheListId id, uint32_t pos, uint32_t n);  // pos==kNil: back
  void ListUnlink(uint32_t n);
  void ListMoveToFront(uint32_t n);

  // --- per-inode chain ---
  // inode_index_ holds each chain's head node; the head's key names the inode.
  size_t InodeProbe(InodeId ino) const {
    return inode_index_.Probe(HashInode(ino),
                              [this, ino](uint32_t head) { return keys_[head].ino == ino; });
  }
  void InodeChainLink(uint32_t n);
  void InodeChainUnlink(uint32_t n);
  void InodeIndexErase(size_t slot);

  // --- dirty FIFO ---
  void DirtyChainAppend(uint32_t n);
  void DirtyChainUnlink(uint32_t n);

  // --- policy transitions ---
  void PolicyResidentAccess(uint32_t n);  // OnAccess of a resident node
  void PolicyInsertNew(uint32_t n);       // brand-new resident node
  void PolicyGhostRevive(uint32_t n);     // ghost node becoming resident
  bool PolicyPrepareNewInsert();          // ARC ghost trim; true if table changed
  // Next victim without moving anything; for CLOCK, where the hand's walk
  // starts.
  uint32_t PeekVictim() const;
  uint32_t PolicyChooseVictim();          // resident node to evict
  void PrefetchVictimHint() const;        // overlap victim lines with the probe
  void PolicyDemoteVictim(uint32_t n);    // ghost transition or free
  void EvictOne(EvictedBatch* evicted);
  void RemoveResidentNode(uint32_t n, bool maintain_inode_chain);
  void FreeGhostNode(uint32_t n);

  size_t capacity_;
  EvictionPolicyKind kind_;
  PolicyGeometry geometry_;

  // Slab: parallel arrays indexed by node id (see the layout comment atop
  // this header). All are pre-reserved to geometry_.max_live_nodes.
  std::vector<PageKey> keys_;
  std::vector<uint8_t> list_meta_;
  std::vector<Link> links_;
  std::vector<Link> ino_links_;
  std::vector<Link> dirty_links_;
  std::vector<BlockId> blocks_;
  std::vector<uint32_t> hashes_;
  std::vector<uint32_t> slots_;
  size_t slab_size_ = 0;         // nodes ever allocated
  uint32_t free_head_ = kNil;    // free list threaded through links_[].next

  FlatIndex table_;
  size_t table_erase_count_ = 0;  // monotone; detects probe-run invalidation
  size_t last_erase_hole_ = 0;    // final hole of the latest backward shift

  ListAnchor lists_[kNumCacheLists];
  uint32_t clock_hand_ = kNil;  // kNil doubles as the ring's "end" position
  double arc_p_ = 0.0;

  FlatIndex inode_index_;

  uint32_t dirty_head_ = kNil;  // oldest first-dirtied page
  uint32_t dirty_tail_ = kNil;

  size_t resident_count_ = 0;
  size_t live_count_ = 0;  // resident + ghost
  size_t dirty_count_ = 0;
  PageCacheStats stats_;

  std::vector<uint32_t> run_nodes_;  // LookupRun's probed nodes, reused
};

// --- inline hot path --------------------------------------------------------

inline size_t PageCache::ProbeSlot(const PageKey& key, uint32_t hash) const {
  return table_.Probe(hash, [this, &key](uint32_t n) { return keys_[n] == key; });
}

inline uint32_t PageCache::FindNode(const PageKey& key) const {
  return table_.at(ProbeSlot(key, HashOf(key)));
}

inline void PageCache::TableInsertAt(size_t slot, uint32_t node) {
  slots_[node] = static_cast<uint32_t>(table_.Insert(
      slot, node, hashes_[node], [this](uint32_t n) { return hashes_[n]; },
      [this](uint32_t n, size_t moved_to) { slots_[n] = static_cast<uint32_t>(moved_to); }));
}

inline void PageCache::ListPushFront(CacheListId id, uint32_t n) {
  ListAnchor& anchor = AnchorOf(id);
  SetList(n, id);
  Link& link = links_[n];
  link.prev = kNil;
  link.next = anchor.head;
  if (anchor.head != kNil) {
    links_[anchor.head].prev = n;
  } else {
    anchor.tail = n;
  }
  anchor.head = n;
  ++anchor.size;
}

inline void PageCache::ListUnlink(uint32_t n) {
  ListAnchor& anchor = AnchorOf(ListOf(n));
  Link& link = links_[n];
  if (link.prev != kNil) {
    links_[link.prev].next = link.next;
  } else {
    anchor.head = link.next;
  }
  if (link.next != kNil) {
    links_[link.next].prev = link.prev;
  } else {
    anchor.tail = link.prev;
  }
  --anchor.size;
  link.prev = link.next = kNil;
}

inline void PageCache::ListMoveToFront(uint32_t n) {
  const CacheListId id = ListOf(n);
  if (AnchorOf(id).head == n) {
    return;
  }
  ListUnlink(n);
  ListPushFront(id, n);
}

inline void PageCache::PolicyResidentAccess(uint32_t n) {
  switch (kind_) {
    case EvictionPolicyKind::kLru:
      ListMoveToFront(n);
      break;
    case EvictionPolicyKind::kClock:
      list_meta_[n] |= kReferencedBit;
      break;
    case EvictionPolicyKind::kTwoQueue:
      // Hits in A1in deliberately do not promote (classic 2Q).
      if (ListOf(n) == CacheListId::kAm) {
        ListMoveToFront(n);
      }
      break;
    case EvictionPolicyKind::kArc:
      // Any resident hit moves the page to T2 MRU.
      if (ListOf(n) == CacheListId::kT1) {
        ListUnlink(n);
        ListPushFront(CacheListId::kT2, n);
      } else {
        ListMoveToFront(n);
      }
      break;
  }
}

inline bool PageCache::Contains(const PageKey& key) const {
  const uint32_t n = FindNode(key);
  return n != kNil && IsResidentNode(n);
}

inline bool PageCache::Lookup(const PageKey& key) {
  const uint32_t n = FindNode(key);
  if (n == kNil || !IsResidentNode(n)) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  PolicyResidentAccess(n);
  return true;
}

inline void PageCache::DirtyChainAppend(uint32_t n) {
  list_meta_[n] |= kDirtyBit;
  Link& link = dirty_links_[n];
  link.prev = dirty_tail_;
  link.next = kNil;
  if (dirty_tail_ != kNil) {
    dirty_links_[dirty_tail_].next = n;
  } else {
    dirty_head_ = n;
  }
  dirty_tail_ = n;
  ++dirty_count_;
}

inline bool PageCache::MarkDirty(const PageKey& key) {
  const uint32_t n = FindNode(key);
  if (n == kNil || !IsResidentNode(n)) {
    return false;
  }
  if (!IsDirty(n)) {
    DirtyChainAppend(n);
  }
  return true;
}

}  // namespace fsbench

#endif  // SRC_SIM_PAGE_CACHE_H_
