// Simulated unified page cache, slab-backed.
//
// Holds (inode, page-index) keys with a dirty bit and the device block the
// page maps to (so evicted dirty pages can be written back without another
// mapping lookup). Capacity is fixed in pages; the eviction policy (LRU,
// CLOCK, 2Q, ARC) is selected at construction.
//
// Layout: a PageSlab (src/sim/page_slab.h) maps PageKey -> node id and
// holds each node's key, cached hash and table slot. The cache keeps the
// rest of a node in parallel arrays of its own, indexed by the same id
// ("structure of arrays": each access class lives in its own dense array, so
// a hot path only pulls the cache lines it needs):
//
//   slab_           PageKey ──hash──> node id n, plus keys, hashes, slots
//   list_meta_[n]   packed {list id, dirty, referenced} byte
//   links_[n]       IndexList links of the policy list tagged by the list id
//   dirty_links_[n] IndexList links of the dirty FIFO (resident dirty nodes)
//   blocks_[n]      backing device block
//
// Ghost pages (2Q A1out, ARC B1/B2) live in the same table and slab, tagged
// by their list id, so a single probe answers "resident? ghost? absent?".
// Consequences:
//   - Lookup / MarkDirty / Remove: one hash probe + O(1) index splices.
//   - Insert: one probe on the hit path; the miss path re-probes once after
//     eviction has mutated the table, and reports victims into a caller
//     buffer instead of a heap-allocated vector.
//   - RemoveRange / TakeDirtyFile: one probe per page of the range the file
//     system names (FileSystem::PageEnd bounds a file's cached pages).
//   - TakeDirty: pops the dirty chain head, O(pages taken), in deterministic
//     first-dirtied order (FIFO writeback).
// The slab and table are pre-sized from PolicyGeometry::max_live_nodes, so
// steady-state operation never allocates or rehashes.
//
// Run memo: LookupRun keeps the node ids of the last few runs it resolved
// (run_memo_, replaced round-robin), so a repeated directory scan skips its
// probes. A node id names the same key until DropNode frees it, and a
// resident node leaves residency only in EvictOne or RemoveResidentNode.
// Both bump resident_epoch_, and the memo is emptied whenever its epoch is
// behind, so every entry it holds names resident nodes with their keys.
#ifndef SRC_SIM_PAGE_CACHE_H_
#define SRC_SIM_PAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/eviction_policy.h"
#include "src/sim/flat_index.h"
#include "src/sim/page_slab.h"
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

  // Lookup of a run in one call: the `chain` keys are looked up again before
  // each page {ino, first_page + i}, i < pages, so the run stands for the
  // sequence chain, page 0, chain, page 1, ... Each key is probed once. If
  // every key is resident, applies the hits of that sequence and returns
  // true. Otherwise returns false and changes nothing, misses included: the
  // caller then makes the lookups one by one. A run resolved since the last
  // page left the cache is answered from the run memo without probing.
  bool LookupRun(std::span<const PageKey> chain, InodeId ino, uint64_t first_page,
                 uint32_t pages);

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

  // Marks a resident page dirty; returns false, changing nothing, if it is
  // not resident or is cached as a hole (kInvalidBlock), which needs a
  // block before it can be dirtied.
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

  // Collects the dirty pages {ino, p}, p < end_page, into `out` (cleared
  // first) in page order, marking them clean; other files' dirty pages are
  // untouched. One probe per page: Fsync passes the file's
  // FileSystem::PageEnd, so it writes back exactly one file instead of
  // draining the global dirty set. Returns the number taken.
  size_t TakeDirtyFile(InodeId ino, uint64_t end_page, std::vector<Evicted>* out);

  // Takes one specific page if it is resident and dirty, appending it to
  // `out` (NOT cleared) and marking it clean. Fsync uses this for the
  // file's own metadata blocks (inode table, indirect/extent nodes), which
  // are keyed under kMetaInode and so invisible to TakeDirtyFile.
  bool TakeDirtyPage(const PageKey& key, std::vector<Evicted>* out);

  size_t dirty_count() const { return dirty_.size(); }

  // Invalidates one page / pages [first_page, end_page) of a file /
  // everything. Dirty contents are discarded (callers invalidate after
  // freeing blocks, as unlink does). Ghost entries are untouched, matching
  // the policies' view that a dropped page was still "seen recently".
  // RemoveRange is one Remove per page of the range.
  void Remove(const PageKey& key);
  void RemoveRange(InodeId ino, uint64_t first_page, uint64_t end_page);
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

  // Deep structural check for tests: list/table/count consistency.
  // On failure, `why` (when non-null) names the violated invariant.
  bool CheckInvariants(const char** why = nullptr) const;

 private:
  static constexpr uint32_t kNil = FlatIndex::kEmpty;

  // Packed per-node state byte: low 4 bits CacheListId, bit 4 dirty,
  // bit 5 CLOCK referenced.
  static constexpr uint8_t kListMask = 0x0F;
  static constexpr uint8_t kDirtyBit = 0x10;
  static constexpr uint8_t kReferencedBit = 0x20;

  CacheListId ListOf(uint32_t n) const {
    return static_cast<CacheListId>(list_meta_[n] & kListMask);
  }
  void SetList(uint32_t n, CacheListId id) {
    list_meta_[n] = static_cast<uint8_t>((list_meta_[n] & ~kListMask) |
                                         static_cast<uint8_t>(id));
  }
  bool IsDirty(uint32_t n) const { return (list_meta_[n] & kDirtyBit) != 0; }
  bool IsResidentNode(uint32_t n) const { return IsResidentList(ListOf(n)); }

  // --- slab ---
  uint32_t NewNode(const PageKey& key, uint32_t hash);
  // Erases n from the table, counting the erase for Insert's re-probe, and
  // frees it; no unlinking.
  void DropNode(uint32_t n);

  // --- intrusive policy lists ---
  IndexList& AnchorOf(CacheListId id) { return lists_[static_cast<size_t>(id)]; }
  const IndexList& AnchorOf(CacheListId id) const { return lists_[static_cast<size_t>(id)]; }
  void ListPushFront(CacheListId id, uint32_t n) {
    SetList(n, id);
    AnchorOf(id).PushFront(links_, n);
  }
  void ListUnlink(uint32_t n) { AnchorOf(ListOf(n)).Unlink(links_, n); }
  void ListMoveToFront(uint32_t n) { AnchorOf(ListOf(n)).MoveToFront(links_, n); }

  // --- dirty FIFO ---
  void DirtyChainAppend(uint32_t n) {
    list_meta_[n] |= kDirtyBit;
    dirty_.InsertBefore(dirty_links_, kNil, n);
  }
  void DirtyChainUnlink(uint32_t n) {
    list_meta_[n] = static_cast<uint8_t>(list_meta_[n] & ~kDirtyBit);
    dirty_.Unlink(dirty_links_, n);
  }

  // --- policy transitions ---
  // Whether a hit on resident node n only moves it to the front of its own
  // list (LRU, 2Q's Am, ARC's T2); LookupRun splices such moves in blocks.
  bool HitMovesToFront(uint32_t n) const;
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
  void RemoveResidentNode(uint32_t n);
  void FreeGhostNode(uint32_t n);

  // --- run memo ---
  static constexpr uint32_t kRunMemoEntries = 8;
  static constexpr uint32_t kRunMemoChainKeys = 4;  // MapPage's longest chain
  // A resolved run: its identity, and its node ids, chain first, then pages.
  struct RunMemoEntry {
    InodeId ino = kInvalidInode;
    uint64_t first_page = 0;
    uint32_t pages = 0;
    uint32_t chain_size = 0;
    PageKey chain[kRunMemoChainKeys];
    std::vector<uint32_t> nodes;
  };
  const RunMemoEntry* FindRunMemo(std::span<const PageKey> chain, InodeId ino,
                                  uint64_t first_page, uint32_t pages) const;
  // Probes every key of the run into run_nodes_; false if one is not resident.
  bool ProbeRun(std::span<const PageKey> chain, InodeId ino, uint64_t first_page,
                uint32_t pages);
  // Every key of `entry` finds its recorded node, and the node is resident.
  bool RunMemoMatchesTable(const RunMemoEntry& entry) const;

  size_t capacity_;
  EvictionPolicyKind kind_;
  PolicyGeometry geometry_;

  // Per-node arrays indexed by slab id (see the layout comment atop this
  // header). The slab and these are pre-reserved to
  // geometry_.max_live_nodes.
  PageSlab slab_;
  std::vector<uint8_t> list_meta_;
  std::vector<IndexLink> links_;
  std::vector<IndexLink> dirty_links_;
  std::vector<BlockId> blocks_;

  size_t table_erase_count_ = 0;  // monotone; detects probe-run invalidation
  size_t last_erase_hole_ = 0;    // final hole of the latest backward shift

  IndexList lists_[kNumCacheLists];
  uint32_t clock_hand_ = kNil;  // kNil doubles as the ring's "end" position
  double arc_p_ = 0.0;

  IndexList dirty_;  // head: oldest first-dirtied page

  size_t resident_count_ = 0;
  size_t live_count_ = 0;  // resident + ghost
  // Bumped whenever a resident node leaves residency (EvictOne,
  // RemoveResidentNode); the run memo is valid only within one epoch.
  uint64_t resident_epoch_ = 0;
  PageCacheStats stats_;

  std::vector<uint32_t> run_nodes_;  // LookupRun's probed nodes, reused
  RunMemoEntry run_memo_[kRunMemoEntries];
  uint64_t run_memo_epoch_ = 0;  // resident_epoch_ the entries belong to
  uint32_t run_memo_size_ = 0;   // entries [0, size) are valid
  uint32_t run_memo_next_ = 0;   // the entry the next record replaces
};

// --- inline hot path --------------------------------------------------------

inline bool PageCache::HitMovesToFront(uint32_t n) const {
  switch (kind_) {
    case EvictionPolicyKind::kLru:
      return true;
    case EvictionPolicyKind::kClock:
      return false;
    case EvictionPolicyKind::kTwoQueue:
      return ListOf(n) == CacheListId::kAm;
    case EvictionPolicyKind::kArc:
      return ListOf(n) == CacheListId::kT2;
  }
  return false;
}

inline void PageCache::PolicyResidentAccess(uint32_t n) {
  if (HitMovesToFront(n)) {
    ListMoveToFront(n);
  } else if (kind_ == EvictionPolicyKind::kClock) {
    list_meta_[n] |= kReferencedBit;
  } else if (kind_ == EvictionPolicyKind::kArc) {
    // A T1 hit moves the page to T2 MRU, as a T2 hit does above.
    ListUnlink(n);
    ListPushFront(CacheListId::kT2, n);
  }
  // 2Q: hits in A1in deliberately do not promote (classic 2Q).
}

inline bool PageCache::Contains(const PageKey& key) const {
  const uint32_t n = slab_.Find(key);
  return n != kNil && IsResidentNode(n);
}

inline bool PageCache::Lookup(const PageKey& key) {
  const uint32_t n = slab_.Find(key);
  if (n == kNil || !IsResidentNode(n)) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  PolicyResidentAccess(n);
  return true;
}

inline bool PageCache::MarkDirty(const PageKey& key) {
  const uint32_t n = slab_.Find(key);
  if (n == kNil || !IsResidentNode(n) || blocks_[n] == kInvalidBlock) {
    return false;
  }
  if (!IsDirty(n)) {
    DirtyChainAppend(n);
  }
  return true;
}

}  // namespace fsbench

#endif  // SRC_SIM_PAGE_CACHE_H_
