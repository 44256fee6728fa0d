// The slab and intrusive list under both page-keyed cache tiers, PageCache
// (src/sim/page_cache.h) and FlashTier (src/sim/flash_tier.h).
//
// PageSlab holds what every page-keyed node has, in arrays indexed by a
// 32-bit node id, plus the FlatIndex (src/sim/flat_index.h) from keys to
// live ids:
//
//   table_      PageKey ──hash──> node id n (linear probe, backward shift)
//   keys_[n]    identity, compared while probing; a freed node keeps its
//               last key, which nothing reads until Alloc overwrites it
//   hashes_[n]  cached key hash (backward-shift homes)
//   slots_[n]   live node: its table slot (probe-free erase);
//               free node: the next id on the free list
//
// Owners keep their other per-node fields in arrays of their own. Alloc
// recycles the most recently freed id, else returns a fresh id equal to the
// old node count, for which the owner grows its arrays. So ids, and with
// them the table geometry, depend only on the owner's operation sequence.
//
// IndexList is a doubly linked list (head, tail, length) threaded through
// an owner's IndexLink array; several lists can share one array.
// SpliceToFront moves an adjacent segment to the head in O(1), which is how
// PageCache::LookupRun applies a run's recency moves in blocks.
#ifndef SRC_SIM_PAGE_SLAB_H_
#define SRC_SIM_PAGE_SLAB_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/eviction_policy.h"
#include "src/sim/flat_index.h"
#include "src/sim/types.h"

namespace fsbench {

class PageSlab {
 public:
  static constexpr uint32_t kNil = FlatIndex::kEmpty;

  static uint32_t Hash(const PageKey& key) {
    return static_cast<uint32_t>(PageKeyHash{}(key));
  }

  // Sizes the slab and table so `max_nodes` nodes never allocate or rehash.
  void Reserve(size_t max_nodes) {
    keys_.reserve(max_nodes);
    hashes_.reserve(max_nodes);
    slots_.reserve(max_nodes);
    table_.Reserve(max_nodes);
  }

  // Ids handed out so far, free ones included; every id is below it.
  size_t node_count() const { return keys_.size(); }
  const PageKey& key(uint32_t n) const { return keys_[n]; }

  // The key's slot, or the empty slot ending its probe run.
  size_t Probe(const PageKey& key, uint32_t hash) const {
    return table_.Probe(hash, [this, &key](uint32_t n) { return keys_[n] == key; });
  }
  // The live node at `slot`, or kNil.
  uint32_t at(size_t slot) const { return table_.at(slot); }
  uint32_t Find(const PageKey& key) const { return at(Probe(key, Hash(key))); }
  // How many steps past `hash`'s home `slot` lies, cyclically.
  size_t Distance(uint32_t hash, size_t slot) const { return table_.Distance(hash, slot); }

  // A node holding `key`, not yet in the table.
  uint32_t Alloc(const PageKey& key, uint32_t hash) {
    uint32_t n = free_top_;
    if (n != kNil) {
      free_top_ = slots_[n];
      keys_[n] = key;
      hashes_[n] = hash;
    } else {
      n = static_cast<uint32_t>(keys_.size());
      keys_.push_back(key);
      hashes_.push_back(hash);
      slots_.push_back(0);
    }
    return n;
  }

  // Stores node n at `slot`: the empty slot Probe returned for its key.
  void Insert(size_t slot, uint32_t n) {
    slots_[n] = static_cast<uint32_t>(table_.Insert(
        slot, n, hashes_[n], [this](uint32_t id) { return hashes_[id]; },
        [this](uint32_t id, size_t to) { slots_[id] = static_cast<uint32_t>(to); }));
  }

  // Takes node n out of the table without probing: the backward shift
  // starts at slots_[n] and keeps every moved node's slot current. Returns
  // the slot finally left empty.
  size_t Erase(uint32_t n) {
    assert(table_.at(slots_[n]) == n);
    return table_.Erase(
        slots_[n], [this](uint32_t id) { return hashes_[id]; },
        [this](uint32_t id, size_t to) { slots_[id] = static_cast<uint32_t>(to); });
  }

  // Puts erased node n on the free list.
  void Free(uint32_t n) {
    slots_[n] = free_top_;
    free_top_ = n;
  }

  // Rebuilds the table with at least `min_slots` slots.
  void Rehash(size_t min_slots) {
    table_.Rehash(
        min_slots, [this](uint32_t id) { return hashes_[id]; },
        [this](uint32_t id, size_t to) { slots_[id] = static_cast<uint32_t>(to); });
  }

  // Starts loading the key and slot of node n, which erasing it reads.
  void Prefetch(uint32_t n) const {
    __builtin_prefetch(&keys_[n]);
    __builtin_prefetch(&slots_[n]);
  }

  // Drops every node and id: the next Alloc returns id 0.
  void Clear() {
    table_.Clear();
    keys_.clear();
    hashes_.clear();
    slots_.clear();
    free_top_ = kNil;
  }

  // Deep checks for tests. CheckNode: live node n's key probes to n, and its
  // cached slot and hash are current. CheckPopulation: the table holds
  // exactly `live` nodes.
  bool CheckNode(uint32_t n) const {
    return Find(keys_[n]) == n && table_.at(slots_[n]) == n && hashes_[n] == Hash(keys_[n]);
  }
  bool CheckPopulation(size_t live) const {
    // A count, so the slot order of the walk does not matter.
    size_t entries = 0;
    // detlint: order-insensitive
    for (const uint32_t n : table_) {
      entries += n != kNil ? 1 : 0;
    }
    return entries == live && table_.size() == live;
  }

 private:
  std::vector<PageKey> keys_;
  std::vector<uint32_t> hashes_;
  std::vector<uint32_t> slots_;
  uint32_t free_top_ = kNil;
  FlatIndex table_;
};

struct IndexLink {
  uint32_t prev = FlatIndex::kEmpty;
  uint32_t next = FlatIndex::kEmpty;
};

class IndexList {
 public:
  static constexpr uint32_t kNil = FlatIndex::kEmpty;

  uint32_t head() const { return head_; }  // front (MRU end)
  uint32_t tail() const { return tail_; }  // back (LRU end)
  size_t size() const { return length_; }

  void PushFront(std::vector<IndexLink>& links, uint32_t n) {
    IndexLink& link = links[n];
    link.prev = kNil;
    link.next = head_;
    if (head_ != kNil) {
      links[head_].prev = n;
    } else {
      tail_ = n;
    }
    head_ = n;
    ++length_;
  }

  // Links n in front of member `pos`; pos == kNil links it at the back.
  void InsertBefore(std::vector<IndexLink>& links, uint32_t pos, uint32_t n) {
    IndexLink& link = links[n];
    link.next = pos;
    if (pos == kNil) {
      link.prev = tail_;
      tail_ = n;
    } else {
      link.prev = links[pos].prev;
      links[pos].prev = n;
    }
    if (link.prev != kNil) {
      links[link.prev].next = n;
    } else {
      head_ = n;
    }
    ++length_;
  }

  // Takes member n off the list and resets its link.
  void Unlink(std::vector<IndexLink>& links, uint32_t n) {
    IndexLink& link = links[n];
    if (link.prev != kNil) {
      links[link.prev].next = link.next;
    } else {
      head_ = link.next;
    }
    if (link.next != kNil) {
      links[link.next].prev = link.prev;
    } else {
      tail_ = link.prev;
    }
    --length_;
    link = IndexLink{};
  }

  void MoveToFront(std::vector<IndexLink>& links, uint32_t n) {
    if (head_ != n) {
      Unlink(links, n);
      PushFront(links, n);
    }
  }

  // Moves the members first .. last, adjacent in that order from the front,
  // to the front in one splice: the list MoveToFront(last), ...,
  // MoveToFront(first) would leave.
  void SpliceToFront(std::vector<IndexLink>& links, uint32_t first, uint32_t last) {
    if (head_ == first) {
      return;
    }
    const uint32_t before = links[first].prev;
    const uint32_t after = links[last].next;
    links[before].next = after;
    if (after != kNil) {
      links[after].prev = before;
    } else {
      tail_ = before;
    }
    links[first].prev = kNil;
    links[last].next = head_;
    links[head_].prev = last;
    head_ = first;
  }

 private:
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  size_t length_ = 0;
};

}  // namespace fsbench

#endif  // SRC_SIM_PAGE_SLAB_H_
