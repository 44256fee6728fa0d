// Open-addressing index of 32-bit ids: the one hash table behind the
// simulator's keyed slabs (PageCache and FlashTier pages, InodeTable
// inodes, Directory names).
//
// Owners keep their keys in a slab of their own and store only slab ids
// here, so a slot is 4 bytes whatever the key. The index never sees a key;
// each operation takes the owner's view of its ids as callables:
//
//   match(id)        true iff id's key is the key being probed for
//   hash_of(id)      hash of id's key; its home slot is hash & mask
//   moved(id, slot)  id now sits at `slot` (shifted back by an erase, or
//                    placed by a rehash); owners that cache each id's slot
//                    for probe-free erase update it here
//
// Collisions resolve by linear probing. Erase is backward-shift deletion
// (Knuth, TAOCP vol. 3, 6.4, Algorithm R): no tombstones accumulate and
// every id stays reachable from its home through an unbroken run. One load
// rule holds for every owner: at most 7/10 of the slots are occupied.
// Insert doubles the table before one more id would break it; Reserve(n)
// sizes an empty index for n ids, so an owner with a known bound never
// rehashes at steady state.
//
// Which slot an id occupies depends on table geometry and insertion
// history, so walking the slots (begin()/end()) visits ids in no meaningful
// order; detlint's R1 flags such walks unless annotated order-insensitive.
#ifndef SRC_SIM_FLAT_INDEX_H_
#define SRC_SIM_FLAT_INDEX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fsbench {

class FlatIndex {
 public:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  // `moved` for owners that keep no slot back-pointers.
  struct NoBackPointers {
    void operator()(uint32_t /*id*/, size_t /*slot*/) const {}
  };

  FlatIndex() : slots_(kMinSlots, kEmpty), mask_(kMinSlots - 1) {}

  size_t size() const { return size_; }
  size_t slot_count() const { return slots_.size(); }

  // The id at `slot`, or kEmpty.
  uint32_t at(size_t slot) const { return slots_[slot]; }

  // Every slot in table order, kEmpty included.
  const uint32_t* begin() const { return slots_.data(); }
  const uint32_t* end() const { return slots_.data() + slots_.size(); }

  // Slot of the id `match` accepts, else the empty slot ending the probe
  // run from `hash`'s home.
  template <typename Match>
  size_t Probe(size_t hash, Match match) const {
    size_t slot = hash & mask_;
    for (;;) {
      const uint32_t id = slots_[slot];
      if (id == kEmpty || match(id)) {
        return slot;
      }
      slot = (slot + 1) & mask_;
    }
  }

  // How many steps past `hash`'s home `slot` lies, cyclically.
  size_t Distance(size_t hash, size_t slot) const { return (slot - hash) & mask_; }

  // Stores `id`, whose key hashes to `hash` and is absent, at `slot`: the
  // empty slot Probe returned for that key. If one more id would break the
  // load rule the table doubles first and the id goes to the end of its run
  // in the new table. Returns the slot the id landed in.
  template <typename HashOf, typename Moved = NoBackPointers>
  size_t Insert(size_t slot, uint32_t id, size_t hash, HashOf hash_of, Moved moved = {}) {
    if (!Fits(size_ + 1, slots_.size())) [[unlikely]] {
      slot = Grow(hash, hash_of, moved);
    }
    assert(slots_[slot] == kEmpty);
    slots_[slot] = id;
    ++size_;
    return slot;
  }

  // Swaps the id at occupied `slot` for another id of the same key.
  void Replace(size_t slot, uint32_t id) {
    assert(slots_[slot] != kEmpty);
    slots_[slot] = id;
  }

  // Removes the id at occupied `slot`. The backward shift moves back every
  // later id of the run whose home does not lie cyclically in (hole, slot],
  // reporting each through `moved`. Returns the slot finally left empty.
  template <typename HashOf, typename Moved = NoBackPointers>
  size_t Erase(size_t slot, HashOf hash_of, Moved moved = {}) {
    assert(slots_[slot] != kEmpty);
    size_t hole = slot;
    for (;;) {
      slot = (slot + 1) & mask_;
      const uint32_t id = slots_[slot];
      if (id == kEmpty) {
        break;
      }
      if (Distance(hash_of(id), slot) < Distance(hole, slot)) {
        continue;  // home lies after the hole: still reachable
      }
      slots_[hole] = id;
      moved(id, hole);
      hole = slot;
    }
    slots_[hole] = kEmpty;
    --size_;
    return hole;
  }

  // Rebuilds the table with at least `min_slots` slots (rounded up to a
  // power of two, never shrinking), reporting every id's new slot.
  template <typename HashOf, typename Moved = NoBackPointers>
  void Rehash(size_t min_slots, HashOf hash_of, Moved moved = {}) {
    std::vector<uint32_t> old = std::move(slots_);
    size_t count = old.size();
    while (count < min_slots) {
      count <<= 1;
    }
    slots_.assign(count, kEmpty);
    mask_ = count - 1;
    for (const uint32_t id : old) {
      if (id != kEmpty) {
        const size_t slot = Probe(hash_of(id), [](uint32_t) { return false; });
        slots_[slot] = id;
        moved(id, slot);
      }
    }
  }

  // Sizes an empty index so `n` ids fit under the load rule.
  void Reserve(size_t n) {
    assert(size_ == 0);
    size_t count = slots_.size();
    while (!Fits(n, count)) {
      count <<= 1;
    }
    slots_.assign(count, kEmpty);
    mask_ = count - 1;
  }

  // Drops every id; the table keeps its size.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

 private:
  static constexpr size_t kMinSlots = 16;

  // Insert's rare growth: doubles the table and returns the empty slot that
  // ends `hash`'s run in it. Out of line, so Insert inlines into hot callers.
  template <typename HashOf, typename Moved>
  [[gnu::noinline]] size_t Grow(size_t hash, HashOf hash_of, Moved moved) {
    Rehash(2 * slots_.size(), hash_of, moved);
    return Probe(hash, [](uint32_t) { return false; });
  }

  // The load rule: `n` ids in `slots` slots is at most 7/10 full.
  static bool Fits(size_t n, size_t slots) { return n * 10 <= slots * 7; }

  std::vector<uint32_t> slots_;
  size_t mask_;
  size_t size_ = 0;
};

}  // namespace fsbench

#endif  // SRC_SIM_FLAT_INDEX_H_
