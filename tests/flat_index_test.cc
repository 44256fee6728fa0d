// FlatIndex against std::unordered_map under random inserts, erases and
// growths. The test hash sends half the keys to one of the last few slots of
// the table, whatever its size, so probe runs wrap past the last slot and
// backward shifts move ids across the wrap; the other half scatter, so a
// growth moves ids to new places.
#include "src/sim/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"

namespace fsbench {
namespace {

constexpr uint64_t kHomes = 5;

// Even keys home on one of the table's last kHomes slots; odd keys scatter.
size_t ClusteredHash(uint64_t key) {
  return key % 2 == 0 ? ~size_t{0} - key / 2 % kHomes : key * 0x9e3779b97f4a7c15ULL;
}

// A FlatIndex owner shaped like PageCache and FlashTier: keys live in a slab
// indexed by id, and each id's slot is kept through the moved callback.
class Owner {
  // (Defined first: the members below use their deduced types.)
  auto HashOf() const {
    return [this](uint32_t id) { return ClusteredHash(keys_[id]); };
  }
  auto Moved() {
    return [this](uint32_t id, size_t slot) { slot_of_[id] = slot; };
  }

 public:
  size_t Probe(uint64_t key) const {
    return index_.Probe(ClusteredHash(key), [this, key](uint32_t id) { return keys_[id] == key; });
  }

  uint32_t Insert(uint64_t key) {
    const size_t slot = Probe(key);
    EXPECT_EQ(index_.at(slot), FlatIndex::kEmpty);
    const uint32_t id = NewId(key);
    slot_of_[id] = index_.Insert(slot, id, ClusteredHash(key), HashOf(), Moved());
    return id;
  }

  void Erase(uint32_t id) {
    index_.Erase(slot_of_[id], HashOf(), [this](uint32_t moved, size_t slot) {
      // A backward shift moves an id to an earlier slot, cyclically; a
      // numerically later one means the shift crossed the wrap.
      wrapped_shifts_ += slot > slot_of_[moved] ? 1 : 0;
      slot_of_[moved] = slot;
    });
    free_ids_.push_back(id);
  }

  void Grow() { index_.Rehash(2 * index_.slot_count(), HashOf(), Moved()); }

  const FlatIndex& index() const { return index_; }
  size_t slot_of(uint32_t id) const { return slot_of_[id]; }
  size_t wrapped_shifts() const { return wrapped_shifts_; }

 private:
  uint32_t NewId(uint64_t key) {
    if (free_ids_.empty()) {
      keys_.push_back(key);
      slot_of_.push_back(0);
      return static_cast<uint32_t>(keys_.size() - 1);
    }
    const uint32_t id = free_ids_.back();
    free_ids_.pop_back();
    keys_[id] = key;
    return id;
  }

  FlatIndex index_;
  std::vector<uint64_t> keys_;
  std::vector<size_t> slot_of_;
  std::vector<uint32_t> free_ids_;
  size_t wrapped_shifts_ = 0;
};

// One random run from an empty index, checking the index against the
// reference after every op and tallying what the run exercised.
void RunRandomOps(uint64_t seed, size_t* wrapped_runs, size_t* wrapped_shifts,
                  size_t* growths) {
  Rng rng(seed);
  Owner owner;
  std::unordered_map<uint64_t, uint32_t> live;  // key -> id
  std::vector<uint64_t> live_keys;
  std::vector<uint64_t> erased_keys;
  uint64_t next_key = 1;

  for (int op = 0; op < 800; ++op) {
    // Grow the population toward ~150 keys, then churn around it.
    const double roll = rng.NextDouble();
    const size_t slots_before = owner.index().slot_count();
    if (live_keys.empty() || roll < (live_keys.size() < 150 ? 0.6 : 0.45) ||
        (roll >= 0.98 && slots_before >= 2048)) {
      const uint64_t key = next_key++;
      live[key] = owner.Insert(key);
      live_keys.push_back(key);
    } else if (roll < 0.98) {
      const size_t pick = rng.NextBelow(live_keys.size());
      const uint64_t key = live_keys[pick];
      owner.Erase(live[key]);
      live.erase(key);
      live_keys[pick] = live_keys.back();
      live_keys.pop_back();
      erased_keys.push_back(key);
    } else {
      owner.Grow();
    }
    *growths += owner.index().slot_count() > slots_before ? 1 : 0;

    const FlatIndex& index = owner.index();
    ASSERT_EQ(index.size(), live.size()) << "op " << op;
    for (const uint64_t key : live_keys) {
      const uint32_t id = live.at(key);
      const size_t slot = owner.Probe(key);
      ASSERT_EQ(index.at(slot), id) << "live key " << key << " lost at op " << op;
      ASSERT_EQ(owner.slot_of(id), slot) << "stale back-pointer for key " << key << " at op "
                                         << op;
      *wrapped_runs += slot < (ClusteredHash(key) & (index.slot_count() - 1)) ? 1 : 0;
    }
    for (const uint64_t key : erased_keys) {
      ASSERT_EQ(index.at(owner.Probe(key)), FlatIndex::kEmpty)
          << "erased key " << key << " found at op " << op;
    }
    size_t occupied = 0;
    // detlint: order-insensitive
    for (const uint32_t id : index) {
      occupied += id != FlatIndex::kEmpty ? 1 : 0;
    }
    ASSERT_EQ(occupied, live.size()) << "op " << op;
  }
  *wrapped_shifts += owner.wrapped_shifts();
}

TEST(FlatIndexTest, RandomOpsMatchUnorderedMapAcrossWrapAround) {
  size_t wrapped_runs = 0;
  size_t wrapped_shifts = 0;
  size_t growths = 0;
  // Several runs from empty: each grows the table through its small sizes,
  // where an insert that triggers growth must find a new slot.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    RunRandomOps(seed, &wrapped_runs, &wrapped_shifts, &growths);
  }
  // The runs really exercised what they are for.
  EXPECT_GT(wrapped_runs, 0u) << "no probe run wrapped past the last slot";
  EXPECT_GT(wrapped_shifts, 0u) << "no backward shift crossed the wrap";
  EXPECT_GE(growths, 20u);
}

TEST(FlatIndexTest, ReserveHoldsTheLoadRuleWithoutGrowing) {
  FlatIndex reserved;
  reserved.Reserve(1000);
  // 1000 ids at <= 0.7 load need 2048 slots; 1024 would be 0.98 full.
  EXPECT_EQ(reserved.slot_count(), 2048u);
  for (uint32_t id = 0; id < 1000; ++id) {
    const size_t hash = id * 0x9e3779b97f4a7c15ULL;
    const size_t slot = reserved.Probe(hash, [](uint32_t) { return false; });
    reserved.Insert(slot, id, hash, [](uint32_t) -> size_t {
      ADD_FAILURE() << "a reserved index rehashed";
      return 0;
    });
  }
  EXPECT_EQ(reserved.slot_count(), 2048u);
  EXPECT_EQ(reserved.size(), 1000u);
}

}  // namespace
}  // namespace fsbench
