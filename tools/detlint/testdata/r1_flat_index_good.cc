// detlint fixture: R1-clean FlatIndex use — probes by key, and a slot walk
// annotated as an order-invariant count. Scanned by detlint_test as
// src/sim/r1_flat_index_good.cc.
#include <vector>

#include "src/sim/flat_index.h"

namespace fixture {

struct Slab {
  fsbench::FlatIndex index_;
  std::vector<unsigned long> keys_;

  // GOOD: a probe by key never observes slot order.
  bool Contains(unsigned long key, unsigned long hash) const {
    const unsigned long slot = index_.Probe(hash, [this, key](unsigned id) { return keys_[id] == key; });
    return index_.at(slot) != fsbench::FlatIndex::kEmpty;
  }

  // GOOD: a pure count, annotated as such.
  unsigned long Occupied() const {
    unsigned long n = 0;
    // detlint: order-insensitive
    for (const unsigned id : index_) {
      n += id != fsbench::FlatIndex::kEmpty ? 1 : 0;
    }
    return n;
  }
};

}  // namespace fixture
