// detlint fixture: R1 violations over FlatIndex, the simulator's
// open-addressing index, whose slot order is set by table geometry. Not
// compiled; scanned by detlint_test as src/sim/r1_flat_index_bad.cc.
#include "src/sim/flat_index.h"

namespace fixture {

struct Slab {
  fsbench::FlatIndex index_;
  unsigned long charge_ = 0;

  // BAD: range-for over a FlatIndex member charges ids in probe order.
  void ChargeAll() {
    for (const unsigned id : index_) {
      charge_ += id;
    }
  }

  // BAD: iterator-walk form, through a reference parameter.
  static unsigned FirstSlot(const fsbench::FlatIndex& index) { return *index.begin(); }
};

}  // namespace fixture
