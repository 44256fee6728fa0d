#include "src/sim/eviction_policy.h"

#include <algorithm>

namespace fsbench {

const char* EvictionPolicyKindName(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return "lru";
    case EvictionPolicyKind::kClock:
      return "clock";
    case EvictionPolicyKind::kTwoQueue:
      return "2q";
    case EvictionPolicyKind::kArc:
      return "arc";
  }
  return "?";
}

PolicyGeometry PolicyGeometry::For(EvictionPolicyKind kind, size_t capacity_pages) {
  PolicyGeometry geometry;
  switch (kind) {
    case EvictionPolicyKind::kLru:
    case EvictionPolicyKind::kClock:
      geometry.max_live_nodes = capacity_pages;
      break;
    case EvictionPolicyKind::kTwoQueue:
      geometry.kin = std::max<size_t>(1, capacity_pages / 4);
      geometry.kout = std::max<size_t>(1, capacity_pages / 2);
      // Transient peak inside an eviction: |resident| = capacity - 1 plus
      // A1out briefly at kout + 1 before the trim, plus the incoming page.
      geometry.max_live_nodes = capacity_pages + geometry.kout + 1;
      break;
    case EvictionPolicyKind::kArc:
      geometry.arc_c = std::max<size_t>(1, capacity_pages);
      // ARC maintains |T1|+|T2|+|B1|+|B2| <= 2c (ghosts are trimmed before a
      // brand-new key enters T1); +1 covers the incoming page.
      geometry.max_live_nodes = 2 * geometry.arc_c + 1;
      break;
  }
  geometry.max_live_nodes = std::max<size_t>(1, geometry.max_live_nodes);
  return geometry;
}

}  // namespace fsbench
