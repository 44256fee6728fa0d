// Second-level (flash) cache tier.
//
// Section 3.1 of the paper predicts that systems with multiple cache levels
// (flash, network) show performance curves with "multiple distinctive
// steps" instead of one memory/disk cliff. This tier models exactly that:
// pages evicted from the RAM page cache land here; a RAM miss probes the
// tier before paying the disk penalty. Latency is a flat device cost
// (~100 us class), far from both RAM (~microsecond) and disk
// (~10 millisecond), which is what creates the middle step.
//
// The tier stores identities only (like the page cache): LRU over PageKeys.
// It holds clean copies, so it needs no backing block: a promoted page's
// block comes from the file system's mapping.
//
// Layout: the page cache's slab scheme, scaled down to one LRU list. A
// PageSlab (src/sim/page_slab.h) maps PageKey -> node id and holds each
// node's key, cached hash and table slot; the tier adds one array:
//
//   slab_       PageKey ──hash──> node id n, plus keys, hashes, slots
//   links_[n]   IndexList links of the LRU list
//
// Steady-state operation never allocates: the slab is bounded by the
// capacity (the tier never holds more than capacity_pages_ entries) and the
// table is sized for it up front. RemoveRange probes each page of the range
// the file system names, as the page cache does, so no walk depends on the
// hash seed or on the slab's size.
#ifndef SRC_SIM_FLASH_TIER_H_
#define SRC_SIM_FLASH_TIER_H_

#include <cstdint>
#include <vector>

#include "src/sim/eviction_policy.h"
#include "src/sim/page_slab.h"
#include "src/sim/types.h"

namespace fsbench {

struct FlashTierConfig {
  Bytes capacity = 1 * kGiB;
};

struct FlashTierStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;

  bool operator==(const FlashTierStats& other) const = default;
};

class FlashTier {
 public:
  static constexpr Nanos kReadLatency = 90 * kMicrosecond;  // device read + DMA

  // The owner sizes the tier in its own pages (FlashTierConfig::capacity
  // over the page-cache page size).
  explicit FlashTier(size_t capacity_pages);

  // Probes the tier; a hit refreshes recency and removes the page (it is
  // being promoted back into RAM — exclusive tiering).
  bool LookupAndPromote(const PageKey& key);

  // Admits a page demoted from RAM; evicts the LRU page when full.
  void Insert(const PageKey& key);

  void Remove(const PageKey& key);
  // One Remove per page {ino, p}, first_page <= p < end_page.
  void RemoveRange(InodeId ino, uint64_t first_page, uint64_t end_page);
  void Clear();

  // Forces the identity table to at least `buckets` slots. Tier behaviour
  // must be identical whatever the table geometry — the determinism
  // regression test drives two differently-sized tiers through one op
  // sequence.
  void RehashForTest(size_t buckets);

  size_t size() const { return lru_.size(); }
  size_t capacity_pages() const { return capacity_pages_; }
  const FlashTierStats& stats() const { return stats_; }
  bool Contains(const PageKey& key) const { return slab_.Find(key) != PageSlab::kNil; }

 private:
  // Full removal of a live node: LRU unlink + table erase + slab release.
  void EraseNode(uint32_t n);

  size_t capacity_pages_;

  // Grows once up to capacity_pages_ nodes, then recycles (see the layout
  // comment atop this header).
  PageSlab slab_;
  std::vector<IndexLink> links_;
  IndexList lru_;

  FlashTierStats stats_;
};

}  // namespace fsbench

#endif  // SRC_SIM_FLASH_TIER_H_
