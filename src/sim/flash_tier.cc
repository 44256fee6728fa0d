#include "src/sim/flash_tier.h"

#include <cassert>

namespace fsbench {

FlashTier::FlashTier(size_t capacity_pages) : capacity_pages_(capacity_pages) {
  assert(capacity_pages_ > 0);
  slab_.Reserve(capacity_pages_);
  links_.reserve(capacity_pages_);
}

void FlashTier::RehashForTest(size_t buckets) { slab_.Rehash(buckets); }

void FlashTier::EraseNode(uint32_t n) {
  lru_.Unlink(links_, n);
  slab_.Erase(n);
  slab_.Free(n);
}

bool FlashTier::LookupAndPromote(const PageKey& key) {
  const uint32_t n = slab_.Find(key);
  if (n == PageSlab::kNil) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  EraseNode(n);
  return true;
}

void FlashTier::Insert(const PageKey& key) {
  const uint32_t hash = PageSlab::Hash(key);
  const uint32_t existing = slab_.at(slab_.Probe(key, hash));
  if (existing != PageSlab::kNil) {
    lru_.MoveToFront(links_, existing);  // refresh
    return;
  }
  while (lru_.size() >= capacity_pages_) {
    EraseNode(lru_.tail());
    ++stats_.evictions;
  }
  const uint32_t n = slab_.Alloc(key, hash);
  if (n == links_.size()) {
    assert(n < capacity_pages_);
    links_.emplace_back();
  }
  // The eviction may have backward-shifted the probe run: re-probe rather
  // than trust the first probe (same re-probe-after-mutation rule as the
  // page cache).
  slab_.Insert(slab_.Probe(key, hash), n);
  lru_.PushFront(links_, n);
  ++stats_.insertions;
}

void FlashTier::Remove(const PageKey& key) {
  const uint32_t n = slab_.Find(key);
  if (n == PageSlab::kNil) {
    return;
  }
  EraseNode(n);
}

void FlashTier::RemoveRange(InodeId ino, uint64_t first_page, uint64_t end_page) {
  for (uint64_t page = first_page; page < end_page; ++page) {
    Remove(PageKey{ino, page});
  }
}

void FlashTier::Clear() {
  slab_.Clear();
  links_.clear();
  lru_ = IndexList{};
}

}  // namespace fsbench
