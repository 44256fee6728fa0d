#include "src/sim/flash_tier.h"

#include <cassert>

namespace fsbench {

FlashTier::FlashTier(const FlashTierConfig& config)
    : config_(config),
      capacity_pages_(static_cast<size_t>(config.capacity / config.page_size)) {
  assert(capacity_pages_ > 0);
  table_.Reserve(capacity_pages_);
  keys_.reserve(capacity_pages_);
  links_.reserve(capacity_pages_);
  hashes_.reserve(capacity_pages_);
  slots_.reserve(capacity_pages_);
}

void FlashTier::TableEraseNode(uint32_t node) {
  assert(table_.at(slots_[node]) == node);
  table_.Erase(
      slots_[node], [this](uint32_t n) { return hashes_[n]; },
      [this](uint32_t n, size_t moved_to) { slots_[n] = static_cast<uint32_t>(moved_to); });
}

void FlashTier::RehashForTest(size_t buckets) {
  table_.Rehash(
      buckets, [this](uint32_t n) { return hashes_[n]; },
      [this](uint32_t n, size_t moved_to) { slots_[n] = static_cast<uint32_t>(moved_to); });
}

uint32_t FlashTier::AllocNode(const PageKey& key, uint32_t hash) {
  assert(key.ino != kInvalidInode);
  uint32_t n;
  if (free_head_ != kNil) {
    n = free_head_;
    free_head_ = links_[n].next;
  } else {
    assert(keys_.size() < capacity_pages_);
    n = static_cast<uint32_t>(keys_.size());
    keys_.emplace_back();
    links_.emplace_back();
    hashes_.push_back(0);
    slots_.push_back(0);
  }
  keys_[n] = key;
  hashes_[n] = hash;
  links_[n] = Link{};
  return n;
}

void FlashTier::ReleaseNode(uint32_t n) {
  keys_[n].ino = kInvalidInode;  // frees the node for RemoveFile's slab scan
  links_[n].next = free_head_;
  free_head_ = n;
}

void FlashTier::LruPushFront(uint32_t n) {
  Link& link = links_[n];
  link.prev = kNil;
  link.next = lru_head_;
  if (lru_head_ != kNil) {
    links_[lru_head_].prev = n;
  } else {
    lru_tail_ = n;
  }
  lru_head_ = n;
}

void FlashTier::LruUnlink(uint32_t n) {
  Link& link = links_[n];
  if (link.prev != kNil) {
    links_[link.prev].next = link.next;
  } else {
    lru_head_ = link.next;
  }
  if (link.next != kNil) {
    links_[link.next].prev = link.prev;
  } else {
    lru_tail_ = link.prev;
  }
  link.prev = link.next = kNil;
}

void FlashTier::EraseNode(uint32_t n) {
  LruUnlink(n);
  TableEraseNode(n);
  ReleaseNode(n);
  --size_;
}

bool FlashTier::LookupAndPromote(const PageKey& key) {
  const uint32_t n = FindNode(key);
  if (n == kNil) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  EraseNode(n);
  return true;
}

void FlashTier::Insert(const PageKey& key) {
  const uint32_t hash = HashOf(key);
  const size_t slot = ProbeSlot(key, hash);
  const uint32_t existing = table_.at(slot);
  if (existing != kNil) {
    // Refresh.
    if (lru_head_ != existing) {
      LruUnlink(existing);
      LruPushFront(existing);
    }
    return;
  }
  while (size_ >= capacity_pages_) {
    EraseNode(lru_tail_);
    ++stats_.evictions;
  }
  // The eviction may have backward-shifted the probe run: re-probe rather
  // than trust `slot` (same re-probe-after-mutation rule as the page cache).
  const uint32_t n = AllocNode(key, hash);
  TableInsertAt(ProbeSlot(key, hash), n);
  LruPushFront(n);
  ++size_;
  ++stats_.insertions;
}

void FlashTier::Remove(const PageKey& key) {
  const uint32_t n = FindNode(key);
  if (n == kNil) {
    return;
  }
  EraseNode(n);
}

void FlashTier::RemoveFile(InodeId ino) {
  // Slab scan in node-index order: allocation history fixes the order, so
  // the walk (and any future per-eviction charging downstream of it) is a
  // pure function of the op sequence, never of the hash seed. O(slab) per
  // call is fine — unlink is rare next to lookups, and the slab is bounded
  // by the tier's capacity.
  for (uint32_t n = 0; n < keys_.size(); ++n) {
    if (keys_[n].ino == ino) {
      EraseNode(n);
    }
  }
}

void FlashTier::Clear() {
  table_.Clear();
  keys_.clear();
  links_.clear();
  hashes_.clear();
  slots_.clear();
  free_head_ = kNil;
  lru_head_ = lru_tail_ = kNil;
  size_ = 0;
}

}  // namespace fsbench
