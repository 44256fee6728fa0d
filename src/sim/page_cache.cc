#include "src/sim/page_cache.h"

#include <algorithm>
#include <cassert>

namespace fsbench {

PageCache::PageCache(size_t capacity_pages, EvictionPolicyKind policy_kind)
    : capacity_(capacity_pages),
      kind_(policy_kind),
      geometry_(PolicyGeometry::For(policy_kind, capacity_pages)) {
  assert(capacity_ > 0);
  const size_t max_nodes = geometry_.max_live_nodes;
  // Sized for the worst-case live-node count, so the table never rehashes.
  slab_.Reserve(max_nodes);
  list_meta_.reserve(max_nodes);
  links_.reserve(max_nodes);
  dirty_links_.reserve(max_nodes);
  blocks_.reserve(max_nodes);
  run_breaks_.reserve(kRunMoveLog);
}

// --- slab -------------------------------------------------------------------

uint32_t PageCache::NewNode(const PageKey& key, uint32_t hash) {
  const uint32_t n = slab_.Alloc(key, hash);
  if (n == list_meta_.size()) {
    assert(n < geometry_.max_live_nodes);
    list_meta_.push_back(0);
    links_.emplace_back();
    dirty_links_.emplace_back();
    blocks_.push_back(kInvalidBlock);
  }
  ++live_count_;
  return n;
}

void PageCache::DropNode(uint32_t n) {
  ++table_erase_count_;
  last_erase_hole_ = slab_.Erase(n);
  slab_.Free(n);
  // Clean and off every list; Insert sets the block and every link of the
  // node when NewNode hands it out again.
  list_meta_[n] = static_cast<uint8_t>(CacheListId::kNone);
  --live_count_;
}

// --- policy transitions -----------------------------------------------------
//
// These reproduce, decision-for-decision, the straightforward reference
// implementations (kept in tests/reference_policies.h as differential
// oracles): same queues, same adaptation arithmetic, same tie-breaks.

bool PageCache::PolicyPrepareNewInsert() {
  if (kind_ != EvictionPolicyKind::kArc) {
    return false;
  }
  // Brand new key: trim ghost lists per the ARC paper's cases. Returns
  // whether a ghost was freed (i.e. the hash table was mutated).
  const IndexList& t1 = AnchorOf(CacheListId::kT1);
  const IndexList& b1 = AnchorOf(CacheListId::kB1);
  const IndexList& b2 = AnchorOf(CacheListId::kB2);
  if (t1.size() + b1.size() >= geometry_.arc_c) {
    if (b1.size() > 0) {
      FreeGhostNode(b1.tail());
      return true;
    }
  } else if (live_count_ >= 2 * geometry_.arc_c) {
    if (b2.size() > 0) {
      FreeGhostNode(b2.tail());
      return true;
    }
  }
  return false;
}

void PageCache::PolicyInsertNew(uint32_t n) {
  switch (kind_) {
    case EvictionPolicyKind::kLru:
      ListPushFront(CacheListId::kLruList, n);
      break;
    case EvictionPolicyKind::kClock:
      // Insert just behind the hand, i.e. at the position visited last
      // (clock_hand_ == kNil means the "end" position: insert at the back).
      SetList(n, CacheListId::kClockRing);
      AnchorOf(CacheListId::kClockRing).InsertBefore(links_, clock_hand_, n);
      if (AnchorOf(CacheListId::kClockRing).size() == 1) {
        clock_hand_ = n;
      }
      break;
    case EvictionPolicyKind::kTwoQueue:
      ListPushFront(CacheListId::kA1in, n);
      break;
    case EvictionPolicyKind::kArc:
      ListPushFront(CacheListId::kT1, n);
      break;
  }
}

void PageCache::PolicyGhostRevive(uint32_t n) {
  if (ListOf(n) == CacheListId::kA1out) {
    // 2Q: a re-reference after falling out of A1in promotes into Am.
    ListUnlink(n);
    ListPushFront(CacheListId::kAm, n);
    return;
  }
  // ARC: a ghost hit adapts the T1 target p toward the list that hit.
  const double b1_size = static_cast<double>(AnchorOf(CacheListId::kB1).size());
  const double b2_size = static_cast<double>(AnchorOf(CacheListId::kB2).size());
  const double c = static_cast<double>(geometry_.arc_c);
  if (ListOf(n) == CacheListId::kB1) {
    const double delta = b1_size >= b2_size ? 1.0 : b2_size / b1_size;
    arc_p_ = std::min(c, arc_p_ + delta);
  } else {
    assert(ListOf(n) == CacheListId::kB2);
    const double delta = b2_size >= b1_size ? 1.0 : b1_size / b2_size;
    arc_p_ = std::max(0.0, arc_p_ - delta);
  }
  ListUnlink(n);
  ListPushFront(CacheListId::kT2, n);
}

// Marked inline so GCC folds it into both eviction-path callers, as it did
// the two copies of the switch it replaces.
inline uint32_t PageCache::PeekVictim() const {
  switch (kind_) {
    case EvictionPolicyKind::kLru:
      return AnchorOf(CacheListId::kLruList).tail();
    case EvictionPolicyKind::kClock:
      return clock_hand_ != kNil ? clock_hand_ : AnchorOf(CacheListId::kClockRing).head();
    case EvictionPolicyKind::kTwoQueue: {
      const IndexList& a1in = AnchorOf(CacheListId::kA1in);
      if (a1in.size() > geometry_.kin || AnchorOf(CacheListId::kAm).size() == 0) {
        return a1in.tail();
      }
      return AnchorOf(CacheListId::kAm).tail();
    }
    case EvictionPolicyKind::kArc: {
      // REPLACE from the ARC paper: evict from T1 if it exceeds target p.
      const IndexList& t1 = AnchorOf(CacheListId::kT1);
      const IndexList& t2 = AnchorOf(CacheListId::kT2);
      const bool from_t1 =
          t1.size() > 0 && (static_cast<double>(t1.size()) > arc_p_ || t2.size() == 0);
      if (from_t1) {
        return t1.tail();
      }
      return t2.tail();
    }
  }
  return kNil;
}

uint32_t PageCache::PolicyChooseVictim() {
  uint32_t victim = PeekVictim();
  assert(victim != kNil);
  if (kind_ == EvictionPolicyKind::kClock) {
    // Second chance: a set referenced bit buys one more lap of the hand.
    while ((list_meta_[victim] & kReferencedBit) != 0) {
      list_meta_[victim] = static_cast<uint8_t>(list_meta_[victim] & ~kReferencedBit);
      victim = links_[victim].next != kNil ? links_[victim].next
                                           : AnchorOf(CacheListId::kClockRing).head();
    }
    clock_hand_ = links_[victim].next;
  }
  return victim;
}

void PageCache::PolicyDemoteVictim(uint32_t n) {
  const CacheListId from = ListOf(n);
  ListUnlink(n);
  switch (kind_) {
    case EvictionPolicyKind::kLru:
    case EvictionPolicyKind::kClock:
      DropNode(n);
      return;
    case EvictionPolicyKind::kTwoQueue:
      if (from == CacheListId::kA1in) {
        // A1in victims leave a ghost in A1out, bounded by kout.
        blocks_[n] = kInvalidBlock;
        ListPushFront(CacheListId::kA1out, n);
        while (AnchorOf(CacheListId::kA1out).size() > geometry_.kout) {
          FreeGhostNode(AnchorOf(CacheListId::kA1out).tail());
        }
      } else {
        DropNode(n);
      }
      return;
    case EvictionPolicyKind::kArc:
      blocks_[n] = kInvalidBlock;
      ListPushFront(from == CacheListId::kT1 ? CacheListId::kB1 : CacheListId::kB2, n);
      return;
  }
}

void PageCache::FreeGhostNode(uint32_t n) {
  assert(IsGhostList(ListOf(n)));
  ListUnlink(n);
  DropNode(n);
}

// --- public operations ------------------------------------------------------

void PageCache::EvictOne(EvictedBatch* evicted) {
  const uint32_t victim = PolicyChooseVictim();
  const bool dirty = IsDirty(victim);
  if (evicted != nullptr) {
    assert(evicted->count_ < EvictedBatch::kInlineCapacity);
    evicted->items_[evicted->count_++] = Evicted{slab_.key(victim), blocks_[victim], dirty};
  }
  if (dirty) {
    DirtyChainUnlink(victim);
    ++stats_.dirty_evictions;
  }
  --resident_count_;
  resident_epoch_ += IsRunNamed(victim) ? 1 : 0;
  ++stats_.evictions;
  PolicyDemoteVictim(victim);
}

void PageCache::PrefetchVictimHint() const {
  // The likely victim is known before the probe resolves hit vs. miss;
  // starting its cache lines early overlaps eviction latency with the probe.
  // A wrong or useless hint (hit path, CLOCK hand walk, ARC predicate flip)
  // costs nothing but the prefetch itself.
  const uint32_t hint = PeekVictim();
  if (hint == kNil) {
    return;
  }
  slab_.Prefetch(hint);
  __builtin_prefetch(&blocks_[hint]);
  __builtin_prefetch(&list_meta_[hint]);
  // Eviction unsplices the victim from its policy list; pull the neighbour
  // links forward as well so the second level of the pointer chase also
  // overlaps the probe.
  const IndexLink link = links_[hint];
  if (link.prev != kNil) {
    __builtin_prefetch(&links_[link.prev]);
  }
  if (link.next != kNil) {
    __builtin_prefetch(&links_[link.next]);
  }
}

void PageCache::Insert(const PageKey& key, BlockId block, bool dirty, EvictedBatch* evicted) {
  if (evicted != nullptr) {
    // One Insert evicts at most one page, but a reused batch must not creep
    // toward the inline bound across calls: each call reports only its own.
    evicted->clear();
  }
  if (resident_count_ >= capacity_) {
    PrefetchVictimHint();
  }
  const uint32_t hash = PageSlab::Hash(key);
  size_t slot = slab_.Probe(key, hash);
  uint32_t n = slab_.at(slot);
  if (n != kNil && IsResidentNode(n)) {
    // Refresh: update block, possibly dirty, touch recency.
    if (dirty && !IsDirty(n)) {
      DirtyChainAppend(n);
    }
    blocks_[n] = block;
    PolicyResidentAccess(n);
    return;
  }

  if (resident_count_ >= capacity_) {
    const size_t erases_before = table_erase_count_;
    do {
      EvictOne(evicted);
    } while (resident_count_ >= capacity_);
    // Eviction can rearrange the table and even retire the ghost we just
    // found (2Q's A1out trim may pop it); what counts is ghost membership
    // *after* eviction, exactly as the reference policies see it. Two cases
    // are provably harmless and skip the re-probe: no table erase happened
    // (ARC demotes in place), or exactly one erase left its hole outside
    // this key's probe run (a backward shift empties only that hole, and
    // never occupies a previously empty slot).
    const size_t erase_delta = table_erase_count_ - erases_before;
    const bool run_intact =
        erase_delta == 0 ||
        (erase_delta == 1 && n == kNil &&
         slab_.Distance(hash, last_erase_hole_) > slab_.Distance(hash, slot));
    if (!run_intact) {
      slot = slab_.Probe(key, hash);
      n = slab_.at(slot);
    }
  }

  if (n != kNil) {
    PolicyGhostRevive(n);
    blocks_[n] = block;
  } else {
    if (PolicyPrepareNewInsert()) {
      // An ARC ghost trim rearranged the table; the empty slot found above
      // may no longer terminate the key's probe run.
      slot = slab_.Probe(key, hash);
    }
    n = NewNode(key, hash);
    blocks_[n] = block;
    slab_.Insert(slot, n);
    PolicyInsertNew(n);
  }
  ++resident_count_;
  if (dirty) {
    DirtyChainAppend(n);
  }
  ++stats_.insertions;
}

PageCache::RunMemoEntry* PageCache::FindRunMemo(std::span<const PageKey> chain, InodeId ino,
                                                uint64_t first_page, uint32_t pages) {
  for (uint32_t e = 0; e < run_memo_size_; ++e) {
    RunMemoEntry& entry = run_memo_[e];
    if (entry.ino == ino && entry.first_page == first_page && entry.pages == pages &&
        std::equal(chain.begin(), chain.end(), entry.chain, entry.chain + entry.chain_size)) {
      return &entry;
    }
  }
  return nullptr;
}

bool PageCache::ProbeRun(std::span<const PageKey> chain, InodeId ino, uint64_t first_page,
                         uint32_t pages) {
  run_nodes_.clear();
  for (const PageKey& key : chain) {
    const uint32_t n = slab_.Find(key);
    if (n == kNil || !IsResidentNode(n)) {
      return false;
    }
    run_nodes_.push_back(n);
  }
  for (uint32_t i = 0; i < pages; ++i) {
    const uint32_t n = slab_.Find(PageKey{ino, first_page + i});
    if (n == kNil || !IsResidentNode(n)) {
      return false;
    }
    run_nodes_.push_back(n);
  }
  return true;
}

bool PageCache::RunMemoMatchesTable(const RunMemoEntry& entry) const {
  if (entry.nodes.size() != entry.chain_size + static_cast<size_t>(entry.pages)) {
    return false;
  }
  for (size_t k = 0; k < entry.nodes.size(); ++k) {
    const PageKey key = k < entry.chain_size
                            ? entry.chain[k]
                            : PageKey{entry.ino, entry.first_page + (k - entry.chain_size)};
    if (slab_.Find(key) != entry.nodes[k] || !IsResidentNode(entry.nodes[k])) {
      return false;
    }
  }
  return true;
}

void PageCache::AppendRunMove(uint32_t n) {
  run_moves_[run_move_count_ % kRunMoveLog] = n;
  ++run_move_count_;
}

void PageCache::CollectRunBreaks(const RunMemoEntry& entry) {
  run_breaks_.clear();
  for (uint64_t c = entry.applied_at; c < run_move_count_; ++c) {
    // Within the epoch the entry's pages keep their nodes, so a logged node
    // holds one of its page keys now exactly when it is that page's node.
    const PageKey& key = slab_.key(run_moves_[c % kRunMoveLog]);
    const uint64_t i = key.index - entry.first_page;
    if (key.ino == entry.ino && i < entry.pages - 1) {
      run_breaks_.push_back(static_cast<uint32_t>(i));
    }
  }
  std::sort(run_breaks_.begin(), run_breaks_.end());
}

bool PageCache::RunPageLogged(const RunMemoEntry& entry, uint32_t i) const {
  const uint32_t n = entry.nodes[entry.chain_size + i];
  for (uint64_t c = entry.applied_at; c < run_move_count_; ++c) {
    if (run_moves_[c % kRunMoveLog] == n) {
      return true;
    }
  }
  return false;
}

bool PageCache::RunPagesInPlace(const RunMemoEntry& entry) const {
  const uint32_t* page = entry.nodes.data() + entry.chain_size;
  for (uint32_t i = 0; i + 1 < entry.pages; ++i) {
    if (!HitMovesToFront(page[i]) && !RunPageLogged(entry, i)) {
      return false;
    }
    if (i + 2 < entry.pages && links_[page[i]].prev != page[i + 1] &&
        !RunPageLogged(entry, i) && !RunPageLogged(entry, i + 1)) {
      return false;
    }
  }
  return true;
}

bool PageCache::LookupRun(std::span<const PageKey> chain, InodeId ino, uint64_t first_page,
                          uint32_t pages) {
  assert(pages > 0);
  if (run_memo_epoch_ != resident_epoch_) {
    run_memo_epoch_ = resident_epoch_;
    run_memo_size_ = 0;
    run_memo_next_ = 0;
  }
  RunMemoEntry* entry = FindRunMemo(chain, ino, first_page, pages);
  // Whether the page touches go by the move log (see below): the entry's
  // pages last moved as one stretch, and the log since then is short for
  // the run and has not wrapped.
  bool by_log = false;
  if (entry != nullptr) {
    assert(RunMemoMatchesTable(*entry));
    by_log = entry->contiguous &&
             run_move_count_ - entry->applied_at < std::min(pages / 2, kRunMoveLog);
  } else if (!ProbeRun(chain, ino, first_page, pages)) {
    return false;
  } else if (chain.size() <= kRunMemoChainKeys) {
    entry = &run_memo_[run_memo_next_];
    run_memo_next_ = (run_memo_next_ + 1) % kRunMemoEntries;
    run_memo_size_ = std::min(run_memo_size_ + 1, kRunMemoEntries);
    entry->ino = ino;
    entry->first_page = first_page;
    entry->pages = pages;
    entry->chain_size = static_cast<uint32_t>(chain.size());
    std::copy(chain.begin(), chain.end(), entry->chain);
    entry->nodes.swap(run_nodes_);
    for (size_t k = 0; k < entry->nodes.size(); ++k) {
      list_meta_[entry->nodes[k]] |= k < chain.size() ? kRunNamedBit : kRunNamedBit | kRunPageBit;
    }
  }
  const std::vector<uint32_t>& nodes = entry != nullptr ? entry->nodes : run_nodes_;
  // A hit never evicts, so every lookup of the sequence hits. Afterwards a
  // key's recency state depends only on its last hit (LRU, 2Q's Am and ARC
  // move it to the front of its list; CLOCK's bit and 2Q's A1in ignore
  // order), so touching the keys once each in last-hit order is exact: every
  // page but the last, then the chain, then the last page. A chain key that
  // repeats, or that is also a page, ends up where its later touch puts it,
  // as its later hit would.
  //
  // Moves to the front are applied in blocks. Moving t1, ..., tk to the
  // front one at a time leaves the list that splicing the segment tk .. t1
  // leaves, when the segment is adjacent in that order. So a touch that
  // only moves its node to the front joins the pending block when the node
  // lies just before the block's front, read from the list as it stands
  // before the block moves; any other touch splices the block first.
  uint32_t block_front = kNil;
  uint32_t block_back = kNil;
  bool all_moved = true;  // every touch so far moved its node to the front
  const auto flush = [&] {
    if (block_front != kNil) {
      LogRunMove(block_front);
      if (block_back != block_front) {
        LogRunMove(block_back);
      }
      AnchorOf(ListOf(block_front)).SpliceToFront(links_, block_front, block_back);
      block_front = kNil;
    }
  };
  const auto touch = [&](uint32_t n) {
    if (!HitMovesToFront(n)) {
      flush();
      PolicyResidentAccess(n);
      all_moved = false;
    } else if (block_front != kNil && links_[block_front].prev == n) {
      block_front = n;
    } else {
      flush();
      block_front = block_back = n;
    }
  };
  const size_t chain_size = chain.size();
  const uint32_t* page = nodes.data() + chain_size;
  if (by_log) {
    // The last application left pages 0..pages-2 at the front of one list
    // whose hits move a page to the front (LRU, 2Q's Am, ARC's T2), page
    // i + 1 just before page i. Lists gain members only at the head (CLOCK's
    // ring, which inserts behind its hand, is never contiguous), so page
    // i + 1 still lies just before page i unless one of the two was detached
    // since. Such a page leaves that list only by leaving residency, which
    // empties the memo because the entry names it, so each detach since was
    // a move to the front, and those are logged. Where the log names neither
    // page, the walk's check of page i + 1 passes without reading a link.
    // So only a logged page and the page after it are touched; between them
    // the pending block's front moves to the stretch's last page. A splice
    // between two such touches changes the back link of the block's first
    // node, of the node after its last and of the old head, none of them a
    // page whose check is skipped, so every check that is made reads what
    // the walk would read.
    assert(RunPagesInPlace(*entry));
    CollectRunBreaks(*entry);
    uint32_t next = 0;  // pages [0, next) are applied
    const auto touch_from = [&](uint32_t i) {
      if (i >= next) {
        if (i > next) {
          block_front = page[i - 1];
        }
        touch(page[i]);
        next = i + 1;
      }
    };
    touch_from(0);
    for (const uint32_t i : run_breaks_) {
      touch_from(i);
      if (i + 2 < pages) {
        touch_from(i + 1);
      }
    }
    if (next + 1 < pages) {
      block_front = page[pages - 2];
    }
  } else {
    for (uint32_t i = 0; i + 1 < pages; ++i) {
      touch(page[i]);
    }
  }
  flush();
  if (entry != nullptr) {
    entry->applied_at = run_move_count_;
    entry->contiguous = all_moved;
  }
  for (size_t k = 0; k < chain_size; ++k) {
    touch(nodes[k]);
  }
  touch(page[pages - 1]);
  flush();
  stats_.hits += static_cast<uint64_t>(chain_size + 1) * pages;
  return true;
}

size_t PageCache::TakeDirtyFile(InodeId ino, uint64_t end_page, std::vector<Evicted>* out) {
  out->clear();
  // Page order; callers that care about device ordering sort by block, as
  // the VFS writeback path does.
  for (uint64_t page = 0; page < end_page; ++page) {
    TakeDirtyPage(PageKey{ino, page}, out);
  }
  return out->size();
}

bool PageCache::TakeDirtyPage(const PageKey& key, std::vector<Evicted>* out) {
  const uint32_t n = slab_.Find(key);
  if (n == kNil || !IsResidentNode(n) || !IsDirty(n)) {
    return false;
  }
  out->push_back(Evicted{slab_.key(n), blocks_[n], true});
  DirtyChainUnlink(n);
  return true;
}

size_t PageCache::TakeDirty(size_t max_pages, std::vector<Evicted>* out) {
  out->clear();
  while (dirty_.head() != kNil && out->size() < max_pages) {
    const uint32_t n = dirty_.head();
    out->push_back(Evicted{slab_.key(n), blocks_[n], true});
    DirtyChainUnlink(n);
  }
  return out->size();
}

void PageCache::RemoveResidentNode(uint32_t n) {
  if (IsDirty(n)) {
    DirtyChainUnlink(n);
  }
  if (kind_ == EvictionPolicyKind::kClock && clock_hand_ == n) {
    clock_hand_ = links_[n].next;
  }
  resident_epoch_ += IsRunNamed(n) ? 1 : 0;
  ListUnlink(n);
  DropNode(n);
  --resident_count_;
}

void PageCache::Remove(const PageKey& key) {
  const uint32_t n = slab_.Find(key);
  if (n == kNil || !IsResidentNode(n)) {
    return;
  }
  RemoveResidentNode(n);
}

void PageCache::RemoveRange(InodeId ino, uint64_t first_page, uint64_t end_page) {
  // The order of the removals is not observable: the table ends up as if
  // the keys had never been inserted, and CLOCK's hand lands on the first
  // surviving successor either way.
  for (uint64_t page = first_page; page < end_page; ++page) {
    Remove(PageKey{ino, page});
  }
}

void PageCache::Clear() {
  // Drop every resident page. Ghost lists and ARC's adaptation survive a
  // cache drop: the policy's history is not resident state.
  static constexpr CacheListId kResidentLists[] = {
      CacheListId::kLruList, CacheListId::kClockRing, CacheListId::kA1in,
      CacheListId::kAm,      CacheListId::kT1,        CacheListId::kT2,
  };
  for (const CacheListId id : kResidentLists) {
    while (AnchorOf(id).head() != kNil) {
      RemoveResidentNode(AnchorOf(id).head());
    }
  }
  clock_hand_ = kNil;
  assert(resident_count_ == 0 && dirty_.size() == 0);
}

// --- invariants -------------------------------------------------------------

bool PageCache::CheckInvariants(const char** why) const {
  const char* unused;
  if (why == nullptr) {
    why = &unused;
  }
  *why = "";
  if (resident_count_ > capacity_ || resident_count_ > live_count_) {
    *why = "resident count exceeds capacity or live count";
    return false;
  }
  // Every list: forward walk matches the recorded size, back-links and tags
  // are consistent, ghosts carry no block/dirty state.
  size_t resident_seen = 0;
  size_t live_seen = 0;
  for (size_t id = 1; id < kNumCacheLists; ++id) {
    const IndexList& list = lists_[id];
    size_t walked = 0;
    uint32_t prev = kNil;
    for (uint32_t n = list.head(); n != kNil; n = links_[n].next) {
      if (ListOf(n) != static_cast<CacheListId>(id) || links_[n].prev != prev) {
        *why = "list tag or back-link inconsistent";
        return false;
      }
      if (IsGhostList(ListOf(n)) && (IsDirty(n) || blocks_[n] != kInvalidBlock)) {
        *why = "ghost node carries resident state";
        return false;
      }
      // A node's table entry must resolve back to it in one probe run, and
      // its cached slot/hash must be current.
      if (!slab_.CheckNode(n)) {
        *why = "table probe, slot back-pointer or cached hash stale";
        return false;
      }
      prev = n;
      ++walked;
    }
    if (walked != list.size() || list.tail() != prev) {
      *why = "list size or tail mismatch";
      return false;
    }
    live_seen += walked;
    if (IsResidentList(static_cast<CacheListId>(id))) {
      resident_seen += walked;
    }
  }
  if (resident_seen != resident_count_ || live_seen != live_count_) {
    *why = "list populations do not match resident/live counts";
    return false;
  }
  // Dirty FIFO: length matches, members are resident and flagged.
  size_t dirty_seen = 0;
  uint32_t dirty_prev = kNil;
  for (uint32_t n = dirty_.head(); n != kNil; n = dirty_links_[n].next) {
    if (!IsDirty(n) || !IsResidentNode(n) || dirty_links_[n].prev != dirty_prev) {
      *why = "dirty chain member not resident-dirty or back-link broken";
      return false;
    }
    dirty_prev = n;
    ++dirty_seen;
  }
  if (dirty_seen != dirty_.size() || dirty_.tail() != dirty_prev) {
    *why = "dirty chain length or tail mismatch";
    return false;
  }
  if (!slab_.CheckPopulation(live_count_)) {
    *why = "table population does not match live count";
    return false;
  }
  // Run memo: within its epoch, every entry still names resident nodes
  // holding its keys (an older epoch's entries are never read), and a
  // contiguous entry's pages are where its next hit may assume them while
  // its move log window is whole.
  if (run_memo_epoch_ == resident_epoch_) {
    for (uint32_t e = 0; e < run_memo_size_; ++e) {
      const RunMemoEntry& entry = run_memo_[e];
      if (!RunMemoMatchesTable(entry)) {
        *why = "run memo entry of the current epoch names a stale node";
        return false;
      }
      if (entry.contiguous && run_move_count_ - entry.applied_at <= kRunMoveLog &&
          !RunPagesInPlace(entry)) {
        *why = "run memo entry's page moved without a move log entry";
        return false;
      }
    }
  }
  return true;
}

}  // namespace fsbench
