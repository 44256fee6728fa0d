// Inode index over a stable slab.
//
// Path resolution probes the inode table once per component, so the map from
// InodeId to Inode is one of the hottest structures in the simulator (after
// the page cache, which got the same treatment in the slab-cache rewrite).
// std::unordered_map pays a prime-modulo plus a node chase per find and a
// node allocation per insert; this table instead keeps:
//
//   index_  a FlatIndex (src/sim/flat_index.h) of slab positions, probed
//           with the murmur-mixed HashInode,
//   inos_   each slab position's inode id (kInvalidInode when free): the
//           keys the probe compares, dense so a probe step never touches
//           the slab,
//   slab_   a std::deque<Inode> (stable addresses across growth) whose freed
//           positions are recycled through a LIFO free list.
//
// Pointers returned by Find()/Insert() stay valid until that inode is
// erased — the same stability guarantee std::unordered_map gave, which the
// file-system code relies on (e.g. holding the parent across AllocateInode).
#ifndef SRC_SIM_INODE_TABLE_H_
#define SRC_SIM_INODE_TABLE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/flat_index.h"
#include "src/sim/inode.h"
#include "src/sim/types.h"

namespace fsbench {

class InodeTable {
 public:
  const Inode* Find(InodeId ino) const {
    const uint32_t pos = index_.at(Probe(ino));
    return pos != FlatIndex::kEmpty ? &slab_[pos] : nullptr;
  }
  Inode* Find(InodeId ino) {
    const uint32_t pos = index_.at(Probe(ino));
    return pos != FlatIndex::kEmpty ? &slab_[pos] : nullptr;
  }

  // Inserts a fresh inode (its id must not be present). The returned pointer
  // is stable until Erase.
  Inode* Insert(Inode&& inode);

  // Removes an inode; its slab position is recycled and its storage freed.
  void Erase(InodeId ino);

  size_t size() const { return index_.size(); }

  // Iterates live inodes in slab order: allocation order, with an inode
  // that recycled a freed position visited where that position lies. The
  // order is a function of the insert/erase sequence alone, never of the
  // index's geometry.
  class const_iterator {
   public:
    using SlabIterator = std::deque<Inode>::const_iterator;
    const_iterator(SlabIterator it, SlabIterator end) : it_(it), end_(end) { Settle(); }
    const Inode& operator*() const { return *it_; }
    const Inode* operator->() const { return &*it_; }
    const_iterator& operator++() {
      ++it_;
      Settle();
      return *this;
    }
    bool operator==(const const_iterator& other) const { return it_ == other.it_; }
    bool operator!=(const const_iterator& other) const { return it_ != other.it_; }

   private:
    void Settle() {
      while (it_ != end_ && it_->ino == kInvalidInode) {  // freed position
        ++it_;
      }
    }
    SlabIterator it_;
    SlabIterator end_;
  };
  const_iterator begin() const { return const_iterator(slab_.begin(), slab_.end()); }
  const_iterator end() const { return const_iterator(slab_.end(), slab_.end()); }

 private:
  // Index slot holding `ino`'s slab position, or the empty end of its run.
  size_t Probe(InodeId ino) const {
    return index_.Probe(HashInode(ino), [this, ino](uint32_t pos) { return inos_[pos] == ino; });
  }

  std::deque<Inode> slab_;
  std::vector<InodeId> inos_;
  std::vector<uint32_t> free_;  // recycled slab positions, LIFO
  FlatIndex index_;
};

}  // namespace fsbench

#endif  // SRC_SIM_INODE_TABLE_H_
