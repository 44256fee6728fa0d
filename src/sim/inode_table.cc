#include "src/sim/inode_table.h"

#include <cassert>
#include <utility>

namespace fsbench {

Inode* InodeTable::Insert(Inode&& inode) {
  const InodeId ino = inode.ino;
  assert(ino != kInvalidInode);
  const size_t slot = Probe(ino);
  assert(index_.at(slot) == FlatIndex::kEmpty);

  uint32_t pos;
  if (!free_.empty()) {
    pos = free_.back();
    free_.pop_back();
    slab_[pos] = std::move(inode);
    inos_[pos] = ino;
  } else {
    pos = static_cast<uint32_t>(slab_.size());
    slab_.push_back(std::move(inode));
    inos_.push_back(ino);
  }
  index_.Insert(slot, pos, HashInode(ino), [this](uint32_t p) { return HashInode(inos_[p]); });
  return &slab_[pos];
}

void InodeTable::Erase(InodeId ino) {
  const size_t slot = Probe(ino);
  const uint32_t pos = index_.at(slot);
  if (pos == FlatIndex::kEmpty) {
    return;
  }
  index_.Erase(slot, [this](uint32_t p) { return HashInode(inos_[p]); });
  slab_[pos] = Inode{};  // release the inode's own storage now
  inos_[pos] = kInvalidInode;
  free_.push_back(pos);
}

}  // namespace fsbench
