#include "src/sim/inode_table.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace fsbench {
namespace {

Inode MakeInode(InodeId ino) {
  Inode inode;
  inode.ino = ino;
  inode.size = ino * 100;
  return inode;
}

TEST(InodeTableTest, InsertFindErase) {
  InodeTable table;
  table.Insert(MakeInode(1));
  table.Insert(MakeInode(2));
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_EQ(table.Find(1)->size, 100u);
  EXPECT_EQ(table.Find(3), nullptr);
  table.Erase(1);
  EXPECT_EQ(table.Find(1), nullptr);
  EXPECT_EQ(table.size(), 1u);
  table.Erase(1);  // double erase is a no-op
  EXPECT_EQ(table.size(), 1u);
}

TEST(InodeTableTest, PointersStableAcrossGrowthAndOtherInserts) {
  InodeTable table;
  Inode* first = table.Insert(MakeInode(1));
  // Push through several index growths (sequential ids, like the FS mints).
  for (InodeId ino = 2; ino <= 500; ++ino) {
    table.Insert(MakeInode(ino));
  }
  EXPECT_EQ(first, table.Find(1));  // slab addresses never move
  EXPECT_EQ(first->size, 100u);
}

TEST(InodeTableTest, SlabPositionsAreRecycled) {
  InodeTable table;
  for (InodeId ino = 1; ino <= 40; ++ino) {
    table.Insert(MakeInode(ino));
  }
  for (InodeId ino = 1; ino <= 40; ino += 2) {
    table.Erase(ino);
  }
  // Re-inserting as many as were erased must not grow the slab: the new
  // inodes land in recycled positions (observable through stable size).
  for (InodeId ino = 100; ino < 120; ++ino) {
    ASSERT_NE(table.Insert(MakeInode(ino)), nullptr);
  }
  EXPECT_EQ(table.size(), 40u);
  for (InodeId ino = 2; ino <= 40; ino += 2) {
    ASSERT_NE(table.Find(ino), nullptr);
    EXPECT_EQ(table.Find(ino)->size, ino * 100);
  }
}

TEST(InodeTableTest, BackwardShiftKeepsProbeRunsReachable) {
  // Sequential ids with interleaved erases stress the backward-shift path;
  // every surviving id must remain findable.
  InodeTable table;
  for (InodeId ino = 1; ino <= 1000; ++ino) {
    table.Insert(MakeInode(ino));
  }
  for (InodeId ino = 1; ino <= 1000; ino += 3) {
    table.Erase(ino);
  }
  for (InodeId ino = 1; ino <= 1000; ++ino) {
    if ((ino - 1) % 3 == 0) {
      EXPECT_EQ(table.Find(ino), nullptr) << ino;
    } else {
      ASSERT_NE(table.Find(ino), nullptr) << ino;
      EXPECT_EQ(table.Find(ino)->ino, ino);
    }
  }
}

TEST(InodeTableTest, IterationVisitsEveryLiveInodeOnce) {
  InodeTable table;
  for (InodeId ino = 1; ino <= 100; ++ino) {
    table.Insert(MakeInode(ino));
  }
  for (InodeId ino = 10; ino <= 50; ++ino) {
    table.Erase(ino);
  }
  std::set<InodeId> seen;
  for (const Inode& inode : table) {
    EXPECT_TRUE(seen.insert(inode.ino).second) << "visited twice: " << inode.ino;
  }
  EXPECT_EQ(seen.size(), table.size());
  for (InodeId ino = 1; ino <= 100; ++ino) {
    EXPECT_EQ(seen.count(ino), ino < 10 || ino > 50 ? 1u : 0u) << ino;
  }
}

TEST(InodeTableTest, IterationFollowsSlabOrder) {
  // The walk order is slab order, a function of the insert/erase sequence
  // alone: allocation order, with an inode that recycled a freed position
  // (LIFO) visited where that position lies. Enough inodes to grow the
  // index, whose probe order would scatter them.
  InodeTable table;
  std::vector<InodeId> slab;  // expected slab contents, by position
  for (InodeId ino = 1; ino <= 100; ++ino) {
    table.Insert(MakeInode(ino));
    slab.push_back(ino);
  }
  std::vector<size_t> freed;
  for (InodeId ino = 5; ino <= 100; ino += 7) {
    table.Erase(ino);
    freed.push_back(ino - 1);
    slab[ino - 1] = kInvalidInode;
  }
  for (InodeId ino = 1000; ino < 1020; ++ino) {
    table.Insert(MakeInode(ino));
    if (freed.empty()) {
      slab.push_back(ino);
    } else {
      slab[freed.back()] = ino;
      freed.pop_back();
    }
  }
  std::vector<InodeId> expected;
  for (const InodeId ino : slab) {
    if (ino != kInvalidInode) {
      expected.push_back(ino);
    }
  }
  std::vector<InodeId> visited;
  for (const Inode& inode : table) {
    visited.push_back(inode.ino);
  }
  EXPECT_EQ(visited, expected);
}

}  // namespace
}  // namespace fsbench
