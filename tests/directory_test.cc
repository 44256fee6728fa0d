#include "src/sim/directory.h"

#include <gtest/gtest.h>

namespace fsbench {
namespace {

TEST(DirectoryTest, InsertLookupRemove) {
  Directory dir;
  EXPECT_TRUE(dir.Insert("a", 10));
  EXPECT_TRUE(dir.Insert("b", 11));
  EXPECT_EQ(dir.entry_count(), 2u);
  EXPECT_EQ(dir.Lookup("a"), std::optional<InodeId>(10));
  EXPECT_EQ(dir.Lookup("b"), std::optional<InodeId>(11));
  EXPECT_EQ(dir.Lookup("c"), std::nullopt);
  EXPECT_EQ(dir.Remove("a"), std::optional<InodeId>(10));
  EXPECT_EQ(dir.Lookup("a"), std::nullopt);
  EXPECT_EQ(dir.entry_count(), 1u);
}

TEST(DirectoryTest, DuplicateInsertRejected) {
  Directory dir;
  EXPECT_TRUE(dir.Insert("a", 10));
  EXPECT_FALSE(dir.Insert("a", 11));
  EXPECT_EQ(dir.Lookup("a"), std::optional<InodeId>(10));
}

TEST(DirectoryTest, RemoveMissingReturnsNullopt) {
  Directory dir;
  EXPECT_EQ(dir.Remove("nope"), std::nullopt);
}

TEST(DirectoryTest, SlotsAssignedInOrder) {
  Directory dir;
  dir.Insert("a", 1);
  dir.Insert("b", 2);
  dir.Insert("c", 3);
  EXPECT_EQ(dir.SlotOf("a"), std::optional<uint64_t>(0));
  EXPECT_EQ(dir.SlotOf("b"), std::optional<uint64_t>(1));
  EXPECT_EQ(dir.SlotOf("c"), std::optional<uint64_t>(2));
}

TEST(DirectoryTest, HolesAreReused) {
  Directory dir;
  dir.Insert("a", 1);
  dir.Insert("b", 2);
  dir.Insert("c", 3);
  dir.Remove("b");
  EXPECT_EQ(dir.slot_count(), 3u);  // hole keeps the slot count
  dir.Insert("d", 4);
  EXPECT_EQ(dir.SlotOf("d"), std::optional<uint64_t>(1));  // reused slot 1
  EXPECT_EQ(dir.slot_count(), 3u);
}

TEST(DirectoryTest, ListReturnsLiveNamesInSlotOrder) {
  Directory dir;
  dir.Insert("a", 1);
  dir.Insert("b", 2);
  dir.Insert("c", 3);
  dir.Remove("b");
  const std::vector<std::string> names = dir.List();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "c");
}

TEST(DirectoryTest, HeterogeneousStringViewLookups) {
  Directory dir;
  const std::string stored = "component";
  ASSERT_TRUE(dir.Insert(stored, 42));
  // Probe with a string_view carved out of a larger path buffer — no
  // std::string materialisation anywhere on the lookup side.
  const std::string path = "/parent/component/child";
  const std::string_view view = std::string_view(path).substr(8, 9);
  EXPECT_EQ(view, "component");
  EXPECT_EQ(dir.Lookup(view), std::optional<InodeId>(42));
  EXPECT_EQ(dir.SlotOf(view), std::optional<uint64_t>(0));
  const auto entry = dir.Find(view);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->slot, 0u);
  EXPECT_EQ(entry->ino, 42u);
  EXPECT_EQ(dir.Find(std::string_view("componen")), std::nullopt);
  EXPECT_EQ(dir.Remove(view), std::optional<InodeId>(42));
  EXPECT_EQ(dir.Lookup(stored), std::nullopt);
}

TEST(DirectoryTest, FindReturnsSlotAndInodeTogether) {
  Directory dir;
  dir.Insert("a", 10);
  dir.Insert("b", 11);
  dir.Remove("a");
  dir.Insert("c", 12);  // reuses a's slot 0
  const auto entry = dir.Find("c");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->slot, 0u);
  EXPECT_EQ(entry->ino, 12u);
}

TEST(DirectoryTest, IndexSurvivesGrowthAndChurn) {
  // Push the open-addressing index through several growth rounds with
  // interleaved removals; every live name must stay reachable.
  Directory dir;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::string name = 'r' + std::to_string(round) + '_' + std::to_string(i);
      ASSERT_TRUE(dir.Insert(name, round * 1000 + i + 1));
    }
    for (int i = 0; i < 200; i += 3) {
      ASSERT_TRUE(dir.Remove('r' + std::to_string(round) + '_' + std::to_string(i)).has_value());
    }
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::string name = 'r' + std::to_string(round) + '_' + std::to_string(i);
      const auto found = dir.Lookup(name);
      if (i % 3 == 0) {
        EXPECT_EQ(found, std::nullopt) << name;
      } else {
        ASSERT_TRUE(found.has_value()) << name;
        EXPECT_EQ(*found, static_cast<InodeId>(round * 1000 + i + 1)) << name;
      }
    }
  }
}

TEST(DirectoryTest, ManyEntriesStressHoles) {
  Directory dir;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(dir.Insert('f' + std::to_string(i), i + 1));
  }
  for (int i = 0; i < 1000; i += 2) {
    ASSERT_TRUE(dir.Remove('f' + std::to_string(i)).has_value());
  }
  EXPECT_EQ(dir.entry_count(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(dir.Insert('g' + std::to_string(i), 2000 + i));
  }
  // All holes reused: slot count unchanged.
  EXPECT_EQ(dir.slot_count(), 1000u);
  EXPECT_EQ(dir.entry_count(), 1000u);
}

}  // namespace
}  // namespace fsbench
