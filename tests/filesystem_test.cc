#include "src/sim/filesystem.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/sim/ext2fs.h"
#include "src/sim/ext3fs.h"
#include "src/sim/xfsfs.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

constexpr Bytes kDevice = 4 * kGiB;

std::unique_ptr<FileSystem> MakeFs(FsKind kind, VirtualClock* clock = nullptr) {
  const FsLayoutParams params;
  switch (kind) {
    case FsKind::kExt2:
      return std::make_unique<Ext2Fs>(kDevice, params, clock);
    case FsKind::kExt3:
      return std::make_unique<Ext3Fs>(kDevice, params, clock);
    case FsKind::kXfs:
      return std::make_unique<XfsFs>(kDevice, params, clock);
  }
  return nullptr;
}

class FileSystemSweep : public ::testing::TestWithParam<FsKind> {
 protected:
  std::unique_ptr<FileSystem> fs_ = MakeFs(GetParam());
};

TEST_P(FileSystemSweep, RootExistsAndIsConsistent) {
  EXPECT_NE(fs_->FindInode(kRootInode), nullptr);
  std::string error;
  EXPECT_TRUE(fs_->CheckConsistency(&error)) << error;
}

TEST_P(FileSystemSweep, CreateLookupStat) {
  MetaIo io;
  const auto created = fs_->Create(kRootInode, "file", FileType::kRegular, &io);
  ASSERT_TRUE(created.ok());
  const auto found = fs_->Lookup(kRootInode, "file", &io);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value, created.value);
  const auto attr = fs_->Stat(found.value, &io);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value.type, FileType::kRegular);
  EXPECT_EQ(attr.value.size, 0u);
  EXPECT_EQ(attr.value.link_count, 1u);
}

TEST_P(FileSystemSweep, CreateDuplicateFails) {
  MetaIo io;
  ASSERT_TRUE(fs_->Create(kRootInode, "file", FileType::kRegular, &io).ok());
  EXPECT_EQ(fs_->Create(kRootInode, "file", FileType::kRegular, &io).status,
            FsStatus::kExists);
}

TEST_P(FileSystemSweep, LookupMissingFails) {
  MetaIo io;
  EXPECT_EQ(fs_->Lookup(kRootInode, "ghost", &io).status, FsStatus::kNotFound);
}

TEST_P(FileSystemSweep, InvalidNamesRejected) {
  MetaIo io;
  EXPECT_EQ(fs_->Create(kRootInode, "", FileType::kRegular, &io).status, FsStatus::kInvalid);
  EXPECT_EQ(fs_->Create(kRootInode, "a/b", FileType::kRegular, &io).status,
            FsStatus::kInvalid);
}

TEST_P(FileSystemSweep, CreateUnderFileFails) {
  MetaIo io;
  const auto file = fs_->Create(kRootInode, "file", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(fs_->Create(file.value, "child", FileType::kRegular, &io).status,
            FsStatus::kNotDir);
}

TEST_P(FileSystemSweep, UnlinkFreesEverything) {
  MetaIo io;
  const auto file = fs_->Create(kRootInode, "file", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  for (uint64_t page = 0; page < 40; ++page) {
    ASSERT_TRUE(fs_->AllocatePage(file.value, page, &io).ok());
  }
  ASSERT_EQ(fs_->SetSize(file.value, 40 * 4096, &io), FsStatus::kOk);
  const uint64_t used_before = fs_->allocator().used_blocks();
  // 40 pages, or xfs's 16-page allocation chunks: 48.
  const uint64_t page_end = fs_->PageEnd(*fs_->FindInode(file.value));
  EXPECT_EQ(page_end, GetParam() == FsKind::kXfs ? 48u : 40u);
  MetaIo unlink_io;
  ASSERT_EQ(fs_->Unlink(kRootInode, "file", &unlink_io), FsStatus::kOk);
  EXPECT_LT(fs_->allocator().used_blocks(), used_before);
  EXPECT_EQ(fs_->FindInode(file.value), nullptr);
  // The caches drop every page the file could have cached.
  ASSERT_EQ(unlink_io.drop_ranges.size(), 1u);
  EXPECT_EQ(unlink_io.drop_ranges[0].ino, file.value);
  EXPECT_EQ(unlink_io.drop_ranges[0].first_page, 0u);
  EXPECT_EQ(unlink_io.drop_ranges[0].end_page, page_end);
  std::string error;
  EXPECT_TRUE(fs_->CheckConsistency(&error)) << error;
}

TEST_P(FileSystemSweep, UnlinkMissingFails) {
  MetaIo io;
  EXPECT_EQ(fs_->Unlink(kRootInode, "ghost", &io), FsStatus::kNotFound);
}

TEST_P(FileSystemSweep, RmdirOnlyWhenEmpty) {
  MetaIo io;
  const auto dir = fs_->Create(kRootInode, "dir", FileType::kDirectory, &io);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(fs_->Create(dir.value, "child", FileType::kRegular, &io).ok());
  EXPECT_EQ(fs_->Unlink(kRootInode, "dir", &io), FsStatus::kNotEmpty);
  ASSERT_EQ(fs_->Unlink(dir.value, "child", &io), FsStatus::kOk);
  EXPECT_EQ(fs_->Unlink(kRootInode, "dir", &io), FsStatus::kOk);
  std::string error;
  EXPECT_TRUE(fs_->CheckConsistency(&error)) << error;
}

TEST_P(FileSystemSweep, ReadDirListsEntries) {
  MetaIo io;
  ASSERT_TRUE(fs_->Create(kRootInode, "a", FileType::kRegular, &io).ok());
  ASSERT_TRUE(fs_->Create(kRootInode, "b", FileType::kRegular, &io).ok());
  const auto entries = fs_->ReadDir(kRootInode, &io);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value.size(), 2u);
}

TEST_P(FileSystemSweep, MapPageHoleSemantics) {
  MetaIo io;
  const auto file = fs_->Create(kRootInode, "file", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  const auto hole = fs_->MapPage(file.value, 5, &io);
  ASSERT_TRUE(hole.ok());
  EXPECT_EQ(hole.value, kInvalidBlock);
  const auto block = fs_->AllocatePage(file.value, 5, &io);
  ASSERT_TRUE(block.ok());
  EXPECT_NE(block.value, kInvalidBlock);
  const auto mapped = fs_->MapPage(file.value, 5, &io);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value, block.value);
  // Pages around the allocation remain holes.
  EXPECT_EQ(fs_->MapPage(file.value, 4, &io).value, kInvalidBlock);
}

TEST_P(FileSystemSweep, AllocatePageIsIdempotent) {
  MetaIo io;
  const auto file = fs_->Create(kRootInode, "file", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  const auto first = fs_->AllocatePage(file.value, 0, &io);
  const auto second = fs_->AllocatePage(file.value, 0, &io);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value, second.value);
}

TEST_P(FileSystemSweep, SequentialAllocationIsMostlyContiguous) {
  MetaIo io;
  const auto file = fs_->Create(kRootInode, "file", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  BlockId last = kInvalidBlock;
  uint64_t contiguous = 0;
  constexpr uint64_t kPages = 256;
  for (uint64_t page = 0; page < kPages; ++page) {
    const auto block = fs_->AllocatePage(file.value, page, &io);
    ASSERT_TRUE(block.ok());
    if (last != kInvalidBlock && block.value == last + 1) {
      ++contiguous;
    }
    last = block.value;
  }
  // Good layout: the vast majority of successive pages are physically
  // adjacent (occasional jumps over meta blocks are fine).
  EXPECT_GT(contiguous, kPages * 9 / 10);
}

TEST_P(FileSystemSweep, TruncateShrinkFreesBlocks) {
  MetaIo io;
  const auto file = fs_->Create(kRootInode, "file", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  for (uint64_t page = 0; page < 20; ++page) {
    ASSERT_TRUE(fs_->AllocatePage(file.value, page, &io).ok());
  }
  ASSERT_EQ(fs_->SetSize(file.value, 20 * 4096, &io), FsStatus::kOk);
  const uint64_t used_full = fs_->allocator().used_blocks();
  MetaIo shrink_io;
  ASSERT_EQ(fs_->SetSize(file.value, 5 * 4096, &shrink_io), FsStatus::kOk);
  EXPECT_LT(fs_->allocator().used_blocks(), used_full);
  EXPECT_FALSE(shrink_io.invalidations.empty());
  // Pages below the cut survive.
  EXPECT_NE(fs_->MapPage(file.value, 4, &io).value, kInvalidBlock);
  EXPECT_EQ(fs_->MapPage(file.value, 5, &io).value, kInvalidBlock);
  std::string error;
  EXPECT_TRUE(fs_->CheckConsistency(&error)) << error;
}

TEST_P(FileSystemSweep, SetSizeOnDirectoryFails) {
  MetaIo io;
  EXPECT_EQ(fs_->SetSize(kRootInode, 100, &io), FsStatus::kIsDir);
}

TEST_P(FileSystemSweep, LookupChargesDirectoryReads) {
  MetaIo io;
  // Populate enough entries to span several directory blocks.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fs_->Create(kRootInode, 'f' + std::to_string(i), FileType::kRegular, &io).ok());
  }
  MetaIo hit_io;
  ASSERT_TRUE(fs_->Lookup(kRootInode, "f0", &hit_io).ok());
  MetaIo miss_io;
  ASSERT_EQ(fs_->Lookup(kRootInode, "nope", &miss_io).status, FsStatus::kNotFound);
  EXPECT_FALSE(miss_io.reads.empty());
}

TEST_P(FileSystemSweep, RandomChurnStaysConsistent) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  MetaIo io;
  std::vector<std::string> live;
  for (int step = 0; step < 600; ++step) {
    if (rng.NextDouble() < 0.6 || live.empty()) {
      const std::string name = 'n' + std::to_string(step);
      const auto created = fs_->Create(kRootInode, name, FileType::kRegular, &io);
      ASSERT_TRUE(created.ok());
      // Give it some blocks.
      const uint64_t pages = rng.NextBelow(8);
      for (uint64_t p = 0; p < pages; ++p) {
        ASSERT_TRUE(fs_->AllocatePage(created.value, p, &io).ok());
      }
      ASSERT_EQ(fs_->SetSize(created.value, pages * 4096, &io), FsStatus::kOk);
      live.push_back(name);
    } else {
      const size_t idx = rng.NextBelow(live.size());
      ASSERT_EQ(fs_->Unlink(kRootInode, live[idx], &io), FsStatus::kOk);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  std::string error;
  EXPECT_TRUE(fs_->CheckConsistency(&error)) << error;
}

INSTANTIATE_TEST_SUITE_P(AllFs, FileSystemSweep,
                         ::testing::Values(FsKind::kExt2, FsKind::kExt3, FsKind::kXfs),
                         [](const auto& info) { return FsKindName(info.param); });

// --- FS-specific structure ---

TEST(Ext2FsTest, IndirectSlotNumbering) {
  Ext2Fs fs(kDevice, FsLayoutParams{}, nullptr);
  uint64_t slots[Ext2Fs::kMaxIndirectDepth];
  EXPECT_EQ(fs.IndirectSlotsInto(0, slots), 0u);  // direct
  EXPECT_EQ(fs.IndirectSlotsInto(11, slots), 0u);
  ASSERT_EQ(fs.IndirectSlotsInto(12, slots), 1u);  // single indirect
  EXPECT_EQ(slots[0], 0u);
  ASSERT_EQ(fs.IndirectSlotsInto(12 + 1024, slots), 2u);  // double indirect: root + leaf
  EXPECT_EQ(slots[0], 1u);
  EXPECT_EQ(slots[1], 2u);
  EXPECT_EQ(fs.IndirectSlotsInto(12 + 1024 + 1024 * 1024, slots), 3u);  // triple indirect
}

TEST(Ext2FsTest, LargeFileChargesIndirectMetaReads) {
  Ext2Fs fs(kDevice, FsLayoutParams{}, nullptr);
  MetaIo io;
  const auto file = fs.Create(kRootInode, "big", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(fs.AllocatePage(file.value, 2000, &io).ok());
  MetaIo map_io;
  ASSERT_TRUE(fs.MapPage(file.value, 2000, &map_io).ok());
  // itable + double-indirect root + leaf.
  EXPECT_GE(map_io.reads.size(), 3u);
}

// The reads of `io` in charge order, every MetaRun expanded.
std::vector<MetaRef> ExpandedReads(const MetaIo& io) {
  std::vector<MetaRef> reads;
  io.ForEachRead([&](const MetaRef& ref) {
    reads.push_back(ref);
    return true;
  });
  return reads;
}

// The directory scan's runs, expanded, against MapPage: page by page, the
// reads MapPage charges for the page and then the page itself. One dirent per
// page makes ~2,100 names reach the second double-indirect leaf.
TEST(Ext2FsTest, DirScanRunsExpandToMapPageReads) {
  FsLayoutParams params;
  params.dir_entries_per_block = 1;
  Ext2Fs fs(256 * kMiB, params, nullptr);
  MetaIo io;
  const FsResult<InodeId> dir = fs.Create(kRootInode, "d", FileType::kDirectory, &io);
  ASSERT_TRUE(dir.ok());
  constexpr uint64_t kNames = 2100;
  for (uint64_t i = 0; i < kNames; ++i) {
    io.Reset();
    ASSERT_TRUE(fs.Create(dir.value, 'f' + std::to_string(i), FileType::kRegular, &io).ok());
  }
  // With the device full, a create fails with ENOSPC on its dirent page: the
  // name goes, but its slot stays, so page kNames is scanned yet unmapped.
  io.Reset();
  const FsResult<InodeId> filler = fs.Create(kRootInode, "filler", FileType::kRegular, &io);
  ASSERT_TRUE(filler.ok());
  for (uint64_t page = 0; fs.AllocatePage(filler.value, page, &io).ok(); ++page) {
    io.Reset();
  }
  ASSERT_EQ(fs.allocator().free_blocks(), 0u);
  io.Reset();
  ASSERT_EQ(fs.Create(dir.value, "late", FileType::kRegular, &io).status, FsStatus::kNoSpace);
  ASSERT_EQ(fs.FindDir(dir.value)->slot_count(), kNames + 1);

  auto map_pages = [&](uint64_t pages) {
    MetaIo mapped;
    for (uint64_t page = 0; page < pages; ++page) {
      const FsResult<BlockId> block = fs.MapPage(dir.value, page, &mapped);
      EXPECT_TRUE(block.ok());
      if (block.value != kInvalidBlock) {
        mapped.reads.push_back({dir.value, page, block.value});
      }
    }
    EXPECT_TRUE(mapped.runs.empty());
    return ExpandedReads(mapped);
  };
  auto expect_reads = [](const std::vector<MetaRef>& got, const std::vector<MetaRef>& want,
                         const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].ino, want[i].ino) << what << " read " << i;
      ASSERT_EQ(got[i].index, want[i].index) << what << " read " << i;
      ASSERT_EQ(got[i].block, want[i].block) << what << " read " << i;
    }
  };
  auto expect_scan = [&](const MetaIo& scan, uint64_t pages, const std::string& what) {
    expect_reads(ExpandedReads(scan), map_pages(pages), what);
  };

  // A negative lookup scans every page: the direct pages, the single-
  // indirect stretch and two double-indirect leaves are one run each.
  MetaIo scan;
  ASSERT_EQ(fs.Lookup(dir.value, "missing", &scan).status, FsStatus::kNotFound);
  EXPECT_EQ(scan.runs.size(), 4u);
  expect_scan(scan, kNames + 1, "negative");
  // A positive lookup stops at the name's page.
  for (const uint64_t slot : {0, 1, 11, 12, 13, 1035, 1036, 2059, 2060, 2061, 2099}) {
    scan.Reset();
    ASSERT_TRUE(fs.Lookup(dir.value, 'f' + std::to_string(slot), &scan).ok());
    expect_scan(scan, slot + 1, "slot " + std::to_string(slot));
  }
  // Mapping a later page turns the unmapped page into a hole inside the
  // directory's block map.
  io.Reset();
  ASSERT_EQ(fs.Unlink(kRootInode, "filler", &io), FsStatus::kOk);
  io.Reset();
  ASSERT_TRUE(fs.AllocatePage(dir.value, kNames + 1, &io).ok());
  scan.Reset();
  ASSERT_EQ(fs.Lookup(dir.value, "missing", &scan).status, FsStatus::kNotFound);
  expect_scan(scan, kNames + 1, "negative, hole in the map");
  // The hole splits the scan when it is planned: no run covers it.
  const std::vector<BlockId>& block_map = fs.FindInode(dir.value)->block_map;
  for (const MetaRun& run : scan.runs) {
    for (uint32_t i = 0; i < run.pages; ++i) {
      EXPECT_NE(block_map[run.first_page + i], kInvalidBlock) << "page " << run.first_page + i;
    }
  }
  // A create reuses the hole's slot and maps the hole page during the call,
  // after its negative scan was planned: the plan still reads exactly what
  // the scan read, without the newly mapped page.
  const std::vector<MetaRef> hole_scan = ExpandedReads(scan);
  io.Reset();
  ASSERT_TRUE(fs.Create(dir.value, "reuse", FileType::kRegular, &io).ok());
  ASSERT_EQ(fs.FindDir(dir.value)->SlotOf("reuse"), kNames);
  ASSERT_NE(block_map[kNames], kInvalidBlock);
  expect_reads(ExpandedReads(io), hole_scan, "create into the hole");
}

TEST(XfsFsTest, ChunkedAllocationBuildsFewExtents) {
  XfsFs fs(kDevice, FsLayoutParams{}, nullptr);
  MetaIo io;
  const auto file = fs.Create(kRootInode, "big", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  for (uint64_t page = 0; page < 256; ++page) {
    ASSERT_TRUE(fs.AllocatePage(file.value, page, &io).ok());
  }
  const Inode* inode = fs.FindInode(file.value);
  ASSERT_NE(inode, nullptr);
  // 256 pages in 16-block chunks, merged when physically adjacent.
  EXPECT_LE(inode->extents.size(), 16u);
  EXPECT_GE(inode->allocated_blocks, 256u);
}

TEST(XfsFsTest, SparseAllocationRespectsLogicalGaps) {
  XfsFs fs(kDevice, FsLayoutParams{}, nullptr);
  MetaIo io;
  const auto file = fs.Create(kRootInode, "sparse", FileType::kRegular, &io);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(fs.AllocatePage(file.value, 100, &io).ok());
  ASSERT_TRUE(fs.AllocatePage(file.value, 0, &io).ok());
  // Page 0's extent must not spill into page 100's logical range... and the
  // gap pages stay holes.
  EXPECT_EQ(fs.MapPage(file.value, 50, &io).value, kInvalidBlock);
  EXPECT_NE(fs.MapPage(file.value, 100, &io).value, kInvalidBlock);
  std::string error;
  EXPECT_TRUE(fs.CheckConsistency(&error)) << error;
}

TEST(Ext3FsTest, JournalRegionIsReserved) {
  Ext3Fs fs(kDevice, FsLayoutParams{}, nullptr, 1024);
  const Extent region = fs.journal_region();
  EXPECT_EQ(region.count, 1024u);
  for (BlockId b = region.start; b < region.start + 16; ++b) {
    EXPECT_TRUE(fs.allocator().IsAllocated(b));
  }
  std::string error;
  EXPECT_TRUE(fs.CheckConsistency(&error)) << error;
}

TEST(Ext3FsTest, JournalAttachment) {
  Ext3Fs fs(kDevice, FsLayoutParams{}, nullptr);
  EXPECT_EQ(fs.journal(), nullptr);
  DiskParams params;
  VirtualClock clock;
  DiskModel disk(params, 1);
  IoScheduler scheduler(&disk);
  fs.AttachJournal(std::make_unique<JbdJournal>(&scheduler, &clock, fs.journal_region(),
                                                fs.sectors_per_block(), JournalMode::kOrdered));
  EXPECT_NE(fs.journal(), nullptr);
}

TEST(FsKindTest, Names) {
  EXPECT_STREQ(FsKindName(FsKind::kExt2), "ext2");
  EXPECT_STREQ(FsKindName(FsKind::kExt3), "ext3");
  EXPECT_STREQ(FsKindName(FsKind::kXfs), "xfs");
}

}  // namespace
}  // namespace fsbench
