#include "src/sim/vfs.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/sim/disk_model.h"
#include "src/sim/ext2fs.h"
#include "src/sim/ext3fs.h"
#include "src/sim/xfsfs.h"

namespace fsbench {
namespace {

constexpr Bytes kDevice = 4 * kGiB;

struct VfsFixture {
  DiskParams disk_params;
  VirtualClock clock;
  DiskModel disk;
  IoScheduler scheduler;
  std::unique_ptr<FileSystem> fs;
  std::unique_ptr<Vfs> vfs;

  explicit VfsFixture(FsKind kind = FsKind::kExt2, VfsConfig config = {}, Bytes device = kDevice)
      : disk(disk_params, 1), scheduler(&disk) {
    switch (kind) {
      case FsKind::kExt2:
        fs = std::make_unique<Ext2Fs>(device, FsLayoutParams{}, &clock);
        break;
      case FsKind::kExt3: {
        auto ext3 = std::make_unique<Ext3Fs>(device, FsLayoutParams{}, &clock);
        ext3->AttachJournal(std::make_unique<JbdJournal>(&scheduler, &clock,
                                                         ext3->journal_region(),
                                                         JournalConfig{}));
        fs = std::move(ext3);
        break;
      }
      case FsKind::kXfs:
        fs = std::make_unique<XfsFs>(device, FsLayoutParams{}, &clock);
        break;
    }
    vfs = std::make_unique<Vfs>(&clock, &scheduler, fs.get(), config);
  }
};

TEST(VfsTest, OpenMissingFileFails) {
  VfsFixture f;
  EXPECT_EQ(f.vfs->Open("/nope").status, FsStatus::kNotFound);
}

TEST(VfsTest, OpenWithCreateMakesTheFile) {
  VfsFixture f;
  const auto fd = f.vfs->Open("/new", /*create=*/true);
  ASSERT_TRUE(fd.ok());
  const auto attr = f.vfs->Stat("/new");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value.size, 0u);
}

TEST(VfsTest, CloseInvalidFdFails) {
  VfsFixture f;
  EXPECT_EQ(f.vfs->Close(42), FsStatus::kBadHandle);
  EXPECT_EQ(f.vfs->Read(42, 0, 10).status, FsStatus::kBadHandle);
}

TEST(VfsTest, FdSlotsAreReused) {
  VfsFixture f;
  const auto a = f.vfs->Open("/a", true);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(f.vfs->Close(a.value), FsStatus::kOk);
  const auto b = f.vfs->Open("/b", true);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value, b.value);
}

TEST(VfsTest, ReadPastEofReturnsZero) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 8 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  const auto read = f.vfs->Read(fd.value, 8 * kKiB, 100);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value, 0u);
}

TEST(VfsTest, ReadClampsToFileSize) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 10 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  const auto read = f.vfs->Read(fd.value, 8 * kKiB, 100 * kKiB);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value, 2 * kKiB);
}

TEST(VfsTest, ReadAdvancesVirtualTime) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 64 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  const Nanos before = f.clock.now();
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 4 * kKiB).ok());
  EXPECT_GT(f.clock.now(), before);
}

TEST(VfsTest, ColdReadIsSlowWarmReadIsFast) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 64 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  const Nanos t0 = f.clock.now();
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 4 * kKiB).ok());
  const Nanos cold = f.clock.now() - t0;
  const Nanos t1 = f.clock.now();
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 4 * kKiB).ok());
  const Nanos warm = f.clock.now() - t1;
  EXPECT_GT(cold, FromMillis(0.2));    // had to hit the disk (>= command overhead)
  EXPECT_LT(warm, 20 * kMicrosecond);  // pure cache hit
}

TEST(VfsTest, MultiPageReadsCountAllPages) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 64 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 16 * kKiB).ok());
  EXPECT_EQ(f.vfs->stats().data_page_hits + f.vfs->stats().data_page_misses, 4u);
}

TEST(VfsTest, WriteExtendsFile) {
  VfsFixture f;
  const auto fd = f.vfs->Open("/file", true);
  ASSERT_TRUE(fd.ok());
  const auto written = f.vfs->Write(fd.value, 0, 10 * kKiB);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value, 10 * kKiB);
  const auto attr = f.vfs->Stat("/file");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value.size, 10 * kKiB);
  EXPECT_GT(f.vfs->cache().dirty_count(), 0u);
}

TEST(VfsTest, SparseWriteLeavesHolesReadableAsZeroFill) {
  VfsFixture f;
  const auto fd = f.vfs->Open("/sparse", true);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Write(fd.value, 100 * kKiB, 4 * kKiB).ok());
  // Reading the hole must succeed without disk I/O for the hole pages.
  const uint64_t demand_before = f.vfs->stats().demand_requests;
  const auto read = f.vfs->Read(fd.value, 0, 4 * kKiB);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value, 4 * kKiB);
  EXPECT_EQ(f.vfs->stats().demand_requests, demand_before);
}

TEST(VfsTest, PartialOverwriteTriggersReadModifyWrite) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 8 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  const uint64_t demand_before = f.vfs->stats().demand_requests;
  // Unaligned 1 KiB write into an uncached page of existing data.
  ASSERT_TRUE(f.vfs->Write(fd.value, 512, 1024).ok());
  EXPECT_GT(f.vfs->stats().demand_requests, demand_before);
}

TEST(VfsTest, FsyncCleansTheFilesDirtyPagesAndWaits) {
  VfsFixture f(FsKind::kExt3);
  const auto fd = f.vfs->Open("/file", true);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Write(fd.value, 0, 64 * kKiB).ok());
  ASSERT_GT(f.vfs->cache().dirty_count(), 0u);
  const size_t dirty_before = f.vfs->cache().dirty_count();
  const Nanos before = f.clock.now();
  ASSERT_EQ(f.vfs->Fsync(fd.value), FsStatus::kOk);
  // Per-file writeback: the file's 16 data pages plus its own metadata (one
  // inode-table block, one single-indirect block for pages 12-15) are
  // written; *shared* dirty metadata (bitmaps, the parent dirent block)
  // stays behind for the journal commit and background writeback.
  EXPECT_EQ(f.vfs->cache().dirty_count(), dirty_before - 18);
  EXPECT_EQ(f.vfs->stats().writeback_pages, 18u);
  EXPECT_GT(f.clock.now(), before);
  EXPECT_GE(f.fs->journal()->stats().sync_commits, 1u);
  // A second fsync of the now-clean file writes nothing further back.
  ASSERT_EQ(f.vfs->Fsync(fd.value), FsStatus::kOk);
  EXPECT_EQ(f.vfs->stats().writeback_pages, 18u);
}

TEST(VfsTest, FsyncWritesBackOnlyThisFile) {
  VfsFixture f;
  const auto fd_a = f.vfs->Open("/a", true);
  const auto fd_b = f.vfs->Open("/b", true);
  ASSERT_TRUE(fd_a.ok());
  ASSERT_TRUE(fd_b.ok());
  ASSERT_TRUE(f.vfs->Write(fd_a.value, 0, 16 * kKiB).ok());
  ASSERT_TRUE(f.vfs->Write(fd_b.value, 0, 32 * kKiB).ok());
  const size_t dirty_before = f.vfs->cache().dirty_count();
  ASSERT_EQ(f.vfs->Fsync(fd_a.value), FsStatus::kOk);
  // /a's 4 data pages plus the inode-table block (which both small files
  // share) were taken; /b's 8 data pages and the other metadata stay dirty.
  EXPECT_EQ(f.vfs->stats().writeback_pages, 5u);
  EXPECT_EQ(f.vfs->cache().dirty_count(), dirty_before - 5);
  // /b is still fully dirty: its fsync writes its 8 pages (the shared
  // inode-table block is already clean).
  ASSERT_EQ(f.vfs->Fsync(fd_b.value), FsStatus::kOk);
  EXPECT_EQ(f.vfs->stats().writeback_pages, 13u);
}

TEST(VfsTest, FsyncOfCleanFileWritesNothing) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/clean", 16 * kKiB), FsStatus::kOk);
  ASSERT_EQ(f.vfs->PrewarmFile("/clean"), FsStatus::kOk);
  const auto fd = f.vfs->Open("/clean");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 16 * kKiB).ok());
  ASSERT_EQ(f.vfs->Fsync(fd.value), FsStatus::kOk);
  EXPECT_EQ(f.vfs->stats().writeback_pages, 0u);
}

TEST(VfsTest, FsyncStillWaitsForOutstandingIoAndCommitsJournal) {
  VfsFixture f(FsKind::kExt3);
  const auto fd = f.vfs->Open("/j", true);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Write(fd.value, 0, 8 * kKiB).ok());
  ASSERT_EQ(f.vfs->Fsync(fd.value), FsStatus::kOk);
  EXPECT_GE(f.fs->journal()->stats().sync_commits, 1u);
  // The scheduler is idle once fsync returns: its queue drained.
  EXPECT_EQ(f.scheduler.pending_async(), 0u);
}

TEST(VfsTest, ReadaheadWindowAnchorsAtBatchStart) {
  // Fixed 8-page windows; a 4-page cold read coalesces into one demand batch
  // for pages 0-3, so the window decided at page 0 covers [1, 8] and only
  // pages 4-8 are left to prefetch. (The old pipeline issued the window from
  // the batch's last page, skewing it to [4, 11].)
  VfsConfig config;
  config.readahead_override = ReadaheadConfig{ReadaheadKind::kFixed, /*fixed_pages=*/8, 0, 0, 0};
  VfsFixture f(FsKind::kExt2, config);
  ASSERT_EQ(f.vfs->MakeFile("/ra", 64 * 4 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/ra");
  ASSERT_TRUE(fd.ok());
  const InodeId ino = f.vfs->Stat("/ra").value.ino;
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 4 * 4 * kKiB).ok());
  EXPECT_EQ(f.vfs->stats().readahead_pages, 5u);  // pages 4..8
  EXPECT_TRUE(f.vfs->cache().Contains(PageKey{ino, 8}));
  EXPECT_FALSE(f.vfs->cache().Contains(PageKey{ino, 9}));
  EXPECT_FALSE(f.vfs->cache().Contains(PageKey{ino, 11}));
}

TEST(VfsTest, PathsWithRepeatedAndTrailingSlashesCollapse) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->Mkdir("/a"), FsStatus::kOk);
  ASSERT_EQ(f.vfs->Mkdir("//a//b/"), FsStatus::kOk);
  ASSERT_EQ(f.vfs->CreateFile("/a/b/c"), FsStatus::kOk);
  EXPECT_TRUE(f.vfs->Stat("//a//b//c").ok());
  EXPECT_TRUE(f.vfs->Stat("/a/b/c/").ok());
  const auto entries = f.vfs->ReadDir("//a/b/");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value.size(), 1u);
  EXPECT_EQ(entries.value[0], "c");
}

TEST(VfsTest, TrailingSlashOnCreatePathNamesTheLeaf) {
  VfsFixture f;
  // The cursor collapses the trailing slash, so the leaf is "x".
  ASSERT_EQ(f.vfs->CreateFile("/x/"), FsStatus::kOk);
  EXPECT_TRUE(f.vfs->Stat("/x").ok());
  const auto fd = f.vfs->Open("/y/", /*create=*/true);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(f.vfs->Stat("/y").ok());
}

TEST(VfsTest, RootPathResolvesToRootDirectory) {
  VfsFixture f;
  const auto attr = f.vfs->Stat("/");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value.ino, kRootInode);
  EXPECT_EQ(attr.value.type, FileType::kDirectory);
  // There is no parent to create the root under.
  EXPECT_EQ(f.vfs->CreateFile("/"), FsStatus::kInvalid);
  EXPECT_EQ(f.vfs->Mkdir("/"), FsStatus::kInvalid);
  EXPECT_EQ(f.vfs->Unlink("/"), FsStatus::kInvalid);
  // Opening the root itself works (directories are openable handles here).
  EXPECT_TRUE(f.vfs->Open("/").ok());
}

TEST(VfsTest, ResolveThroughFileFailsWithNotDir) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->CreateFile("/plain"), FsStatus::kOk);
  EXPECT_EQ(f.vfs->Stat("/plain/child").status, FsStatus::kNotDir);
  EXPECT_EQ(f.vfs->Open("/plain/child", /*create=*/true).status, FsStatus::kNotDir);
  EXPECT_EQ(f.vfs->CreateFile("/plain/child"), FsStatus::kNotDir);
}

TEST(VfsTest, CreateUnderMissingIntermediateFailsEvenWithCreateFlag) {
  VfsFixture f;
  EXPECT_EQ(f.vfs->Open("/no/such/dir/file", /*create=*/true).status, FsStatus::kNotFound);
  EXPECT_EQ(f.vfs->Stat("/no/such/dir/file").status, FsStatus::kNotFound);
}

TEST(VfsTest, OpenCreateResolvesParentInSingleWalk) {
  // A create-open under a warm directory touches only cached meta pages: no
  // disk reads beyond what the negative scan plus create writes need, and
  // the leaf's parent comes out of the same walk that missed the leaf.
  VfsFixture f;
  ASSERT_EQ(f.vfs->Mkdir("/warm"), FsStatus::kOk);
  ASSERT_EQ(f.vfs->CreateFile("/warm/seed"), FsStatus::kOk);
  ASSERT_TRUE(f.vfs->Stat("/warm/seed").ok());  // warm the dir meta pages
  const uint64_t demand_before = f.vfs->stats().demand_requests;
  const auto fd = f.vfs->Open("/warm/fresh", /*create=*/true);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(f.vfs->stats().creates, 2u);
  EXPECT_EQ(f.vfs->stats().demand_requests, demand_before);
  EXPECT_TRUE(f.vfs->Stat("/warm/fresh").ok());
}

TEST(VfsTest, UnlinkInvalidatesCachedPages) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 16 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 16 * kKiB).ok());
  const size_t cached = f.vfs->cache().size();
  ASSERT_EQ(f.vfs->Unlink("/file"), FsStatus::kOk);
  EXPECT_LT(f.vfs->cache().size(), cached);
  EXPECT_EQ(f.vfs->Stat("/file").status, FsStatus::kNotFound);
}

TEST(VfsTest, MkdirAndNestedPaths) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->Mkdir("/a"), FsStatus::kOk);
  ASSERT_EQ(f.vfs->Mkdir("/a/b"), FsStatus::kOk);
  ASSERT_EQ(f.vfs->CreateFile("/a/b/c"), FsStatus::kOk);
  const auto attr = f.vfs->Stat("/a/b/c");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value.type, FileType::kRegular);
  const auto entries = f.vfs->ReadDir("/a/b");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value.size(), 1u);
  EXPECT_EQ(entries.value[0], "c");
  // Paths through missing components fail.
  EXPECT_EQ(f.vfs->CreateFile("/a/x/y"), FsStatus::kNotFound);
}

TEST(VfsTest, TruncateShrinksAndReadsPastEndReturnZero) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 32 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 32 * kKiB).ok());
  ASSERT_EQ(f.vfs->Truncate("/file", 4 * kKiB), FsStatus::kOk);
  const auto attr = f.vfs->Stat("/file");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value.size, 4 * kKiB);
  const auto read = f.vfs->Read(fd.value, 8 * kKiB, 4 * kKiB);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value, 0u);
}

TEST(VfsTest, MakeFileAndPrewarmChargeNoTime) {
  VfsFixture f;
  const Nanos before = f.clock.now();
  ASSERT_EQ(f.vfs->MakeFile("/big", 4 * kMiB), FsStatus::kOk);
  ASSERT_EQ(f.vfs->PrewarmFile("/big"), FsStatus::kOk);
  EXPECT_EQ(f.clock.now(), before);
  const auto fd = f.vfs->Open("/big");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 4 * kKiB).ok());
  EXPECT_EQ(f.vfs->stats().data_page_misses, 0u);
}

TEST(VfsTest, DropCachesForcesMisses) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 16 * kKiB), FsStatus::kOk);
  ASSERT_EQ(f.vfs->PrewarmFile("/file"), FsStatus::kOk);
  f.vfs->DropCaches();
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 4 * kKiB).ok());
  EXPECT_GT(f.vfs->stats().data_page_misses, 0u);
}

TEST(VfsTest, SequentialReadTriggersReadahead) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/seq", 1 * kMiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/seq");
  ASSERT_TRUE(fd.ok());
  for (Bytes offset = 0; offset < 512 * kKiB; offset += 4 * kKiB) {
    ASSERT_TRUE(f.vfs->Read(fd.value, offset, 4 * kKiB).ok());
  }
  EXPECT_GT(f.vfs->stats().readahead_pages, 0u);
  // Readahead means far fewer demand requests than pages read.
  EXPECT_LT(f.vfs->stats().demand_requests, 128u);
}

TEST(VfsTest, ReadaheadOverrideDisablesPrefetch) {
  VfsConfig config;
  config.readahead_override = ReadaheadConfig{ReadaheadKind::kNone, 0, 0, 0, 0};
  VfsFixture f(FsKind::kExt2, config);
  ASSERT_EQ(f.vfs->MakeFile("/seq", 256 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/seq");
  ASSERT_TRUE(fd.ok());
  for (Bytes offset = 0; offset < 256 * kKiB; offset += 4 * kKiB) {
    ASSERT_TRUE(f.vfs->Read(fd.value, offset, 4 * kKiB).ok());
  }
  EXPECT_EQ(f.vfs->stats().readahead_pages, 0u);
}

TEST(VfsTest, InjectedDiskErrorSurfacesAsIoError) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 16 * kKiB), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  // Learn the data block's location, poison it, drop caches, re-read.
  ASSERT_TRUE(f.vfs->Read(fd.value, 0, 4 * kKiB).ok());
  MetaIo io;
  const auto mapping = f.fs->MapPage(f.vfs->Stat("/file").value.ino, 0, &io);
  ASSERT_TRUE(mapping.ok());
  f.disk.InjectError(mapping.value * f.fs->sectors_per_block());
  f.vfs->DropCaches();
  EXPECT_EQ(f.vfs->Read(fd.value, 0, 4 * kKiB).status, FsStatus::kIoError);
  EXPECT_GT(f.vfs->stats().io_errors, 0u);
}

TEST(VfsTest, StatsCountersTrackOperations) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->CreateFile("/x"), FsStatus::kOk);
  ASSERT_TRUE(f.vfs->Stat("/x").ok());
  ASSERT_EQ(f.vfs->Unlink("/x"), FsStatus::kOk);
  EXPECT_EQ(f.vfs->stats().creates, 1u);
  EXPECT_EQ(f.vfs->stats().stats_calls, 1u);
  EXPECT_EQ(f.vfs->stats().unlinks, 1u);
}

TEST(VfsTest, OpenCreateThatFailsIsNotCounted) {
  // One 128 MiB ext2 group has 2,048 inode slots, and the root holds one.
  VfsFixture f(FsKind::kExt2, VfsConfig{}, 128 * kMiB);
  for (int i = 0; i < 2047; ++i) {
    ASSERT_EQ(f.vfs->CreateFile("/f" + std::to_string(i)), FsStatus::kOk);
  }
  ASSERT_EQ(f.vfs->CreateFile("/full"), FsStatus::kNoSpace);
  EXPECT_EQ(f.vfs->Open("/extra", /*create=*/true).status, FsStatus::kNoSpace);
  EXPECT_EQ(f.vfs->stats().creates, 2047u);
}

TEST(VfsTest, HitRatioReflectsCacheBehaviour) {
  VfsFixture f;
  ASSERT_EQ(f.vfs->MakeFile("/file", 64 * kKiB), FsStatus::kOk);
  ASSERT_EQ(f.vfs->PrewarmFile("/file"), FsStatus::kOk);
  const auto fd = f.vfs->Open("/file");
  ASSERT_TRUE(fd.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.vfs->Read(fd.value, (i % 16) * 4 * kKiB, 4 * kKiB).ok());
  }
  EXPECT_DOUBLE_EQ(f.vfs->DataHitRatio(), 1.0);
}

class VfsFsSweep : public ::testing::TestWithParam<FsKind> {};

TEST_P(VfsFsSweep, EndToEndChurnStaysConsistent) {
  VfsFixture f(GetParam());
  ASSERT_EQ(f.vfs->Mkdir("/work"), FsStatus::kOk);
  Rng rng(77);
  std::vector<std::string> live;
  for (int step = 0; step < 300; ++step) {
    if (rng.NextDouble() < 0.5 || live.empty()) {
      const std::string path = "/work/f" + std::to_string(step);
      ASSERT_EQ(f.vfs->CreateFile(path), FsStatus::kOk);
      const auto fd = f.vfs->Open(path);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(f.vfs->Write(fd.value, 0, rng.NextBelow(8) * 4 * kKiB + 1024).ok());
      ASSERT_EQ(f.vfs->Close(fd.value), FsStatus::kOk);
      live.push_back(path);
    } else {
      const size_t idx = rng.NextBelow(live.size());
      ASSERT_EQ(f.vfs->Unlink(live[idx]), FsStatus::kOk);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  f.vfs->SyncAll();
  std::string error;
  EXPECT_TRUE(f.fs->CheckConsistency(&error)) << error;
  EXPECT_TRUE(f.vfs->cache().CheckInvariants());
}

// read(2) and write(2) on a directory fd fail with EISDIR before changing
// anything: no block is allocated, none is mapped into the directory, and
// nothing is dirtied (on ext3, nothing is logged either).
TEST_P(VfsFsSweep, ReadAndWriteOnDirectoryFailWithEisdir) {
  VfsFixture f(GetParam());
  ASSERT_EQ(f.vfs->Mkdir("/d"), FsStatus::kOk);
  f.vfs->SyncAll();
  const auto fd = f.vfs->Open("/d");
  ASSERT_TRUE(fd.ok());
  const auto before = f.vfs->Stat("/d");
  ASSERT_TRUE(before.ok());
  const uint64_t used_before = f.fs->allocator().used_blocks();
  const size_t dirty_before = f.vfs->cache().dirty_count();
  const Journal* journal = f.fs->journal();
  const size_t logged_before = journal != nullptr ? journal->pending_blocks() : 0;

  EXPECT_EQ(f.vfs->Write(fd.value, 5 * 4 * kKiB, 4 * kKiB).status, FsStatus::kIsDir);
  EXPECT_EQ(f.vfs->Read(fd.value, 0, 4 * kKiB).status, FsStatus::kIsDir);

  EXPECT_EQ(f.fs->allocator().used_blocks(), used_before);
  const auto after = f.vfs->Stat("/d");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value.allocated_blocks, before.value.allocated_blocks);
  EXPECT_EQ(after.value.size, before.value.size);
  EXPECT_EQ(f.vfs->cache().dirty_count(), dirty_before);
  if (journal != nullptr) {
    EXPECT_EQ(journal->pending_blocks(), logged_before);
  }
  std::string error;
  EXPECT_TRUE(f.fs->CheckConsistency(&error)) << error;
}

// The number of pages {ino, p}, p < end, resident in the page cache.
size_t ResidentPages(const Vfs& vfs, InodeId ino, uint64_t end) {
  size_t resident = 0;
  for (uint64_t page = 0; page < end; ++page) {
    resident += vfs.cache().Contains(PageKey{ino, page}) ? 1 : 0;
  }
  return resident;
}

// A shrinking truncate drops every cached page past the new end, hole pages
// included. The file grows sparse by Truncate, so reading pages 4-7 caches
// four zero-filled hole pages that no block backs; the file system frees
// (and invalidates) only mapped pages, so the truncate's page range is what
// drops them.
TEST_P(VfsFsSweep, ShrinkingTruncateDropsCachedHolePages) {
  VfsFixture f(GetParam());
  constexpr Bytes kPage = 4 * kKiB;
  ASSERT_EQ(f.vfs->CreateFile("/f"), FsStatus::kOk);
  ASSERT_EQ(f.vfs->Truncate("/f", 8 * kPage), FsStatus::kOk);
  const auto fd = f.vfs->Open("/f");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.vfs->Read(fd.value, 4 * kPage, 4 * kPage).ok());
  const InodeId ino = f.vfs->Stat("/f").value.ino;
  ASSERT_EQ(ResidentPages(*f.vfs, ino, 8), 4u);

  ASSERT_EQ(f.vfs->Truncate("/f", 2 * kPage), FsStatus::kOk);
  EXPECT_EQ(ResidentPages(*f.vfs, ino, 8), 0u);
  std::string error;
  EXPECT_TRUE(f.fs->CheckConsistency(&error)) << error;
  EXPECT_TRUE(f.vfs->cache().CheckInvariants());
}

// An append cut short by ENOSPC leaves the pages it already wrote dirty in
// the cache, mapped past EOF: the size moves only once every page of the
// write has a block. Unlink must drop every one of them.
TEST_P(VfsFsSweep, UnlinkDropsDirtyPagesAnEnospcAppendLeftPastEof) {
  // One 64 MiB group: 256 header blocks, and 8,192 log blocks on ext3/xfs.
  constexpr Bytes kSmallDevice = 64 * kMiB;
  constexpr uint64_t kDevicePages = kSmallDevice / (4 * kKiB);
  VfsFixture f(GetParam(), VfsConfig{}, kSmallDevice);
  ASSERT_EQ(f.vfs->CreateFile("/f"), FsStatus::kOk);
  const auto fd = f.vfs->Open("/f");
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(f.vfs->Write(fd.value, 0, kSmallDevice).status, FsStatus::kNoSpace);
  const auto attr = f.vfs->Stat("/f");
  ASSERT_TRUE(attr.ok());
  ASSERT_EQ(attr.value.size, 0u);
  const size_t past_eof = ResidentPages(*f.vfs, attr.value.ino, kDevicePages);
  ASSERT_GT(past_eof, 1000u);
  ASSERT_GT(f.vfs->cache().dirty_count(), 0u);

  ASSERT_EQ(f.vfs->Unlink("/f"), FsStatus::kOk);
  EXPECT_EQ(ResidentPages(*f.vfs, attr.value.ino, kDevicePages), 0u);
  std::string error;
  EXPECT_TRUE(f.fs->CheckConsistency(&error)) << error;
  EXPECT_TRUE(f.vfs->cache().CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(AllFs, VfsFsSweep,
                         ::testing::Values(FsKind::kExt2, FsKind::kExt3, FsKind::kXfs),
                         [](const auto& info) { return FsKindName(info.param); });

}  // namespace
}  // namespace fsbench
