// The VFS operation pipeline allocates nothing at steady state.
//
// This binary counts every global operator new (src/util/alloc_counter.h).
// Each test warms one loop through a Vfs, so that every reused buffer (the
// scratch MetaIo, the page cache's probe and run-memo vectors) has held its
// largest size, then runs the loop kCountedPasses more times and requires
// that none of them allocated. Paths are built before counting starts, and
// no gtest assertion runs inside the counted region: a failing one would
// allocate its message. Unexpected op results are tallied there and checked
// afterwards.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/machine.h"
#include "src/util/alloc_counter.h"

namespace fsbench {
namespace {

constexpr uint64_t kCountedPasses = 1000;

struct SteadyState {
  uint64_t allocs = 0;
  uint64_t failed_passes = 0;  // passes whose ops did not return what they should
};

// Runs `pass(i)` `warmup` times, then kCountedPasses times while counting
// allocations. `pass` returns false when an op did not return what it
// should.
template <typename Pass>
SteadyState MeasureSteadyState(uint64_t warmup, Pass&& pass) {
  SteadyState result;
  for (uint64_t i = 0; i < warmup; ++i) {
    result.failed_passes += pass(i) ? 0 : 1;
  }
  const uint64_t before = AllocCount();
  for (uint64_t i = 0; i < kCountedPasses; ++i) {
    result.failed_passes += pass(i) ? 0 : 1;
  }
  result.allocs = AllocCount() - before;
  return result;
}

std::unique_ptr<Machine> MakeExt2Machine() {
  MachineConfig config = PaperTestbedConfig();
  config.seed = 1;
  config.ram = 128 * kMiB;
  config.os_reserved = 32 * kMiB;
  return std::make_unique<Machine>(FsKind::kExt2, config);
}

// stat, open/close and a negative stat over a 3-deep namespace, every page
// a cache hit.
TEST(VfsAllocTest, NamespaceLoopDoesNotAllocate) {
  const auto machine = MakeExt2Machine();
  Vfs& vfs = machine->vfs();
  ASSERT_EQ(vfs.Mkdir("/src"), FsStatus::kOk);
  std::vector<std::string> paths;
  std::vector<std::string> missing;
  for (int d = 0; d < 4; ++d) {
    const std::string dir = "/src/d" + std::to_string(d);
    ASSERT_EQ(vfs.Mkdir(dir), FsStatus::kOk);
    for (int i = 0; i < 16; ++i) {
      paths.push_back(dir + "/f" + std::to_string(i));
      ASSERT_EQ(vfs.MakeFile(paths.back(), 4 * kKiB), FsStatus::kOk);
      ASSERT_EQ(vfs.PrewarmFile(paths.back()), FsStatus::kOk);
    }
    missing.push_back(dir + "/nope");
  }

  const SteadyState steady = MeasureSteadyState(paths.size() * 4, [&](uint64_t i) {
    const std::string& path = paths[i % paths.size()];
    if (!vfs.Stat(path).ok()) {
      return false;
    }
    const FsResult<int> fd = vfs.Open(path);
    if (!fd.ok() || vfs.Close(fd.value) != FsStatus::kOk) {
      return false;
    }
    return vfs.Stat(missing[i % missing.size()]).status == FsStatus::kNotFound;
  });
  EXPECT_EQ(steady.failed_passes, 0u);
  EXPECT_EQ(steady.allocs, 0u);
}

// Open, read every page of a prewarmed file, close: the data read hit path.
TEST(VfsAllocTest, ReadHitLoopDoesNotAllocate) {
  const auto machine = MakeExt2Machine();
  Vfs& vfs = machine->vfs();
  constexpr Bytes kFileSize = 32 * kKiB;
  ASSERT_EQ(vfs.Mkdir("/tree"), FsStatus::kOk);
  std::vector<std::string> paths;
  for (int i = 0; i < 16; ++i) {
    paths.push_back("/tree/s" + std::to_string(i));
    ASSERT_EQ(vfs.MakeFile(paths.back(), kFileSize), FsStatus::kOk);
    ASSERT_EQ(vfs.PrewarmFile(paths.back()), FsStatus::kOk);
  }
  const VfsStats before = vfs.stats();

  const SteadyState steady = MeasureSteadyState(paths.size() * 2, [&](uint64_t i) {
    const FsResult<int> fd = vfs.Open(paths[i % paths.size()]);
    if (!fd.ok()) {
      return false;
    }
    for (Bytes offset = 0; offset < kFileSize; offset += 4 * kKiB) {
      if (!vfs.Read(fd.value, offset, 4 * kKiB).ok()) {
        return false;
      }
    }
    return vfs.Close(fd.value) == FsStatus::kOk;
  });
  EXPECT_EQ(steady.failed_passes, 0u);
  EXPECT_EQ(steady.allocs, 0u);
  // Every page read in the loop was a RAM hit.
  EXPECT_EQ(vfs.stats().data_page_misses, before.data_page_misses);
  EXPECT_EQ(vfs.stats().data_page_hits - before.data_page_hits,
            (paths.size() * 2 + kCountedPasses) * (kFileSize / (4 * kKiB)));
}

// A negative lookup in a 20,000-name ext2 directory plans a scan of all its
// 313 pages as two MetaRuns (the 12 direct pages, then the single-indirect
// stretch) and charges both through PageCache::LookupRun.
TEST(VfsAllocTest, BigDirectoryNegativeLookupDoesNotAllocate) {
  const auto machine = MakeExt2Machine();
  Vfs& vfs = machine->vfs();
  ASSERT_EQ(vfs.Mkdir("/big"), FsStatus::kOk);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(vfs.CreateFile("/big/f" + std::to_string(i)), FsStatus::kOk);
  }
  const FsResult<FileAttr> dir = vfs.Stat("/big");
  ASSERT_TRUE(dir.ok());
  MetaIo plan;
  ASSERT_EQ(machine->fs().Lookup(dir.value.ino, "nope", &plan).status, FsStatus::kNotFound);
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].pages + plan.runs[1].pages, 313u);
  const std::string missing = "/big/nope";

  const SteadyState steady = MeasureSteadyState(16, [&](uint64_t) {
    return vfs.Stat(missing).status == FsStatus::kNotFound;
  });
  EXPECT_EQ(steady.failed_passes, 0u);
  EXPECT_EQ(steady.allocs, 0u);
}

}  // namespace
}  // namespace fsbench
