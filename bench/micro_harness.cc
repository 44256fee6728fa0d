// Micro-benchmarks (google-benchmark) for the harness's own hot paths.
//
// A measurement harness must be cheap relative to what it measures, or it
// perturbs the result — the observer-effect side of the paper's argument.
// These verify that per-operation instrumentation (histogram insert, stats
// update, timeline bucketing, RNG draws, cache lookups, disk-model service
// computation) costs nanoseconds of *real* time, far below the microseconds
// of simulated work per operation.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/metrics.h"
#include "src/core/stats.h"
#include "src/core/timeline.h"
#include "src/sim/block_allocator.h"
#include "src/sim/directory.h"
#include "src/sim/disk_model.h"
#include "src/sim/flash_tier.h"
#include "src/sim/inode_table.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/machine.h"
#include "src/sim/page_cache.h"
#include "src/sim/ssd_model.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBelow(104960));
  }
}
BENCHMARK(BM_RngNextBelow);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextZipf(100000, 0.9));
  }
}
BENCHMARK(BM_RngZipf);

void BM_HistogramAdd(benchmark::State& state) {
  LatencyHistogram histogram;
  Rng rng(1);
  for (auto _ : state) {
    histogram.Add(static_cast<Nanos>(rng.NextBelow(100'000'000)));
  }
  benchmark::DoNotOptimize(histogram.total());
}
BENCHMARK(BM_HistogramAdd);

void BM_RunningStatsAdd(benchmark::State& state) {
  RunningStats stats;
  Rng rng(1);
  for (auto _ : state) {
    stats.Add(rng.NextDouble());
  }
  benchmark::DoNotOptimize(stats.mean());
}
BENCHMARK(BM_RunningStatsAdd);

void BM_MetricsRecord(benchmark::State& state) {
  MetricsCollector metrics(MetricsConfig{});
  Rng rng(1);
  Nanos now = 0;
  for (auto _ : state) {
    const Nanos latency = static_cast<Nanos>(rng.NextBelow(10'000'000));
    metrics.Record(OpType::kRead, now, latency);
    now += 100'000;
  }
  benchmark::DoNotOptimize(metrics.total_ops());
}
BENCHMARK(BM_MetricsRecord);

void BM_PageCacheLookupHit(benchmark::State& state) {
  PageCache cache(/*capacity_pages=*/65536, EvictionPolicyKind::kLru);
  for (uint64_t i = 0; i < 65536; ++i) {
    cache.Insert(PageKey{1, i}, i, false, nullptr);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(PageKey{1, rng.NextBelow(65536)}));
  }
}
BENCHMARK(BM_PageCacheLookupHit);

void BM_PageCacheInsertEvict(benchmark::State& state) {
  PageCache cache(/*capacity_pages=*/4096, EvictionPolicyKind::kLru);
  PageCache::EvictedBatch evicted;
  uint64_t next = 0;
  for (auto _ : state) {
    cache.Insert(PageKey{1, next++}, next, false, &evicted);
    benchmark::DoNotOptimize(evicted);
  }
}
BENCHMARK(BM_PageCacheInsertEvict);

void BM_PageCacheArcInsertEvict(benchmark::State& state) {
  PageCache cache(/*capacity_pages=*/4096, EvictionPolicyKind::kArc);
  PageCache::EvictedBatch evicted;
  uint64_t next = 0;
  for (auto _ : state) {
    cache.Insert(PageKey{1, next++}, next, false, &evicted);
    benchmark::DoNotOptimize(evicted);
  }
}
BENCHMARK(BM_PageCacheArcInsertEvict);

void BM_PageCacheRemoveFile(benchmark::State& state) {
  // A 64-page file created and dropped by its page range against a
  // 64k-page resident background — the create/delete pattern where an old
  // implementation scanned the whole table per unlink.
  PageCache cache(/*capacity_pages=*/131072, EvictionPolicyKind::kLru);
  for (InodeId ino = 1; ino <= 1024; ++ino) {
    for (uint64_t i = 0; i < 64; ++i) {
      cache.Insert(PageKey{ino, i}, ino * 64 + i, false, nullptr);
    }
  }
  InodeId next_ino = 1'000'000;
  for (auto _ : state) {
    for (uint64_t i = 0; i < 64; ++i) {
      cache.Insert(PageKey{next_ino, i}, i, false, nullptr);
    }
    cache.RemoveRange(next_ino, 0, 64);
    ++next_ino;
  }
  benchmark::DoNotOptimize(cache.size());
}
BENCHMARK(BM_PageCacheRemoveFile);

void BM_PageCacheTakeDirty(benchmark::State& state) {
  // 256 pages dirtied and drained per iteration out of 64k resident pages;
  // the old implementation walked the table from the start every call.
  PageCache cache(/*capacity_pages=*/65536, EvictionPolicyKind::kLru);
  for (uint64_t i = 0; i < 65536; ++i) {
    cache.Insert(PageKey{1, i}, i, false, nullptr);
  }
  std::vector<PageCache::Evicted> scratch;
  uint64_t cursor = 0;
  for (auto _ : state) {
    for (uint64_t i = 0; i < 256; ++i) {
      cache.MarkDirty(PageKey{1, (cursor + i * 17) % 65536});
    }
    cursor += 256 * 17;
    benchmark::DoNotOptimize(cache.TakeDirty(256, &scratch));
  }
}
BENCHMARK(BM_PageCacheTakeDirty);

void BM_FlashTierInsertPromote(benchmark::State& state) {
  // A full default tier (1 GiB of 4 KiB pages). Each iteration makes the two
  // tier operations of a randread_tiers RAM miss that hits flash: the page
  // is promoted out of the tier, and the RAM victim is demoted into it. The
  // promoted page is a random resident one, and the demoted page is new, so
  // the tier stays full.
  FlashTier tier(static_cast<size_t>(FlashTierConfig{}.capacity / (4 * kKiB)));
  std::vector<uint64_t> resident(tier.capacity_pages());
  for (uint64_t i = 0; i < resident.size(); ++i) {
    resident[i] = i;
    tier.Insert(PageKey{1, i});
  }
  Rng rng(1);
  uint64_t next = resident.size();
  for (auto _ : state) {
    uint64_t& page = resident[rng.NextBelow(resident.size())];
    benchmark::DoNotOptimize(tier.LookupAndPromote(PageKey{1, page}));
    page = next++;
    tier.Insert(PageKey{1, page});
  }
}
BENCHMARK(BM_FlashTierInsertPromote);

// Fills /d of an ext2 machine with `names` empty files; false, with the
// benchmark skipped, if that fails.
bool MakeExt2Directory(benchmark::State& state, Vfs& vfs, int64_t names) {
  if (vfs.Mkdir("/d") != FsStatus::kOk) {
    state.SkipWithError("mkdir failed");
    return false;
  }
  for (int64_t i = 0; i < names; ++i) {
    if (vfs.CreateFile("/d/f" + std::to_string(i)) != FsStatus::kOk) {
      state.SkipWithError("create failed");
      return false;
    }
  }
  return true;
}

void BM_Ext2NegativeLookup(benchmark::State& state) {
  // Stat of a missing name: ext2's full linear scan of a warm directory of
  // range(0) names (64 dirents per page: 64 -> 1 page, 2000 -> 32 pages,
  // 20000 -> 313 pages, the size of hostbench's bigdir_churn directories).
  Machine machine(FsKind::kExt2, PaperTestbedConfig());
  Vfs& vfs = machine.vfs();
  if (!MakeExt2Directory(state, vfs, state.range(0))) {
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vfs.Stat("/d/missing").status);
  }
}
BENCHMARK(BM_Ext2NegativeLookup)->Arg(64)->Arg(2000)->Arg(20000);

void BM_Ext2NegativeLookupMemoMiss(benchmark::State& state) {
  // BM_Ext2NegativeLookup, but each iteration first removes the directory's
  // inode-table block from the page cache and inserts it again. Every run
  // of the scan reads that block in its chain, so its leaving the cache
  // empties PageCache::LookupRun's run memo, which then never answers the
  // scan: the memo's miss path, plus the remove and insert.
  Machine machine(FsKind::kExt2, PaperTestbedConfig());
  Vfs& vfs = machine.vfs();
  if (!MakeExt2Directory(state, vfs, state.range(0))) {
    return;
  }
  MetaIo io;
  const FsResult<InodeId> dir = machine.fs().Lookup(kRootInode, "d", &io);
  if (!dir.ok()) {
    state.SkipWithError("lookup failed");
    return;
  }
  const BlockId itable_block = machine.fs().FindInode(dir.value)->itable_block;
  const PageKey itable{kMetaInode, itable_block};
  for (auto _ : state) {
    vfs.cache().Remove(itable);
    vfs.cache().Insert(itable, itable_block, false, nullptr);
    benchmark::DoNotOptimize(vfs.Stat("/d/missing").status);
  }
}
BENCHMARK(BM_Ext2NegativeLookupMemoMiss)->Arg(20000);

void BM_DirectoryInsertRemove(benchmark::State& state) {
  // The directory side of bigdir_churn's create/unlink pair: a directory of
  // range(0) names removes its oldest name and inserts a new one per
  // iteration, reusing the hole the removal left. Names cycle through a
  // prebuilt ring of twice the directory's size, so no string is built in
  // the loop.
  const int64_t size = state.range(0);
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(2 * size));
  for (int64_t i = 0; i < 2 * size; ++i) {
    names.push_back('f' + std::to_string(i));
  }
  Directory dir;
  for (int64_t i = 0; i < size; ++i) {
    dir.Insert(names[i], static_cast<InodeId>(i + 1));
  }
  size_t oldest = 0;
  for (auto _ : state) {
    dir.Remove(names[oldest]);
    const size_t fresh = (oldest + static_cast<size_t>(size)) % names.size();
    dir.Insert(names[fresh], static_cast<InodeId>(fresh + 1));
    oldest = (oldest + 1) % names.size();
  }
  benchmark::DoNotOptimize(dir.entry_count());
}
BENCHMARK(BM_DirectoryInsertRemove)->Arg(64)->Arg(20000);

void BM_InodeTableInsertErase(benchmark::State& state) {
  // The inode side of the same pair: a table of range(0) inodes erases its
  // oldest inode and inserts a new one per iteration, reusing the slab
  // position the erase freed.
  const InodeId size = static_cast<InodeId>(state.range(0));
  InodeTable table;
  for (InodeId ino = 1; ino <= size; ++ino) {
    Inode inode;
    inode.ino = ino;
    table.Insert(std::move(inode));
  }
  InodeId oldest = 1;
  for (auto _ : state) {
    table.Erase(oldest);
    Inode inode;
    inode.ino = oldest + size;
    table.Insert(std::move(inode));
    ++oldest;
  }
  benchmark::DoNotOptimize(table.size());
}
BENCHMARK(BM_InodeTableInsertErase)->Arg(64)->Arg(20000);

void BM_BlockAllocatorCheckInvariants(benchmark::State& state) {
  // The fsck-style bitmap recount that FileSystem::CheckConsistency makes,
  // over the 250 GiB device of PaperTestbedConfig (65,536,000 blocks in
  // 2,000 groups) right after mkfs.
  Machine machine(FsKind::kExt2, PaperTestbedConfig());
  const BlockAllocator& allocator = machine.fs().allocator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.CheckInvariants());
  }
}
BENCHMARK(BM_BlockAllocatorCheckInvariants)->Unit(benchmark::kMillisecond);

void BM_DiskModelRandomAccess(benchmark::State& state) {
  DiskParams params;
  DiskModel disk(params, 1);
  Rng rng(1);
  const uint64_t span = disk.total_sectors() / 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.AccessEx({IoKind::kRead, rng.NextBelow(span) * 8, 8}, 0));
  }
}
BENCHMARK(BM_DiskModelRandomAccess);

// One block-layer service pass per iteration: 64 async 4 KiB writes at
// seeded random LBAs, then Drain (the disk's C-SCAN sort or the SSD's
// per-channel timelines, plus the device model's cost). The LBAs stay
// within the first GiB so the SSD's page map stops growing once warm.
// Divide the time per iteration by 64 for ns per request.
void SchedulerDrain(benchmark::State& state, DeviceModel* device) {
  constexpr uint64_t kSpanPages = 262144;
  IoScheduler scheduler(device);
  Rng rng(1);
  Nanos now = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      scheduler.SubmitAsync({IoKind::kWrite, rng.NextBelow(kSpanPages) * 8, 8}, now);
    }
    now = scheduler.Drain(now);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

void BM_HddSchedulerDrain(benchmark::State& state) {
  DiskModel disk(DiskParams{}, 1);
  SchedulerDrain(state, &disk);
}
BENCHMARK(BM_HddSchedulerDrain);

void BM_SsdSchedulerDrain(benchmark::State& state) {
  SsdModel ssd(SsdParams{});  // 8 channels
  SchedulerDrain(state, &ssd);
}
BENCHMARK(BM_SsdSchedulerDrain);

void BM_ThroughputTimelineRecord(benchmark::State& state) {
  ThroughputTimeline timeline(10 * kSecond);
  Nanos now = 0;
  for (auto _ : state) {
    timeline.RecordOp(now);
    now += 100'000;
  }
  benchmark::DoNotOptimize(timeline.interval_count());
}
BENCHMARK(BM_ThroughputTimelineRecord);

}  // namespace
}  // namespace fsbench

BENCHMARK_MAIN();
