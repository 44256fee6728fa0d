#include "src/sim/machine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/rng.h"

namespace fsbench {
namespace {

TEST(MachineTest, PaperTestbedConfigSanity) {
  const MachineConfig config = PaperTestbedConfig();
  EXPECT_EQ(config.ram, 512 * kMiB);
  EXPECT_LT(config.os_reserved, config.ram);
  EXPECT_EQ(config.disk.rpm, 7200u);
  EXPECT_EQ(config.disk.capacity, 250 * kGiB);
}

TEST(MachineTest, CacheCapacityReflectsRamMinusReserve) {
  MachineConfig config = PaperTestbedConfig();
  config.os_reserve_jitter = 0;
  Machine machine(FsKind::kExt2, config);
  const size_t expected = (config.ram - config.os_reserved) / (4 * kKiB);
  EXPECT_EQ(machine.cache_capacity_pages(), expected);
  EXPECT_EQ(machine.vfs().cache().capacity(), expected);
}

TEST(MachineTest, OsReserveJitterVariesCapacityAcrossSeeds) {
  MachineConfig config = PaperTestbedConfig();
  size_t min_cap = SIZE_MAX;
  size_t max_cap = 0;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    config.seed = seed;
    Machine machine(FsKind::kExt2, config);
    min_cap = std::min(min_cap, machine.cache_capacity_pages());
    max_cap = std::max(max_cap, machine.cache_capacity_pages());
  }
  EXPECT_GT(max_cap, min_cap);
  // Spread bounded by 2x the jitter amplitude.
  EXPECT_LE(max_cap - min_cap, 2 * config.os_reserve_jitter / (4 * kKiB) + 1);
}

TEST(MachineTest, SameSeedSameBehaviour) {
  MachineConfig config = PaperTestbedConfig();
  config.seed = 9;
  Machine a(FsKind::kExt2, config);
  Machine b(FsKind::kExt2, config);
  ASSERT_EQ(a.vfs().MakeFile("/f", 1 * kMiB), FsStatus::kOk);
  ASSERT_EQ(b.vfs().MakeFile("/f", 1 * kMiB), FsStatus::kOk);
  const auto fda = a.vfs().Open("/f");
  const auto fdb = b.vfs().Open("/f");
  ASSERT_TRUE(fda.ok());
  ASSERT_TRUE(fdb.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(a.vfs().Read(fda.value, (i % 256) * 4096, 4096).ok());
    ASSERT_TRUE(b.vfs().Read(fdb.value, (i % 256) * 4096, 4096).ok());
    ASSERT_EQ(a.clock().now(), b.clock().now()) << "iteration " << i;
  }
}

TEST(MachineTest, DifferentSeedsDiverge) {
  MachineConfig config = PaperTestbedConfig();
  config.seed = 1;
  Machine a(FsKind::kExt2, config);
  config.seed = 2;
  Machine b(FsKind::kExt2, config);
  ASSERT_EQ(a.vfs().MakeFile("/f", 1 * kMiB), FsStatus::kOk);
  ASSERT_EQ(b.vfs().MakeFile("/f", 1 * kMiB), FsStatus::kOk);
  const auto fda = a.vfs().Open("/f");
  const auto fdb = b.vfs().Open("/f");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.vfs().Read(fda.value, (i % 256) * 4096, 4096).ok());
    ASSERT_TRUE(b.vfs().Read(fdb.value, (i % 256) * 4096, 4096).ok());
  }
  EXPECT_NE(a.clock().now(), b.clock().now());
}

TEST(MachineTest, BuildsEveryFileSystemKind) {
  const MachineConfig config = PaperTestbedConfig();
  Machine ext2(FsKind::kExt2, config);
  EXPECT_STREQ(ext2.fs().name(), "ext2");
  EXPECT_EQ(ext2.fs().journal(), nullptr);
  Machine ext3(FsKind::kExt3, config);
  EXPECT_STREQ(ext3.fs().name(), "ext3");
  EXPECT_NE(ext3.fs().journal(), nullptr);
  Machine xfs(FsKind::kXfs, config);
  EXPECT_STREQ(xfs.fs().name(), "xfs");
  // XFS journals through the delayed-logging adapter (CIL over the
  // transaction log) since the txn-log refactor.
  ASSERT_NE(xfs.fs().journal(), nullptr);
  EXPECT_NE(xfs.fs().journal()->txn_log(), nullptr);
}

// Keeps every request that lands in a log region.
struct LogRequests : IoCompletionObserver {
  uint64_t first_sector = 0;
  uint64_t end_sector = 0;
  std::vector<IoRequest> requests;
  void OnIoComplete(const IoRequest& req, Nanos completion, bool ok) override {
    (void)completion;
    (void)ok;
    if (req.lba >= first_sector && req.lba < end_sector) {
      requests.push_back(req);
    }
  }
};

// The two journal settings drive both clients: the mode decides whether a
// data page is logged, the log is journal_blocks file-system blocks long and
// written in that block size, and only the commit timer differs.
TEST(MachineTest, JournalSettingsDriveBothClients) {
  for (const FsKind kind : {FsKind::kExt3, FsKind::kXfs}) {
    for (const JournalMode mode : {JournalMode::kOrdered, JournalMode::kJournaled}) {
      SCOPED_TRACE(std::string(FsKindName(kind)) +
                   (mode == JournalMode::kJournaled ? " journaled" : " ordered"));
      MachineConfig config;
      config.layout.block_size = 8 * kKiB;  // 16-sector log blocks
      config.journal_mode = mode;
      config.journal_blocks = 512;
      Machine machine(kind, config);
      FileSystem& fs = machine.fs();
      Journal* journal = fs.journal();
      ASSERT_NE(journal, nullptr);
      ASSERT_EQ(fs.journal_region().count, 512u);
      LogRequests log;
      log.first_sector = fs.journal_region().start * fs.sectors_per_block();
      log.end_sector = log.first_sector + 512 * fs.sectors_per_block();
      machine.scheduler().set_completion_observer(&log);

      Vfs& vfs = machine.vfs();
      const FsResult<int> fd = vfs.Open("/f", /*create=*/true);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(vfs.Write(fd.value, 0, fs.block_size()).ok());
      ASSERT_EQ(vfs.Fsync(fd.value), FsStatus::kOk);
      const FsResult<FileAttr> attr = vfs.Stat("/f");
      ASSERT_TRUE(attr.ok());
      bool data_logged = false;
      for (const TxnLog::TxnRecord& record : journal->txn_log()->records()) {
        for (const MetaRef& ref : record.home) {
          data_logged = data_logged || (ref.ino == attr.value.ino && ref.index == 0);
        }
      }
      EXPECT_EQ(data_logged, mode == JournalMode::kJournaled);
      machine.scheduler().Drain(machine.clock().now());
      ASSERT_FALSE(log.requests.empty());
      for (const IoRequest& req : log.requests) {
        EXPECT_EQ(req.sector_count, fs.sectors_per_block());
      }

      // The next transaction: ext3 commits it after 5 s, xfs after 30 s.
      ASSERT_EQ(vfs.CreateFile("/g"), FsStatus::kOk);
      const uint64_t commits = journal->stats().commits;
      const Nanos start = machine.clock().now();
      machine.clock().AdvanceTo(start + 5 * kSecond);
      journal->MaybePeriodicCommit();
      EXPECT_EQ(journal->stats().commits, commits + (kind == FsKind::kExt3 ? 1 : 0));
      machine.clock().AdvanceTo(start + 30 * kSecond);
      journal->MaybePeriodicCommit();
      EXPECT_EQ(journal->stats().commits, commits + 1);
    }
  }
}

TEST(MachineTest, EvictionPolicyIsConfigurable) {
  MachineConfig config = PaperTestbedConfig();
  config.eviction = EvictionPolicyKind::kArc;
  Machine machine(FsKind::kExt2, config);
  EXPECT_STREQ(machine.vfs().cache().policy_name(), "arc");
}

TEST(MachineTest, CpuJitterScalesCosts) {
  MachineConfig config = PaperTestbedConfig();
  config.cpu_jitter = 0.0;
  config.seed = 1;
  Machine stable(FsKind::kExt2, config);
  EXPECT_DOUBLE_EQ(stable.vfs().config().cpu_cost_multiplier, 1.0);
  config.cpu_jitter = 0.05;
  Machine jittered(FsKind::kExt2, config);
  EXPECT_NE(jittered.vfs().config().cpu_cost_multiplier, 1.0);
  EXPECT_NEAR(jittered.vfs().config().cpu_cost_multiplier, 1.0, 0.05);
}

// Machine::AggregateDiskStats and AggregateSchedulerStats sum the device
// counters field by field. On a one-device machine each aggregate must equal
// that device's own stats, so a field the sum leaves out differs here. The
// run is sized so that no counter stays zero on both kinds: random 64 KiB
// rewrites of a 64 MiB file on a 256 MiB device make the SSD garbage-collect
// partly valid blocks, sync reads of a second file queue behind writeback,
// and transient and persistent faults under a two-attempt remapping policy
// produce retries, remaps and failed requests. Faults start once both files
// are open; ext2 keeps going after a failed request, so the loop ignores op
// results.
void CheckAggregatesMatchTheOnlyDevice(DeviceKind device) {
  MachineConfig config = PaperTestbedConfig();
  config.device = device;
  config.disk.capacity = 256 * kMiB;
  config.seed = 5;
  config.retry = RetryPolicy{2, FromMillis(0.2), 2.0, /*remap=*/true};
  Machine machine(FsKind::kExt2, config);
  ASSERT_EQ(machine.device_count(), 1u);

  Vfs& vfs = machine.vfs();
  ASSERT_EQ(vfs.MakeFile("/w", 64 * kMiB), FsStatus::kOk);
  ASSERT_EQ(vfs.MakeFile("/r", 64 * kMiB), FsStatus::kOk);
  const FsResult<int> write_fd = vfs.Open("/w");
  const FsResult<int> read_fd = vfs.Open("/r");
  ASSERT_TRUE(write_fd.ok());
  ASSERT_TRUE(read_fd.ok());
  FaultPlanConfig faults;
  faults.transient_rate = 0.1;
  faults.persistent_rate = 0.05;
  machine.disk().EnableFaults(faults, /*seed=*/5);

  Rng rng(5);
  for (int i = 0; i < 6 * 1024; ++i) {
    (void)vfs.Write(write_fd.value, static_cast<Bytes>(rng.NextBelow(1024)) * 64 * kKiB,
                    64 * kKiB);
    if (i % 16 == 0) {
      (void)vfs.Read(read_fd.value, static_cast<Bytes>(rng.NextBelow(16384)) * 4 * kKiB, 4 * kKiB);
    }
    if (i % 256 == 255) {
      (void)vfs.Fsync(write_fd.value);
    }
  }

  const DiskStats& disk = machine.disk().stats();
  const IoSchedulerStats& scheduler = machine.scheduler().stats();
  EXPECT_GT(disk.reads, 0u);
  EXPECT_GT(disk.writes, 0u);
  EXPECT_GT(scheduler.async_requests, 0u);
  EXPECT_EQ(machine.AggregateDiskStats(), disk);
  EXPECT_EQ(machine.AggregateSchedulerStats(), scheduler);
}

TEST(MachineTest, HddAggregatesEqualTheDeviceCounters) {
  CheckAggregatesMatchTheOnlyDevice(DeviceKind::kHdd);
}

TEST(MachineTest, SsdAggregatesEqualTheDeviceCounters) {
  CheckAggregatesMatchTheOnlyDevice(DeviceKind::kSsd);
}

}  // namespace
}  // namespace fsbench
