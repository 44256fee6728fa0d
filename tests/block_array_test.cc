// The block-redundancy layer's contracts: geometry mapping, deterministic
// replica selection, degraded serving (mirror rescues, lost stripes),
// replica write-failure absorption, whole-device death with hot-spare
// rebuild, background scrub detection/repair, and — the load-bearing one —
// that a pass-through array is byte-identical to the classic single-device
// stack.
#include "src/sim/block_array.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/sim/machine.h"

namespace fsbench {
namespace {

constexpr uint64_t kRegion = 2048;  // DiskModel's default remap granularity

// A bare array over freshly built disk+scheduler pairs (no Machine, no VFS):
// the unit fixture. Device d gets seed 100 + d so replicas are distinct
// devices, as in the real fleet.
struct BareArray {
  std::vector<std::unique_ptr<DiskModel>> disks;
  std::vector<std::unique_ptr<IoScheduler>> schedulers;
  std::unique_ptr<BlockArray> array;

  BareArray(ArrayGeometry geometry, size_t devices, size_t spares,
            const ArrayConfig& base = ArrayConfig{}) {
    ArrayConfig config = base;
    config.geometry = geometry;
    config.devices = static_cast<uint32_t>(devices);
    config.hot_spares = static_cast<uint32_t>(spares);
    std::vector<IoScheduler*> data;
    std::vector<IoScheduler*> spare_ptrs;
    for (size_t d = 0; d < devices + spares; ++d) {
      disks.push_back(std::make_unique<DiskModel>(DiskParams{}, /*seed=*/100 + d));
      schedulers.push_back(std::make_unique<IoScheduler>(disks.back().get()));
      (d < devices ? data : spare_ptrs).push_back(schedulers.back().get());
    }
    array = std::make_unique<BlockArray>(config, data, spare_ptrs);
    for (auto& scheduler : schedulers) {
      scheduler->set_write_error_sink(array.get());
    }
  }

  // Whole-device death at `kill_time` for device `d` (all fault rates zero,
  // so nothing else changes).
  void KillAt(size_t d, Nanos kill_time) {
    FaultPlanConfig plan;
    plan.device_kill_time = kill_time;
    disks[d]->EnableFaults(plan, /*seed=*/7 + d);
  }
};

struct RecordingSink : public IoWriteErrorSink {
  uint64_t calls = 0;
  void OnWriteError(const IoRequest&, Nanos) override { ++calls; }
};

IoRequest Read(uint64_t lba, uint32_t count) { return IoRequest{IoKind::kRead, lba, count, false}; }
IoRequest Write(uint64_t lba, uint32_t count) {
  return IoRequest{IoKind::kWrite, lba, count, false};
}

// --- Geometry mapping ---

TEST(BlockArrayTest, StripeSplitsChunksRoundRobinAcrossDevices) {
  BareArray a(ArrayGeometry::kStripe, 2, 0);
  ASSERT_EQ(a.array->width(), 2u);
  ASSERT_EQ(a.array->replicas(), 1u);
  // Four 256-sector chunks: 0 and 2 land on device 0 (physical 0 and 256),
  // 1 and 3 on device 1 — issued in logical order, so each device sees its
  // two chunks as separate requests.
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 1024), 0).has_value());
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(a.disks[d]->stats().writes, 2u) << "device " << d;
    EXPECT_EQ(a.disks[d]->stats().sectors_written, 512u) << "device " << d;
  }
  EXPECT_EQ(a.array->summary().writes, 1u);
}

TEST(BlockArrayTest, StripeMisalignedRequestSplitsAtChunkBoundary) {
  BareArray a(ArrayGeometry::kStripe, 2, 0);
  // [192, 320): tail of chunk 0 (device 0) + head of chunk 1 (device 1).
  ASSERT_TRUE(a.array->SubmitSync(Write(192, 128), 0).has_value());
  EXPECT_EQ(a.disks[0]->stats().sectors_written, 64u);
  EXPECT_EQ(a.disks[1]->stats().sectors_written, 64u);
}

TEST(BlockArrayTest, StripeMirrorCombinesBothAxes) {
  BareArray a(ArrayGeometry::kStripeMirror, 4, 0);
  ASSERT_EQ(a.array->width(), 2u);
  ASSERT_EQ(a.array->replicas(), 2u);
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 512), 0).has_value());
  // Chunk 0 -> set 0 (devices 0,1), chunk 1 -> set 1 (devices 2,3); every
  // replica of a touched set gets its copy.
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(a.disks[d]->stats().sectors_written, 256u) << "device " << d;
  }
}

// --- Mirror semantics ---

TEST(BlockArrayTest, MirrorFansOutWritesAndReadsExactlyOneReplica) {
  BareArray a(ArrayGeometry::kMirror, 2, 0);
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 8), 0).has_value());
  EXPECT_EQ(a.disks[0]->stats().sectors_written, 8u);
  EXPECT_EQ(a.disks[1]->stats().sectors_written, 8u);

  const Nanos now = a.schedulers[0]->busy_until();
  ASSERT_TRUE(a.array->SubmitSync(Read(0, 8), now).has_value());
  EXPECT_EQ(a.disks[0]->stats().reads + a.disks[1]->stats().reads, 1u);
}

TEST(BlockArrayTest, MirrorReadPicksTheReplicaThatFreesUpFirst) {
  BareArray a(ArrayGeometry::kMirror, 2, 0);
  // Occupy device 0 directly; the array must route the read to device 1.
  ASSERT_TRUE(a.schedulers[0]->SubmitSync(Read(4096, 1024), 0).has_value());
  ASSERT_GT(a.schedulers[0]->busy_until(), 0);
  ASSERT_TRUE(a.array->SubmitSync(Read(0, 8), 0).has_value());
  EXPECT_EQ(a.disks[1]->stats().reads, 1u);
}

TEST(BlockArrayTest, MirrorRescuesReadFromSurvivingReplica) {
  BareArray a(ArrayGeometry::kMirror, 2, 0);
  a.disks[0]->InjectError(0, 8);
  // Tie on busy_until picks device 0, which fails; the rescue walk serves
  // the read from device 1 and the caller never sees the fault.
  const std::optional<Nanos> done = a.array->SubmitSync(Read(0, 8), 0);
  ASSERT_TRUE(done.has_value());
  const ArraySummary& s = a.array->summary();
  EXPECT_EQ(s.degraded_reads, 1u);
  EXPECT_EQ(s.mirror_rescues, 1u);
  EXPECT_EQ(s.lost_stripes, 0u);
  EXPECT_FALSE(s.data_loss);
  EXPECT_EQ(a.disks[1]->stats().reads, 1u);
}

TEST(BlockArrayTest, LostStripeWhenEveryReplicaFails) {
  BareArray a(ArrayGeometry::kMirror, 2, 0);
  a.disks[0]->InjectError(0, 8);
  a.disks[1]->InjectError(0, 8);
  EXPECT_FALSE(a.array->SubmitSync(Read(0, 8), 0).has_value());
  const ArraySummary& s = a.array->summary();
  EXPECT_EQ(s.degraded_reads, 1u);
  EXPECT_EQ(s.mirror_rescues, 0u);
  EXPECT_EQ(s.lost_stripes, 1u);
}

TEST(BlockArrayTest, ReplicaWriteFailureAbsorbedWhileRedundancyHolds) {
  BareArray a(ArrayGeometry::kMirror, 2, 0);
  RecordingSink downstream;
  a.array->set_downstream_sink(&downstream);
  a.disks[0]->InjectError(0, 8);
  // Device 0's copy fails; device 1's lands. The set still holds the data,
  // so the failure is the array's business, not the file system's.
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 8), 0).has_value());
  EXPECT_EQ(a.array->summary().replica_write_errors, 1u);
  EXPECT_EQ(downstream.calls, 0u);
}

TEST(BlockArrayTest, SetWideWriteFailureForwardsDownstream) {
  BareArray a(ArrayGeometry::kMirror, 2, 0);
  RecordingSink downstream;
  a.array->set_downstream_sink(&downstream);
  a.disks[0]->InjectError(0, 8);
  a.disks[1]->InjectError(0, 8);
  EXPECT_FALSE(a.array->SubmitSync(Write(0, 8), 0).has_value());
  EXPECT_EQ(downstream.calls, 1u);
  EXPECT_EQ(a.array->summary().replica_write_errors, 2u);
}

// --- Whole-device death and rebuild ---

TEST(BlockArrayTest, DeviceDeathDegradesThenRebuildsOntoHotSpare) {
  BareArray a(ArrayGeometry::kMirror, 2, 1);
  a.KillAt(0, 1 * kMillisecond);
  // Two remap-regions of data before the death.
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 2 * kRegion), 0).has_value());

  // First touch after the kill: the death is latched *before* replica
  // selection, so the read routes straight to the survivor (no degraded
  // attempt on the corpse) and a rebuild onto the spare begins.
  const std::optional<Nanos> done = a.array->SubmitSync(Read(0, 8), 2 * kMillisecond);
  ASSERT_TRUE(done.has_value());
  const ArraySummary& s = a.array->summary();
  EXPECT_EQ(s.device_failures, 1u);
  EXPECT_EQ(s.degraded_reads, 0u);
  EXPECT_EQ(s.rebuilds_started, 1u);
  EXPECT_EQ(a.array->LiveReplicas(0), 1u);
  EXPECT_TRUE(a.array->RebuildActive());

  // Let virtual time pass: the throttled copy loop resilvers the written
  // extent (2 regions) from the survivor onto the spare.
  a.array->Drain(1 * kSecond);
  EXPECT_FALSE(a.array->RebuildActive());
  EXPECT_EQ(a.array->summary().rebuilds_completed, 1u);
  EXPECT_EQ(a.array->summary().rebuild_regions_copied, 2u);
  EXPECT_EQ(a.array->LiveReplicas(0), 2u);
  EXPECT_FALSE(a.array->summary().data_loss);
  // The spare really holds the image: the survivor fed it 2 regions (its
  // other read is the 8-sector foreground access above).
  EXPECT_EQ(a.disks[2]->stats().sectors_written, 2 * kRegion);
  EXPECT_EQ(a.disks[1]->stats().sectors_read, 2 * kRegion + 8);

  // The rebuilt set serves reads again, from either current member.
  EXPECT_TRUE(a.array->SubmitSync(Read(0, 8), 2 * kSecond).has_value());
}

TEST(BlockArrayTest, WritesDuringRebuildKeepTheSpareCurrent) {
  ArrayConfig base;
  base.rebuild_interval = 10 * kMillisecond;  // slow, so the window is open
  BareArray a(ArrayGeometry::kMirror, 2, 1, base);
  a.KillAt(0, 1 * kMillisecond);
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 4 * kRegion), 0).has_value());

  // Trigger the death + rebuild start, then write while it is in flight.
  ASSERT_TRUE(a.array->SubmitSync(Read(0, 8), 2 * kMillisecond).has_value());
  ASSERT_TRUE(a.array->RebuildActive());
  const uint64_t spare_before = a.disks[2]->stats().sectors_written;
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 8), 3 * kMillisecond).has_value());
  // The foreground write fanned out to the resilvering spare too.
  EXPECT_EQ(a.disks[2]->stats().sectors_written, spare_before + 8);
}

TEST(BlockArrayTest, SecondDeathWithoutSpareIsReportedDataLossNotACrash) {
  BareArray a(ArrayGeometry::kMirror, 2, 0);
  a.KillAt(0, 1 * kMillisecond);
  a.KillAt(1, 2 * kMillisecond);
  ASSERT_TRUE(a.array->SubmitSync(Write(0, kRegion), 0).has_value());

  EXPECT_FALSE(a.array->SubmitSync(Read(0, 8), 3 * kMillisecond).has_value());
  const ArraySummary& s = a.array->summary();
  EXPECT_EQ(s.device_failures, 2u);
  EXPECT_TRUE(s.data_loss);
  EXPECT_EQ(s.lost_stripes, 1u);
  EXPECT_EQ(a.array->LiveReplicas(0), 0u);

  // Writes to the dead set fail downstream-visibly but still do not crash.
  RecordingSink downstream;
  a.array->set_downstream_sink(&downstream);
  EXPECT_FALSE(a.array->SubmitSync(Write(0, 8), 4 * kMillisecond).has_value());
  EXPECT_EQ(downstream.calls, 1u);
}

// --- Background scrub ---

TEST(BlockArrayTest, ScrubDetectsLatentRegionBeforeForegroundAndRepairsIt) {
  ArrayConfig base;
  base.scrub = true;
  base.scrub_interval = 1 * kMillisecond;
  BareArray a(ArrayGeometry::kMirror, 2, 0, base);
  // Write two regions while the media is clean, then region 0 of device 0
  // silently rots — the latent-sector-error scenario.
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 2 * kRegion), 0).has_value());
  a.disks[0]->InjectError(100, 8);

  // Foreground traffic elsewhere gives the scrubber virtual time to walk.
  ASSERT_TRUE(a.array->SubmitSync(Read(kRegion, 8), 10 * kMillisecond).has_value());
  const ArraySummary& s = a.array->summary();
  EXPECT_GE(s.scrub_regions_scanned, 1u);
  EXPECT_EQ(s.scrub_detections, 1u);
  EXPECT_EQ(s.scrub_preempted, 1u);  // no client ever hit the region
  EXPECT_EQ(s.scrub_repairs, 1u);
  EXPECT_EQ(s.scrub_unrepairable, 0u);
  EXPECT_EQ(a.disks[0]->remapped_regions(), 1u);

  // The repaired region serves reads cleanly from device 0 again.
  const uint64_t degraded_before = s.degraded_reads;
  ASSERT_TRUE(a.array->SubmitSync(Read(100, 8), 20 * kMillisecond).has_value());
  EXPECT_EQ(a.array->summary().degraded_reads, degraded_before);
}

TEST(BlockArrayTest, ForegroundHitBeforeScrubIsNotCountedPreempted) {
  ArrayConfig base;
  base.scrub = true;
  base.scrub_interval = 50 * kMillisecond;  // late enough to lose the race
  BareArray a(ArrayGeometry::kMirror, 2, 0, base);
  ASSERT_TRUE(a.array->SubmitSync(Write(0, kRegion), 0).has_value());
  a.disks[0]->InjectError(100, 8);

  // A client stumbles on the region first: keep device 1 busier so replica
  // selection sends the read to device 0 (rescued from the mirror)...
  ASSERT_TRUE(a.schedulers[1]->SubmitSync(Read(8 * kRegion, 512), 30 * kMillisecond).has_value());
  ASSERT_TRUE(a.array->SubmitSync(Read(100, 8), 30 * kMillisecond).has_value());
  ASSERT_EQ(a.array->summary().degraded_reads, 1u);
  // ...so the scrub's later detection is not a preemption.
  ASSERT_TRUE(a.array->SubmitSync(Read(8, 8), 200 * kMillisecond).has_value());
  const ArraySummary& s = a.array->summary();
  EXPECT_GE(s.scrub_detections, 1u);
  EXPECT_EQ(s.scrub_preempted, 0u);
}

TEST(BlockArrayTest, ScrubOnAStripeIsDetectionOnly) {
  ArrayConfig base;
  base.scrub = true;
  base.scrub_interval = 1 * kMillisecond;
  BareArray a(ArrayGeometry::kStripe, 2, 0, base);
  ASSERT_TRUE(a.array->SubmitSync(Write(0, 2 * kRegion), 0).has_value());
  a.disks[0]->InjectError(100, 8);

  ASSERT_TRUE(a.array->SubmitSync(Read(256, 8), 10 * kMillisecond).has_value());
  const ArraySummary& s = a.array->summary();
  // No mirror source: the rot is found but cannot be repaired.
  EXPECT_GE(s.scrub_detections, 1u);
  EXPECT_EQ(s.scrub_repairs, 0u);
  EXPECT_GE(s.scrub_unrepairable, 1u);
  EXPECT_EQ(a.disks[0]->remapped_regions(), 0u);
}

// --- Determinism ---

TEST(BlockArrayTest, IdenticalSequencesProduceIdenticalSummaries) {
  auto run = []() {
    ArrayConfig base;
    base.scrub = true;
    base.scrub_interval = 1 * kMillisecond;
    BareArray a(ArrayGeometry::kMirror, 2, 1, base);
    a.KillAt(0, 5 * kMillisecond);
    a.disks[1]->InjectError(3 * kRegion + 10, 8);
    a.array->SubmitSync(Write(0, 4 * kRegion), 0);
    for (int i = 0; i < 50; ++i) {
      a.array->SubmitSync(Read((i % 8) * 512, 8), (1 + i) * kMillisecond);
    }
    a.array->Drain(200 * kMillisecond);
    return std::make_pair(a.array->summary(), a.schedulers[1]->busy_until());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

// --- Machine integration ---

TEST(BlockArrayMachineTest, MachineAssemblesTheDeviceFleet) {
  MachineConfig config = PaperTestbedConfig();
  config.array.geometry = ArrayGeometry::kMirror;
  config.array.devices = 2;
  config.array.hot_spares = 1;
  config.array.journal_device = true;
  Machine machine(FsKind::kExt3, config);
  // 2 data + 1 spare + 1 journal device.
  EXPECT_EQ(machine.device_count(), 4u);
  ASSERT_NE(machine.array(), nullptr);
  EXPECT_EQ(machine.array()->summary().devices, 3u);  // journal device is outside
  EXPECT_EQ(machine.array()->replicas(), 2u);
}

// Regression (S1): the configured spare pool is reported even when every
// fault rate is zero and no plan is attached — rate=0 sweep rows used to
// show the 64-region default instead of their configured pool.
TEST(BlockArrayMachineTest, ConfiguredSparePoolReportedWithoutFaultPlan) {
  MachineConfig config = PaperTestbedConfig();
  config.faults.spare_regions = 512;
  config.faults.region_sectors = 256;
  // All rates zero: FaultPlanConfig::enabled() is false, no plan attached.
  Machine machine(FsKind::kExt2, config);
  EXPECT_EQ(machine.disk().fault_plan(), nullptr);
  EXPECT_EQ(machine.disk().spare_regions_left(), 512u);
  EXPECT_EQ(machine.disk().region_sectors(), 256u);
}

// A single-device "mirror" must be byte-identical to no array at all: the
// pass-through differential that pins the redundancy-off contract.
TEST(BlockArrayMachineTest, SingleDeviceArrayIsByteIdenticalToNoArray) {
  MachineConfig plain_config = PaperTestbedConfig();
  plain_config.seed = 17;
  MachineConfig array_config = plain_config;
  array_config.array.geometry = ArrayGeometry::kMirror;
  array_config.array.devices = 1;

  Machine plain(FsKind::kExt3, plain_config);
  Machine mirrored(FsKind::kExt3, array_config);
  ASSERT_NE(mirrored.array(), nullptr);

  auto drive = [](Machine& m) {
    ASSERT_EQ(m.vfs().MakeFile("/f", 4 * kMiB), FsStatus::kOk);
    const auto fd = m.vfs().Open("/f");
    ASSERT_TRUE(fd.ok());
    for (int i = 0; i < 200; ++i) {
      if (i % 3 == 0) {
        ASSERT_TRUE(m.vfs().Write(fd.value, (i % 64) * 4096, 4096).ok());
      } else {
        ASSERT_TRUE(m.vfs().Read(fd.value, ((i * 7) % 1024) * 4096, 4096).ok());
      }
      if (i % 16 == 0) {
        ASSERT_EQ(m.vfs().Fsync(fd.value), FsStatus::kOk);
      }
    }
    m.vfs().SyncAll();
  };
  drive(plain);
  drive(mirrored);

  EXPECT_EQ(plain.clock().now(), mirrored.clock().now());
  EXPECT_EQ(plain.AggregateDiskStats(), mirrored.AggregateDiskStats());
  EXPECT_EQ(plain.AggregateSchedulerStats(), mirrored.AggregateSchedulerStats());
  EXPECT_EQ(plain.vfs().stats(), mirrored.vfs().stats());
  EXPECT_EQ(plain.vfs().cache().stats(), mirrored.vfs().cache().stats());
}

}  // namespace
}  // namespace fsbench
