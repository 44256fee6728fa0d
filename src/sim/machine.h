// Machine: assembles the whole simulated stack (clock, disk, scheduler,
// file system, journal, VFS) from one configuration, applying the per-run
// jitter model.
//
// The jitter model is itself part of the reproduction: the paper attributes
// the fragility of benchmark results near the memory/disk boundary to
// run-to-run variation in "the amount of available cache" — a few MB of OS
// activity — plus ordinary CPU and disk speed variation. Each run draws,
// deterministically from its seed:
//   - an OS memory reservation within ± os_reserve_jitter (shifts the
//     page-cache capacity, the paper's transition-fragility mechanism),
//   - a CPU cost multiplier within ± cpu_jitter,
//   - a disk mechanical-speed multiplier within ± disk_speed_jitter.
#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <memory>

#include "src/sim/block_array.h"
#include "src/sim/clock.h"
#include "src/sim/disk_model.h"
#include "src/sim/ssd_model.h"
#include "src/sim/ext2fs.h"
#include "src/sim/ext3fs.h"
#include "src/sim/flash_tier.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/shadow_disk.h"
#include "src/sim/vfs.h"
#include "src/sim/xfsfs.h"

namespace fsbench {

struct MachineConfig {
  Bytes ram = 512 * kMiB;
  Bytes os_reserved = 102 * kMiB;     // kernel + daemons -> ~410 MiB page cache
  Bytes os_reserve_jitter = 4 * kMiB; // per-run uniform +-
  double cpu_jitter = 0.015;          // per-run uniform +- fraction
  double disk_speed_jitter = 0.05;    // per-run uniform +- fraction
  DiskParams disk;
  // Default device kind for the whole fleet (per-device overrides live in
  // ArrayConfig::device_kinds). kSsd builds SsdModel devices from `ssd`
  // (capacity machine-managed: overridden with disk.capacity so the file
  // system layout and the device always agree); kHdd keeps the historical
  // DiskModel. The kind also picks the order each device's IoScheduler
  // serves its background queue in: the elevator for a disk, submission
  // order for flash.
  DeviceKind device = DeviceKind::kHdd;
  SsdParams ssd;
  FsLayoutParams layout;
  // Journal policy knobs. `block_sectors` is machine-managed: the machine
  // overrides it with the file system's sectors_per_block() at assembly so
  // the log's LBAs and the ShadowDisk durability map always agree (it is
  // honoured only when constructing a JbdJournal/CilJournal directly).
  JournalConfig journal;              // ext3 (JBD: 5 s kjournald commits)
  uint64_t journal_blocks = 8192;     // 32 MiB journal region
  // XFS delayed logging: same-size log, lazier push cadence (the xfs log
  // timer), deltas batched in the in-memory CIL until then.
  JournalConfig xfs_journal{JournalMode::kOrdered, 30 * kSecond};
  uint64_t xfs_log_blocks = 8192;
  EvictionPolicyKind eviction = EvictionPolicyKind::kLru;
  Nanos syscall_overhead = 3500;
  Nanos page_copy_cost = 500;
  Nanos meta_touch_cost = 250;
  std::optional<ReadaheadConfig> readahead_override;
  // Optional second-level cache (flash) tier - see src/sim/flash_tier.h.
  std::optional<FlashTierConfig> flash;
  // Device-fault axis: a seeded fault plan (off by default — all rates 0)
  // and the block layer's retry/remap policy (default: one attempt, no
  // remap, i.e. the historical surface-every-fault behavior).
  FaultPlanConfig faults;
  RetryPolicy retry;
  // Block-redundancy layer (src/sim/block_array.h). kSingle keeps today's
  // single-device stack byte-identically; any other geometry interposes a
  // BlockArray over `array.devices` disk+scheduler pairs (plus hot spares
  // and, optionally, a dedicated journal device).
  ArrayConfig array;
  uint64_t seed = 42;
};

// Configuration approximating the paper's testbed: 512 MB RAM,
// Maxtor 7L250S0-like disk (see DiskParams defaults), Linux-like costs.
MachineConfig PaperTestbedConfig();

class Machine {
 public:
  Machine(FsKind fs_kind, const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  VirtualClock& clock() { return clock_; }

  // Binds `cursor` as the acting simulated thread's clock across the whole
  // stack: VFS charges, file-system timestamps and journal commit timing all
  // read and advance it. The multi-thread engine calls this around every
  // step; passing &clock() restores the single-threaded default (the base
  // clock doubles as thread 0's cursor).
  void BindCursor(VirtualClock* cursor);

  // Crash tracking: attaches a ShadowDisk as the scheduler's completion
  // observer and makes the transaction log retain its full commit history,
  // so a crash can later be resolved (src/sim/recovery.h). Must be enabled
  // before the run whose crash is simulated; idempotent.
  void EnableCrashTracking();
  ShadowDisk* shadow() { return shadow_.get(); }  // null unless enabled

  // Operation-boundary notification from the engine (crash mode): workload
  // operations with index <= `op` have fully logged their updates.
  void NotifyOpBoundary(uint64_t op) {
    if (Journal* journal = fs_->journal(); journal != nullptr) {
      journal->SetOpWatermark(op);
    }
  }

  // Device 0 (the only device of the classic single-disk stack).
  DeviceModel& disk() { return *disks_[0]; }
  IoScheduler& scheduler() { return *schedulers_[0]; }
  // Per-device access: data devices first, then hot spares, then the
  // dedicated journal device (when configured).
  size_t device_count() const { return disks_.size(); }
  DeviceModel& disk(size_t d) { return *disks_[d]; }
  IoScheduler& scheduler(size_t d) { return *schedulers_[d]; }
  DeviceKind device_kind(size_t d) const { return disks_[d]->kind(); }

  // A standalone device with device 0's kind and per-run jittered
  // parameters, for offline phases (mount-time recovery) that bill I/O
  // against an otherwise idle drive.
  std::unique_ptr<DeviceModel> MakeRecoveryDevice(uint64_t seed) const;
  // The redundancy layer; null when config.array is kSingle.
  BlockArray* array() { return array_.get(); }
  // The block endpoint the VFS issues against (array or device 0).
  BlockIo& io() { return array_ != nullptr ? static_cast<BlockIo&>(*array_) : *schedulers_[0]; }

  FlashTier* flash() { return flash_.get(); }  // null when not configured
  FileSystem& fs() { return *fs_; }
  Vfs& vfs() { return *vfs_; }
  const MachineConfig& config() const { return config_; }
  FsKind fs_kind() const { return fs_kind_; }

  // Arms every device's deferred fault clock at `origin` (see
  // FaultPlanConfig::deferred_clock); no-op on absolute-clock plans.
  // Experiments call this after Prepare so kill/onset/burst knobs count
  // from the measured window's start.
  void StartFaultClock(Nanos origin) {
    for (const auto& disk : disks_) {
      disk->StartFaultClock(origin);
    }
  }

  // Whole-machine device-timeline views (the MT engine's stable-point check
  // and crash recovery must see every device, not just device 0).
  Nanos MaxBusyUntil() const;
  size_t TotalPendingAsync() const;
  Nanos DrainAll(Nanos now);

  // Summed per-device counters (max for max_queue_depth) for reporting.
  DiskStats AggregateDiskStats() const;
  IoSchedulerStats AggregateSchedulerStats() const;

  // Effective page-cache capacity after the per-run OS reservation draw.
  size_t cache_capacity_pages() const { return cache_capacity_pages_; }

 private:
  MachineConfig config_;
  FsKind fs_kind_;
  VirtualClock clock_;
  // Per-run jittered device parameters (MakeRecoveryDevice rebuilds a
  // matching device from these).
  DiskParams jittered_disk_params_;
  SsdParams jittered_ssd_params_;
  std::vector<std::unique_ptr<DeviceModel>> disks_;
  std::vector<std::unique_ptr<IoScheduler>> schedulers_;
  std::unique_ptr<BlockArray> array_;
  size_t journal_device_ = SIZE_MAX;  // index into disks_/schedulers_, or SIZE_MAX
  std::unique_ptr<FileSystem> fs_;
  std::unique_ptr<FlashTier> flash_;
  std::unique_ptr<Vfs> vfs_;
  std::unique_ptr<ShadowDisk> shadow_;
  size_t cache_capacity_pages_ = 0;
};

}  // namespace fsbench

#endif  // SRC_SIM_MACHINE_H_
