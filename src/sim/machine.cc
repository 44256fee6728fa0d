#include "src/sim/machine.h"

#include <algorithm>
#include <cassert>

#include "src/util/rng.h"

namespace fsbench {

MachineConfig PaperTestbedConfig() {
  MachineConfig config;
  // Defaults in the struct already describe the paper's testbed; the disk
  // parameters below are "effective" figures (they fold in head settle,
  // command processing and kernel block-layer overhead) calibrated so a
  // short-seek random 4 KiB read costs ~8-10 ms, matching the envelope the
  // paper's Figures 1 and 3 imply (see DESIGN.md §4).
  config.disk.track_to_track_seek = FromMillis(5.0);
  config.disk.average_seek = FromMillis(11.5);
  config.disk.full_stroke_seek = FromMillis(18.0);
  config.disk.command_overhead = FromMillis(0.7);
  config.os_reserved = 96 * kMiB;   // 410 MiB "largest file that fits" (Fig 2)
  config.syscall_overhead = 3800;   // + 0.5 us copy -> ~4.3 us cache hits (Fig 3a bucket 12)
  return config;
}

Machine::Machine(FsKind fs_kind, const MachineConfig& config)
    : config_(config), fs_kind_(fs_kind) {
  // Per-run jitter draws (deterministic in the seed).
  Rng jitter_rng(config_.seed ^ 0xfb5e1b5e9ULL);
  auto uniform_pm = [&jitter_rng](double amplitude) {
    return 1.0 + amplitude * (2.0 * jitter_rng.NextDouble() - 1.0);
  };

  DiskParams disk_params = config_.disk;
  const double disk_scale = uniform_pm(config_.disk_speed_jitter);
  disk_params.track_to_track_seek =
      static_cast<Nanos>(static_cast<double>(disk_params.track_to_track_seek) * disk_scale);
  disk_params.average_seek =
      static_cast<Nanos>(static_cast<double>(disk_params.average_seek) * disk_scale);
  disk_params.full_stroke_seek =
      static_cast<Nanos>(static_cast<double>(disk_params.full_stroke_seek) * disk_scale);
  disk_params.command_overhead =
      static_cast<Nanos>(static_cast<double>(disk_params.command_overhead) * disk_scale);

  // SSD devices share the chassis-wide speed jitter (applied to the flash
  // latencies) and the file system's view of the capacity: the layout is
  // built from config.disk.capacity whatever the device kind, so the device
  // must expose the same LBA space. No RNG draws happen here — the draw
  // order above is part of the (config, seed) contract.
  SsdParams ssd_params = config_.ssd;
  ssd_params.capacity = config_.disk.capacity;
  ssd_params.read_latency =
      static_cast<Nanos>(static_cast<double>(ssd_params.read_latency) * disk_scale);
  ssd_params.program_latency =
      static_cast<Nanos>(static_cast<double>(ssd_params.program_latency) * disk_scale);
  ssd_params.erase_latency =
      static_cast<Nanos>(static_cast<double>(ssd_params.erase_latency) * disk_scale);
  ssd_params.command_overhead =
      static_cast<Nanos>(static_cast<double>(ssd_params.command_overhead) * disk_scale);
  jittered_disk_params_ = disk_params;
  jittered_ssd_params_ = ssd_params;

  const double os_jitter = 2.0 * jitter_rng.NextDouble() - 1.0;
  const Bytes reserve = config_.os_reserved +
                        static_cast<Bytes>(static_cast<double>(config_.os_reserve_jitter) *
                                           (os_jitter + 1.0));
  assert(config_.ram > reserve);
  const Bytes cache_bytes = config_.ram - reserve;

  const double cpu_scale = uniform_pm(config_.cpu_jitter);

  // Device fleet: data devices (1 without an array), then hot spares, then
  // the optional dedicated journal device. Every device draws its rotational
  // and fault streams from its own seed (device 0 keeps the historical
  // derivation bit-for-bit); the per-run jitter scale is machine-wide — the
  // devices share a chassis, not a seed.
  const size_t data_devices = config_.array.enabled() ? config_.array.devices : 1;
  const size_t spare_devices = config_.array.enabled() ? config_.array.hot_spares : 0;
  const size_t total_devices =
      data_devices + spare_devices + (config_.array.journal_device ? 1 : 0);
  for (size_t d = 0; d < total_devices; ++d) {
    const uint64_t stride = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(d);
    const DeviceKind kind = d < config_.array.device_kinds.size()
                                ? config_.array.device_kinds[d]
                                : config_.device;
    std::unique_ptr<DeviceModel> disk;
    if (kind == DeviceKind::kSsd) {
      // The SSD has no stream of its own (service time is a pure function of
      // the request sequence); the rotational seed below is simply unused for
      // it, which keeps HDD devices' derivations stable across mixed fleets.
      disk = std::make_unique<SsdModel>(ssd_params);
    } else {
      disk = std::make_unique<DiskModel>(disk_params, config_.seed ^ 0xd15c0000ULL ^ stride);
    }
    // Spare accounting always reflects the configured pool, even when every
    // fault rate is zero and no plan is attached (FaultSummary consistency).
    disk->ConfigureSpares(config_.faults.region_sectors, config_.faults.spare_regions);
    if (config_.faults.enabled()) {
      // The plan's stream is separate from the disk's rotational stream, so a
      // run with all fault rates zero is byte-identical to one without a plan.
      FaultPlanConfig plan = config_.faults;
      if (d != 0) {
        plan.device_kill_time = 0;  // the kill names data device 0 alone
      }
      disk->EnableFaults(plan, config_.seed ^ 0xfa1c7000ULL ^ stride);
    }
    auto scheduler = std::make_unique<IoScheduler>(disk.get());
    scheduler->set_retry_policy(config_.retry);
    disks_.push_back(std::move(disk));
    schedulers_.push_back(std::move(scheduler));
  }
  if (config_.array.journal_device) {
    journal_device_ = total_devices - 1;
  }
  if (config_.array.enabled()) {
    std::vector<IoScheduler*> data;
    std::vector<IoScheduler*> spares;
    for (size_t d = 0; d < data_devices; ++d) {
      data.push_back(schedulers_[d].get());
    }
    for (size_t d = data_devices; d < data_devices + spare_devices; ++d) {
      spares.push_back(schedulers_[d].get());
    }
    array_ = std::make_unique<BlockArray>(config_.array, std::move(data), std::move(spares));
    // Replica write failures route through the array, which absorbs them
    // while redundancy holds and forwards set-wide losses to the VFS.
    for (size_t d = 0; d < data_devices + spare_devices; ++d) {
      schedulers_[d]->set_write_error_sink(array_.get());
    }
  }

  // The journal writes to its own device when one is configured; otherwise
  // it shares the data endpoint (array or single device).
  BlockIo* const data_io =
      array_ != nullptr ? static_cast<BlockIo*>(array_.get()) : schedulers_[0].get();
  BlockIo* const journal_io =
      journal_device_ != SIZE_MAX ? static_cast<BlockIo*>(schedulers_[journal_device_].get())
                                  : data_io;

  switch (fs_kind) {
    case FsKind::kExt2:
      fs_ = std::make_unique<Ext2Fs>(config_.disk.capacity, config_.layout, &clock_);
      break;
    case FsKind::kExt3:
      fs_ = std::make_unique<Ext3Fs>(config_.disk.capacity, config_.layout, &clock_,
                                     config_.journal_blocks);
      break;
    case FsKind::kXfs:
      fs_ = std::make_unique<XfsFs>(config_.disk.capacity, config_.layout, &clock_,
                                    config_.journal_blocks);
      break;
  }
  if (fs_kind != FsKind::kExt2) {
    // Journal blocks are file-system blocks: the log's LBAs and the
    // ShadowDisk's durability map must agree on the block size.
    const Extent region = fs_->journal_region();
    const uint32_t block_sectors = fs_->sectors_per_block();
    fs_->AttachJournal(
        fs_kind == FsKind::kXfs
            ? std::make_unique<CilJournal>(journal_io, &clock_, region, block_sectors,
                                           config_.journal_mode)
            : std::make_unique<JbdJournal>(journal_io, &clock_, region, block_sectors,
                                           config_.journal_mode));
  }

  VfsConfig vfs_config;
  vfs_config.page_size = config_.layout.block_size;
  cache_capacity_pages_ = static_cast<size_t>(cache_bytes / vfs_config.page_size);
  vfs_config.cache_capacity_pages = cache_capacity_pages_;
  vfs_config.eviction = config_.eviction;
  vfs_config.syscall_overhead = config_.syscall_overhead;
  vfs_config.page_copy_cost = config_.page_copy_cost;
  vfs_config.meta_touch_cost = config_.meta_touch_cost;
  vfs_config.cpu_cost_multiplier = cpu_scale;
  vfs_config.readahead_override = config_.readahead_override;
  if (config_.flash.has_value()) {
    flash_ = std::make_unique<FlashTier>(
        static_cast<size_t>(config_.flash->capacity / vfs_config.page_size));
  }
  vfs_ = std::make_unique<Vfs>(&clock_, data_io, fs_.get(), vfs_config, flash_.get());
  // The journal checkpoints by asking the VFS to write dirty pages home.
  if (Journal* journal = fs_->journal(); journal != nullptr) {
    journal->set_checkpoint_sink(vfs_.get());
  }
  // Permanent write failures propagate VFS-ward so the file system can
  // react (journal abort + remount-read-only on metadata/log loss). With an
  // array, the array sits in between: it absorbs replica failures while the
  // set still has a live copy and forwards only set-wide losses.
  if (array_ != nullptr) {
    array_->set_downstream_sink(vfs_.get());
  } else {
    schedulers_[0]->set_write_error_sink(vfs_.get());
  }
  if (journal_device_ != SIZE_MAX) {
    schedulers_[journal_device_]->set_write_error_sink(vfs_.get());
  }
}

void Machine::EnableCrashTracking() {
  if (shadow_ != nullptr) {
    return;
  }
  shadow_ = std::make_unique<ShadowDisk>(fs_->sectors_per_block());
  // Every device reports completions: with a mirror the replicas write the
  // same physical LBAs, so the shadow map stays consistent (striped
  // geometries remap LBAs and are not supported by crash tracking).
  for (const std::unique_ptr<IoScheduler>& scheduler : schedulers_) {
    scheduler->set_completion_observer(shadow_.get());
  }
  if (Journal* journal = fs_->journal(); journal != nullptr) {
    if (TxnLog* log = journal->txn_log(); log != nullptr) {
      log->set_retain_history(true);
    }
  }
}

Nanos Machine::MaxBusyUntil() const {
  Nanos busy = 0;
  for (const std::unique_ptr<IoScheduler>& scheduler : schedulers_) {
    busy = std::max(busy, scheduler->busy_until());
  }
  return busy;
}

size_t Machine::TotalPendingAsync() const {
  size_t pending = 0;
  for (const std::unique_ptr<IoScheduler>& scheduler : schedulers_) {
    pending += scheduler->pending_async();
  }
  return pending;
}

Nanos Machine::DrainAll(Nanos now) {
  Nanos idle = now;
  for (const std::unique_ptr<IoScheduler>& scheduler : schedulers_) {
    idle = std::max(idle, scheduler->Drain(now));
  }
  return idle;
}

DiskStats Machine::AggregateDiskStats() const {
  DiskStats total;
  for (const std::unique_ptr<DeviceModel>& disk : disks_) {
    const DiskStats& s = disk->stats();
    total.reads += s.reads;
    total.writes += s.writes;
    total.sectors_read += s.sectors_read;
    total.sectors_written += s.sectors_written;
    total.seeks += s.seeks;
    total.buffer_hits += s.buffer_hits;
    total.sequential_hits += s.sequential_hits;
    total.total_service_time += s.total_service_time;
    total.total_seek_time += s.total_seek_time;
    total.total_rotation_time += s.total_rotation_time;
    total.total_transfer_time += s.total_transfer_time;
    total.errors += s.errors;
    total.total_fault_time += s.total_fault_time;
    total.gc_page_moves += s.gc_page_moves;
    total.gc_erases += s.gc_erases;
    total.total_gc_time += s.total_gc_time;
  }
  return total;
}

IoSchedulerStats Machine::AggregateSchedulerStats() const {
  IoSchedulerStats total;
  for (const std::unique_ptr<IoScheduler>& scheduler : schedulers_) {
    const IoSchedulerStats& s = scheduler->stats();
    total.sync_requests += s.sync_requests;
    total.async_requests += s.async_requests;
    total.async_serviced += s.async_serviced;
    total.async_errors += s.async_errors;
    total.sync_errors += s.sync_errors;
    total.retries += s.retries;
    total.remaps += s.remaps;
    total.retry_backoff_time += s.retry_backoff_time;
    total.total_sync_wait += s.total_sync_wait;
    total.total_sync_queue_delay += s.total_sync_queue_delay;
    total.max_queue_depth = std::max(total.max_queue_depth, s.max_queue_depth);
    total.async_throttle_stalls += s.async_throttle_stalls;
    total.total_async_throttle_time += s.total_async_throttle_time;
  }
  return total;
}

std::unique_ptr<DeviceModel> Machine::MakeRecoveryDevice(uint64_t seed) const {
  if (device_kind(0) == DeviceKind::kSsd) {
    return std::make_unique<SsdModel>(jittered_ssd_params_);
  }
  return std::make_unique<DiskModel>(jittered_disk_params_, seed);
}

void Machine::BindCursor(VirtualClock* cursor) {
  vfs_->BindCursor(cursor);
  fs_->BindClock(cursor);
  if (Journal* journal = fs_->journal(); journal != nullptr) {
    journal->BindClock(cursor);
  }
}

}  // namespace fsbench
