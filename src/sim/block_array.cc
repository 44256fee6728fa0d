#include "src/sim/block_array.h"

#include <algorithm>
#include <cassert>

namespace fsbench {

BlockArray::BlockArray(const ArrayConfig& config, std::vector<IoScheduler*> devices,
                       std::vector<IoScheduler*> spares)
    : config_(config) {
  switch (config_.geometry) {
    case ArrayGeometry::kSingle:
      width_ = 1;
      replicas_ = 1;
      break;
    case ArrayGeometry::kMirror:
      width_ = 1;
      replicas_ = static_cast<uint32_t>(devices.size());
      break;
    case ArrayGeometry::kStripe:
      width_ = static_cast<uint32_t>(devices.size());
      replicas_ = 1;
      break;
    case ArrayGeometry::kStripeMirror:
      assert(devices.size() % 2 == 0);
      width_ = static_cast<uint32_t>(devices.size() / 2);
      replicas_ = 2;
      break;
  }
  assert(!devices.empty());
  assert(devices.size() == static_cast<size_t>(width_) * replicas_);

  all_ = std::move(devices);
  for (IoScheduler* spare : spares) {
    spare_pool_.push_back(all_.size());
    all_.push_back(spare);
  }
  device_set_.assign(all_.size(), SIZE_MAX);
  written_regions_.assign(all_.size(), {});
  read_cursor_.assign(all_.size(), UINT64_MAX);
  failure_noticed_.assign(all_.size(), false);

  sets_.resize(width_);
  for (size_t s = 0; s < width_; ++s) {
    MirrorSet& set = sets_[s];
    for (uint32_t r = 0; r < replicas_; ++r) {
      const size_t device = s * replicas_ + r;
      set.members.push_back(device);
      set.live.push_back(true);
      device_set_[device] = s;
    }
  }
  summary_.devices = all_.size();
}

void BlockArray::MapRequest(uint64_t lba, uint32_t count, std::vector<SubRange>* out) const {
  out->clear();
  if (width_ == 1) {
    out->push_back(SubRange{0, lba, count});
    return;
  }
  uint64_t cur = lba;
  uint32_t remaining = count;
  while (remaining > 0) {
    const uint64_t chunk = cur / kChunkSectors;
    const uint64_t offset = cur % kChunkSectors;
    const uint32_t take =
        static_cast<uint32_t>(std::min<uint64_t>(remaining, kChunkSectors - offset));
    const size_t set = chunk % width_;
    const uint64_t phys = (chunk / width_) * kChunkSectors + offset;
    if (!out->empty() && out->back().set == set && out->back().lba + out->back().count == phys) {
      out->back().count += take;
    } else {
      out->push_back(SubRange{set, phys, take});
    }
    cur += take;
    remaining -= take;
  }
}

uint32_t BlockArray::LiveReplicas(size_t set) const {
  uint32_t live = 0;
  for (const bool flag : sets_[set].live) {
    live += flag ? 1 : 0;
  }
  return live;
}

bool BlockArray::RebuildActive() const {
  for (const MirrorSet& set : sets_) {
    if (set.rebuilding) {
      return true;
    }
  }
  return false;
}

size_t BlockArray::ChooseReadReplica(const MirrorSet& set, size_t exclude,
                                     uint64_t lba) const {
  size_t best = SIZE_MAX;
  Nanos best_busy = 0;
  for (size_t slot = 0; slot < set.members.size(); ++slot) {
    if (!set.live[slot] || slot == exclude) {
      continue;
    }
    const size_t device = set.members[slot];
    // Sequential affinity first (lowest slot on a tie): the replica that just
    // read the preceding range has it in its track buffer and its head on the
    // right cylinder, so continuing the stream there is near-free. Splitting
    // a stream across replicas would turn every other read into a seek.
    if (read_cursor_[device] == lba) {
      return slot;
    }
    const Nanos busy = all_[device]->busy_until();
    if (best == SIZE_MAX || busy < best_busy) {
      best = slot;
      best_busy = busy;
    }
  }
  return best;
}

size_t BlockArray::ChooseSource(const MirrorSet& set, size_t exclude_slot) const {
  for (size_t slot = 0; slot < set.members.size(); ++slot) {
    if (set.live[slot] && slot != exclude_slot) {
      return slot;
    }
  }
  return SIZE_MAX;
}

void BlockArray::NoteAccess(size_t device, uint64_t lba, uint32_t count) {
  const uint64_t region_sectors = all_[device]->disk()->region_sectors();
  const uint64_t last = lba + (count > 0 ? count - 1 : 0);
  for (uint64_t r = lba / region_sectors; r <= last / region_sectors; ++r) {
    written_regions_[device].insert(r);
  }
}

uint64_t BlockArray::ForegroundKey(size_t device, uint64_t lba) const {
  const uint64_t region = lba / all_[device]->disk()->region_sectors();
  return (static_cast<uint64_t>(device) << 44) | region;
}

void BlockArray::RecordForegroundFault(size_t device, uint64_t lba) {
  foreground_fault_regions_.insert(ForegroundKey(device, lba));
}

void BlockArray::CheckDeviceFailures(Nanos now) {
  for (size_t d = 0; d < all_.size(); ++d) {
    if (!failure_noticed_[d] && all_[d]->disk()->IsDead(now)) {
      failure_noticed_[d] = true;
      ++summary_.device_failures;
    }
  }
  for (size_t s = 0; s < sets_.size(); ++s) {
    MirrorSet& set = sets_[s];
    bool any_dead_slot = false;
    for (size_t slot = 0; slot < set.members.size(); ++slot) {
      if (set.live[slot] && failure_noticed_[set.members[slot]]) {
        set.live[slot] = false;
      }
      any_dead_slot = any_dead_slot || !set.live[slot];
    }
    if (set.rebuilding && failure_noticed_[set.rebuild_target]) {
      // The spare died mid-resilver; abandon it (another spare, if any, can
      // be claimed on the next pass).
      set.rebuilding = false;
    }
    if (LiveReplicas(s) == 0) {
      summary_.data_loss = true;
      set.rebuilding = false;
      continue;
    }
    if (replicas_ > 1 && any_dead_slot && !set.rebuilding && !spare_pool_.empty()) {
      size_t slot = SIZE_MAX;
      for (size_t i = 0; i < set.live.size(); ++i) {
        if (!set.live[i]) {
          slot = i;
          break;
        }
      }
      set.rebuilding = true;
      set.rebuild_slot = slot;
      set.rebuild_target = spare_pool_.front();
      spare_pool_.erase(spare_pool_.begin());
      device_set_[set.rebuild_target] = s;
      set.rebuild_cursor = 0;
      set.rebuild_due = now + config_.rebuild_interval;
      ++summary_.rebuilds_started;
    }
  }
}

void BlockArray::AdvanceBackground(Nanos now) {
  CheckDeviceFailures(now);
  const bool scrub_on = config_.scrub;
  if (!scrub_on && !RebuildActive()) {
    return;
  }
  if (scrub_on && scrub_due_ < 0) {
    // Lazy start: the first background advance anchors the scrub cadence, so
    // a machine assembled at time 0 but first driven much later does not
    // replay a catch-up storm of probes.
    scrub_due_ = now + config_.scrub_interval;
  }
  for (;;) {
    // Earliest due step wins; rebuild beats scrub on ties (redundancy
    // restoration is the more urgent background job).
    size_t rebuild_set = SIZE_MAX;
    Nanos rebuild_due = 0;
    for (size_t s = 0; s < sets_.size(); ++s) {
      if (sets_[s].rebuilding && sets_[s].rebuild_due <= now &&
          (rebuild_set == SIZE_MAX || sets_[s].rebuild_due < rebuild_due)) {
        rebuild_set = s;
        rebuild_due = sets_[s].rebuild_due;
      }
    }
    const bool scrub_ready = scrub_on && scrub_due_ >= 0 && scrub_due_ <= now;
    if (rebuild_set != SIZE_MAX && (!scrub_ready || rebuild_due <= scrub_due_)) {
      RebuildStep(rebuild_set, rebuild_due);  // advances rebuild_due itself
      continue;
    }
    if (scrub_ready) {
      ScrubStep(scrub_due_);
      scrub_due_ += config_.scrub_interval;
      continue;
    }
    break;
  }
}

void BlockArray::RebuildStep(size_t set_index, Nanos t) {
  MirrorSet& set = sets_[set_index];
  const size_t source_slot = ChooseSource(set, set.rebuild_slot);
  if (source_slot == SIZE_MAX) {
    summary_.data_loss = true;
    set.rebuilding = false;
    return;
  }
  const size_t source = set.members[source_slot];
  const size_t target = set.rebuild_target;
  // Idle-yield throttle (md-style): the cadence sets the *maximum* copy
  // rate; a step that finds either device still busy with foreground work
  // yields and retries when the queue clears, so the resilver soaks up idle
  // bandwidth instead of stacking an unbounded backlog on busy devices. A
  // sustained foreground load would postpone forever, so — like md's
  // speed_limit_min floor — every fourth opportunity copies regardless: the
  // exposure window must close even on a machine that is never idle.
  const Nanos busy = std::max(all_[source]->busy_until(), all_[target]->busy_until());
  if (busy > t && set.rebuild_yields < 3) {
    ++set.rebuild_yields;
    set.rebuild_due = t + config_.rebuild_interval;
    return;
  }
  set.rebuild_yields = 0;
  DeviceModel* source_disk = all_[source]->disk();
  const uint64_t region_sectors = source_disk->region_sectors();
  // Resilver only regions that ever held data: copying 250 GB of untouched
  // sectors would make any rebuild window meaningless (allocated-only
  // resilvering, the ZFS/md-bitmap idea). Regions written behind the cursor
  // during the rebuild need no revisit — foreground writes already fan out
  // to the target.
  const std::set<uint64_t>& regions = written_regions_[source];
  const auto next = regions.lower_bound(set.rebuild_cursor);
  if (next == regions.end()) {
    set.members[set.rebuild_slot] = target;
    set.live[set.rebuild_slot] = true;
    set.rebuilding = false;
    ++summary_.rebuilds_completed;
    return;
  }
  const uint64_t start = *next * region_sectors;
  const uint32_t count = static_cast<uint32_t>(
      std::min<uint64_t>(region_sectors, source_disk->total_sectors() - start));
  const IoRequest read{IoKind::kRead, start, count, false};
  const IoRequest write{IoKind::kWrite, start, count, false};
  ++suppress_sink_;
  current_device_ = source;
  all_[source]->SubmitSync(read, t);
  current_device_ = target;
  all_[target]->SubmitSync(write, t);
  current_device_ = SIZE_MAX;
  --suppress_sink_;
  NoteAccess(target, start, count);
  ++summary_.rebuild_regions_copied;
  set.rebuild_cursor = *next + 1;
  set.rebuild_due = t + config_.rebuild_interval;
  if (regions.lower_bound(set.rebuild_cursor) == regions.end()) {
    set.members[set.rebuild_slot] = target;
    set.live[set.rebuild_slot] = true;
    set.rebuilding = false;
    ++summary_.rebuilds_completed;
  }
}

void BlockArray::ScrubStep(Nanos t) {
  const size_t n = all_.size();
  for (size_t tries = 0; tries < n; ++tries) {
    const size_t d = scrub_device_;
    DeviceModel* disk = all_[d]->disk();
    // md pauses check/repair on a set that is degraded or resilvering: there
    // is no second copy to verify against (every detection would be
    // unrepairable) and the rebuild owns the set's spare bandwidth.
    const bool set_paused =
        replicas_ > 1 && device_set_[d] != SIZE_MAX &&
        (sets_[device_set_[d]].rebuilding ||
         std::find(sets_[device_set_[d]].live.begin(), sets_[device_set_[d]].live.end(), false) !=
             sets_[device_set_[d]].live.end());
    // Allocated-only scan, same as the resilver: walk the regions that ever
    // held data, in index order, then move to the next device.
    const std::set<uint64_t>& regions = written_regions_[d];
    const auto first = device_set_[d] == SIZE_MAX || disk->dead() || set_paused
                           ? regions.end()
                           : regions.lower_bound(scrub_region_);
    if (first == regions.end()) {
      scrub_device_ = (scrub_device_ + 1) % n;
      scrub_region_ = 0;
      if (scrub_device_ == 0) {
        scrub_due_ = t + kScrubPassRest;  // full pass done: rest
      }
      continue;
    }
    // Same idle-yield as the rebuild: a probe is a full-region verify read,
    // and firing it into a busy queue on every tick would make the scrub the
    // dominant tenant. Skip this tick when the device has foreground backlog;
    // every fourth opportunity probes anyway so the scan still finishes.
    if (all_[d]->busy_until() > t && scrub_yields_ < 3) {
      ++scrub_yields_;
      return;
    }
    scrub_yields_ = 0;
    const uint64_t region_sectors = disk->region_sectors();
    // Probe up to scrub_batch regions in sorted-LBA order. The elevator
    // serves the whole burst in one sweep; the alternative — the same
    // regions one isolated probe at a time — pays a seek (and breaks any
    // foreground stream) per region.
    ++suppress_sink_;
    for (uint32_t b = 0; b < config_.scrub_batch; ++b) {
      const auto it = regions.lower_bound(scrub_region_);
      if (it == regions.end()) break;
      const uint64_t start = *it * region_sectors;
      const uint32_t count = static_cast<uint32_t>(
          std::min<uint64_t>(region_sectors, disk->total_sectors() - start));
      const bool bad = disk->RegionLatentBad(start, t);
      ++summary_.scrub_regions_scanned;
      current_device_ = d;
      if (!bad) {
        // Clean region: the verify read is charged on the device timeline —
        // scrubbing is exactly this interference.
        all_[d]->SubmitSync(IoRequest{IoKind::kRead, start, count, false}, t);
      } else {
        // Latent-bad region: the verify read would fail no matter how often
        // the drive's ERC loop retries it, and the per-device retry policy
        // would also race the scrub to the remap. The scrub owns this repair:
        // don't spin the doomed read, go straight to remap + re-copy
        // (charged below).
        ++summary_.scrub_detections;
        if (foreground_fault_regions_.count(ForegroundKey(d, start)) == 0) {
          ++summary_.scrub_preempted;
        }
        const MirrorSet& set = sets_[device_set_[d]];
        size_t my_slot = SIZE_MAX;
        for (size_t slot = 0; slot < set.members.size(); ++slot) {
          if (set.members[slot] == d) {
            my_slot = slot;
            break;
          }
        }
        const size_t source_slot = ChooseSource(set, my_slot);
        if (source_slot == SIZE_MAX || !disk->RemapRegion(start)) {
          // No mirror copy to repair from (stripe, or the set's other
          // replicas are gone), or the spare pool is exhausted.
          ++summary_.scrub_unrepairable;
        } else {
          const size_t source = set.members[source_slot];
          current_device_ = source;
          all_[source]->SubmitSync(IoRequest{IoKind::kRead, start, count, false}, t);
          current_device_ = d;
          // Redirected to the freshly-assigned spare region by the remap.
          all_[d]->SubmitSync(IoRequest{IoKind::kWrite, start, count, false}, t);
          ++summary_.scrub_repairs;
        }
      }
      scrub_region_ = *it + 1;
    }
    current_device_ = SIZE_MAX;
    --suppress_sink_;
    if (regions.lower_bound(scrub_region_) == regions.end()) {
      scrub_device_ = (scrub_device_ + 1) % n;
      scrub_region_ = 0;
      if (scrub_device_ == 0) {
        scrub_due_ = t + kScrubPassRest;  // full pass done: rest
      }
    }
    return;  // one burst per step
  }
}

std::optional<Nanos> BlockArray::SyncReadSub(const SubRange& sub, bool meta, Nanos now) {
  MirrorSet& set = sets_[sub.set];
  const IoRequest req{IoKind::kRead, sub.lba, sub.count, meta};
  const size_t first = ChooseReadReplica(set, SIZE_MAX, sub.lba);
  if (first == SIZE_MAX) {
    ++summary_.lost_stripes;
    summary_.data_loss = true;
    return std::nullopt;
  }
  const size_t first_device = set.members[first];
  NoteAccess(first_device, sub.lba, sub.count);
  read_cursor_[first_device] = sub.lba + sub.count;
  current_device_ = first_device;
  const std::optional<Nanos> done = all_[first_device]->SubmitSync(req, now);
  current_device_ = SIZE_MAX;
  if (done.has_value()) {
    return done;
  }
  // Degraded path: the chosen replica failed (bad region or dead device).
  // Latch any death this attempt just discovered, then walk the surviving
  // replicas in slot order.
  RecordForegroundFault(first_device, sub.lba);
  ++summary_.degraded_reads;
  CheckDeviceFailures(now);
  for (size_t slot = 0; slot < set.members.size(); ++slot) {
    if (slot == first || !set.live[slot]) {
      continue;
    }
    const size_t device = set.members[slot];
    NoteAccess(device, sub.lba, sub.count);
    current_device_ = device;
    const std::optional<Nanos> rescued = all_[device]->SubmitSync(req, now);
    current_device_ = SIZE_MAX;
    if (rescued.has_value()) {
      ++summary_.mirror_rescues;
      return rescued;
    }
    RecordForegroundFault(device, sub.lba);
  }
  ++summary_.lost_stripes;
  return std::nullopt;
}

std::optional<Nanos> BlockArray::SyncWriteSub(const SubRange& sub, bool meta, Nanos now) {
  MirrorSet& set = sets_[sub.set];
  const IoRequest req{IoKind::kWrite, sub.lba, sub.count, meta};
  Nanos completion = now;
  bool any_live = false;
  bool any_ok = false;
  ++suppress_sink_;
  for (size_t slot = 0; slot < set.members.size(); ++slot) {
    if (!set.live[slot]) {
      continue;
    }
    any_live = true;
    const size_t device = set.members[slot];
    NoteAccess(device, sub.lba, sub.count);
    current_device_ = device;
    const std::optional<Nanos> done = all_[device]->SubmitSync(req, now);
    current_device_ = SIZE_MAX;
    if (done.has_value()) {
      any_ok = true;
      completion = std::max(completion, *done);
    } else {
      RecordForegroundFault(device, sub.lba);
    }
  }
  if (set.rebuilding) {
    // Keep the resilvering spare current: regions behind the rebuild cursor
    // must not go stale, and regions ahead of it get copied later anyway.
    const size_t target = set.rebuild_target;
    NoteAccess(target, sub.lba, sub.count);
    current_device_ = target;
    const std::optional<Nanos> done = all_[target]->SubmitSync(req, now);
    current_device_ = SIZE_MAX;
    if (done.has_value()) {
      completion = std::max(completion, *done);
    }
  }
  --suppress_sink_;
  if (!any_live) {
    summary_.data_loss = true;
  }
  if (!any_ok) {
    // Redundancy is gone for this extent: now the failure is the file
    // system's problem (journal abort, remount-read-only — the single-device
    // semantics).
    if (downstream_sink_ != nullptr) {
      downstream_sink_->OnWriteError(req, now);
    }
    return std::nullopt;
  }
  return completion;
}

std::optional<Nanos> BlockArray::SubmitSync(const IoRequest& req, Nanos now) {
  AdvanceBackground(now);
  if (req.kind == IoKind::kRead) {
    ++summary_.reads;
  } else {
    ++summary_.writes;
  }
  MapRequest(req.lba, req.sector_count, &scratch_);
  Nanos completion = now;
  for (const SubRange& sub : scratch_) {
    const std::optional<Nanos> done = req.kind == IoKind::kRead
                                          ? SyncReadSub(sub, req.meta, now)
                                          : SyncWriteSub(sub, req.meta, now);
    if (!done.has_value()) {
      return std::nullopt;
    }
    completion = std::max(completion, *done);
  }
  return completion;
}

Nanos BlockArray::SubmitAsync(const IoRequest& req, Nanos now) {
  AdvanceBackground(now);
  if (req.kind == IoKind::kRead) {
    ++summary_.reads;
  } else {
    ++summary_.writes;
  }
  // The producer stalls for the slowest throttling member: a mirror write
  // is not accepted until every replica's queue had room for it.
  Nanos admit = now;
  MapRequest(req.lba, req.sector_count, &scratch_);
  for (const SubRange& sub : scratch_) {
    MirrorSet& set = sets_[sub.set];
    if (req.kind == IoKind::kRead) {
      // Background reads (readahead) pick one replica and accept silent
      // failure, like the single-device path.
      const size_t slot = ChooseReadReplica(set, SIZE_MAX, sub.lba);
      if (slot == SIZE_MAX) {
        continue;
      }
      const size_t device = set.members[slot];
      NoteAccess(device, sub.lba, sub.count);
      read_cursor_[device] = sub.lba + sub.count;
      admit = std::max(admit, all_[device]->SubmitAsync(
                                  IoRequest{IoKind::kRead, sub.lba, sub.count, req.meta}, now));
      continue;
    }
    const IoRequest sub_req{IoKind::kWrite, sub.lba, sub.count, req.meta};
    for (size_t slot = 0; slot < set.members.size(); ++slot) {
      if (!set.live[slot]) {
        continue;
      }
      const size_t device = set.members[slot];
      NoteAccess(device, sub.lba, sub.count);
      admit = std::max(admit, all_[device]->SubmitAsync(sub_req, now));
    }
    if (set.rebuilding) {
      NoteAccess(set.rebuild_target, sub.lba, sub.count);
      admit = std::max(admit, all_[set.rebuild_target]->SubmitAsync(sub_req, now));
    }
  }
  return admit;
}

Nanos BlockArray::Drain(Nanos now) {
  AdvanceBackground(now);
  Nanos idle = now;
  for (size_t d = 0; d < all_.size(); ++d) {
    current_device_ = d;
    idle = std::max(idle, all_[d]->Drain(now));
    current_device_ = SIZE_MAX;
  }
  return idle;
}

void BlockArray::OnWriteError(const IoRequest& req, Nanos now) {
  ++summary_.replica_write_errors;
  if (suppress_sink_ > 0) {
    // The array is mid-fan-out (or scrubbing/rebuilding) and will adjudicate
    // the set-level outcome itself once every replica has answered.
    return;
  }
  // An async write surfacing its failure during some device's service pass:
  // absorb it while the owning set still has another live copy.
  if (current_device_ != SIZE_MAX) {
    RecordForegroundFault(current_device_, req.lba);
    const size_t set = device_set_[current_device_];
    if (set != SIZE_MAX && LiveReplicas(set) > 1) {
      return;
    }
  }
  if (downstream_sink_ != nullptr) {
    downstream_sink_->OnWriteError(req, now);
  }
}

}  // namespace fsbench
