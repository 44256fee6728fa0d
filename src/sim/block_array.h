// Block-redundancy layer: composes N IoScheduler+DiskModel pairs into
// mirror (RAID1), striped (RAID0) and striped-mirror (RAID1+0) geometries
// behind the same BlockIo entry points the VFS and journal already speak.
//
// The array is organised as `width` mirror sets of `replicas` devices each:
//   - kMirror:       width = 1,         replicas = devices
//   - kStripe:       width = devices,   replicas = 1
//   - kStripeMirror: width = devices/2, replicas = 2
// A logical LBA is chunked round-robin across the sets (chunk_sectors per
// chunk); inside a set every replica holds the same physical image.
//
// Three robustness behaviors ride on the per-device fault plans:
//   - Degraded serving: a read whose chosen replica fails (latent-bad
//     region, or a whole device killed via FaultPlanConfig::device_kill_time)
//     is transparently re-issued to a surviving mirror replica. Only when
//     every replica of a set has failed does the request surface an error
//     (a lost stripe). Replica selection is deterministic: the live replica
//     whose device frees up earliest, ties to the lowest index — which is
//     also what makes mirrors *win* under concurrency (read fan-out).
//   - Background scrub: a virtual-time-paced scanner walks each device's
//     written LBA range region by region, detects latent-bad regions before
//     a client does, and repairs them from a mirror replica into the spare
//     pool (DiskModel::RemapRegion). Scrub I/O is charged on the device
//     timeline, so it visibly competes with foreground traffic.
//   - Online rebuild: when a device dies and the set still has a live
//     replica, a hot spare is resilvered region by region from the survivor
//     while foreground ops continue (writes fan out to the spare as well).
//     The rebuild pace is a knob; until it completes the set runs with
//     reduced redundancy — a second failure there means data loss, which is
//     reported (ArraySummary::data_loss, lost stripes) rather than crashed.
//
// Determinism: every decision (replica choice, scrub cadence, rebuild
// progress, failure detection) is a pure function of the request sequence
// and the per-device (config, seed) fault plans. There is no wall clock and
// no randomness of the array's own.
#ifndef SRC_SIM_BLOCK_ARRAY_H_
#define SRC_SIM_BLOCK_ARRAY_H_

#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "src/sim/io_scheduler.h"
#include "src/util/units.h"

namespace fsbench {

enum class ArrayGeometry : uint8_t { kSingle, kMirror, kStripe, kStripeMirror };

struct ArrayConfig {
  ArrayGeometry geometry = ArrayGeometry::kSingle;
  // Data devices in the array (excluding hot spares). kStripeMirror needs an
  // even count; kSingle ignores it.
  uint32_t devices = 1;
  // Stripe chunk: consecutive logical runs of this many sectors map to the
  // same set before the mapping moves to the next one. 256 = 128 KiB.
  uint64_t chunk_sectors = 256;
  // Idle standby devices available as rebuild targets after a device death.
  uint32_t hot_spares = 0;
  // Background scrub: probe one region every `scrub_interval` of virtual
  // time, walking every device's written LBA range in a round-robin.
  bool scrub = false;
  Nanos scrub_interval = 10 * kMillisecond;
  // Regions verified per scrub burst. Probing in sorted-LBA batches lets the
  // elevator serve the whole burst in one sweep; the same verify bandwidth
  // issued one isolated region at a time costs a head seek (and a broken
  // foreground stream) per probe.
  uint32_t scrub_batch = 1;
  // Rest between full scrub passes. A pass walks every allocated region once;
  // restarting it immediately would re-pay the whole verify-read bill forever
  // (real scrubs run on a schedule, not in a tight loop).
  Nanos scrub_pass_rest = 500 * kMillisecond;
  // Rebuild throttle: copy one region every `rebuild_interval`.
  Nanos rebuild_interval = 2 * kMillisecond;
  // Which device index FaultPlanConfig::device_kill_time applies to (the
  // machine zeroes the kill for every other device).
  uint32_t kill_device = 0;
  // Place the journal on a dedicated device outside the array (the classic
  // separate-log-device configuration).
  bool journal_device = false;
  // Per-device kind overrides, indexed over the machine's device order
  // (data devices, then hot spares, then the dedicated journal device).
  // Devices beyond the vector fall back to MachineConfig::device, so
  // `{}` keeps a uniform fleet and e.g. a journal-on-flash config lists
  // kinds only up to the journal slot. Mixed mirrors (SSD + HDD replicas)
  // are how the replica-choice policy gets something to prefer.
  std::vector<DeviceKind> device_kinds;

  bool enabled() const { return geometry != ArrayGeometry::kSingle; }
};

// Flattened record of the array's life, folded into RunResult.
struct ArraySummary {
  uint64_t devices = 0;             // data devices + spares behind the array
  uint64_t reads = 0;               // logical read requests
  uint64_t writes = 0;              // logical write requests
  uint64_t degraded_reads = 0;      // sub-reads whose first replica failed
  uint64_t mirror_rescues = 0;      // degraded reads a surviving mirror served
  uint64_t lost_stripes = 0;        // sub-reads no replica could serve
  uint64_t replica_write_errors = 0;  // per-device write failures (absorbed or not)
  uint64_t device_failures = 0;     // whole-device deaths noticed
  uint64_t scrub_regions_scanned = 0;
  uint64_t scrub_detections = 0;    // latent-bad regions the scrub found
  uint64_t scrub_preempted = 0;     // ... found before any foreground hit
  uint64_t scrub_repairs = 0;       // remapped + re-copied from a mirror
  uint64_t scrub_unrepairable = 0;  // no mirror source or no spare region left
  uint64_t rebuilds_started = 0;
  uint64_t rebuilds_completed = 0;
  uint64_t rebuild_regions_copied = 0;
  bool data_loss = false;           // some set lost its last replica

  bool operator==(const ArraySummary& other) const = default;
};

class BlockArray : public BlockIo, public IoWriteErrorSink {
 public:
  // `devices` are the data devices in set-major order (set s owns indices
  // [s*replicas, (s+1)*replicas)); `spares` are the hot-spare pool, claimed
  // lowest-index-first. The array does not own the schedulers; the Machine
  // does. Each device scheduler's write-error sink must be pointed at the
  // array (the machine wires this) so replica write failures can be
  // absorbed while redundancy holds.
  BlockArray(const ArrayConfig& config, std::vector<IoScheduler*> devices,
             std::vector<IoScheduler*> spares);

  std::optional<Nanos> SubmitSync(const IoRequest& req, Nanos now) override;
  Nanos SubmitAsync(const IoRequest& req, Nanos now) override;
  Nanos Drain(Nanos now) override;

  // IoWriteErrorSink (called by the per-device schedulers): absorbs replica
  // write failures while the owning set still has another live replica,
  // forwards them downstream (to the VFS) once redundancy is gone.
  void OnWriteError(const IoRequest& req, Nanos now) override;
  void set_downstream_sink(IoWriteErrorSink* sink) { downstream_sink_ = sink; }

  const ArraySummary& summary() const { return summary_; }
  uint32_t width() const { return width_; }
  uint32_t replicas() const { return replicas_; }
  // Live replicas of set `s` right now (no death probe — latched state).
  uint32_t LiveReplicas(size_t set) const;
  bool RebuildActive() const;

 private:
  // One physical extent on one mirror set.
  struct SubRange {
    size_t set = 0;
    uint64_t lba = 0;
    uint32_t count = 0;
  };

  struct MirrorSet {
    std::vector<size_t> members;   // indices into all_; rebuilt spares splice in
    std::vector<bool> live;        // parallel to members
    bool rebuilding = false;
    size_t rebuild_slot = 0;       // members slot being resilvered
    size_t rebuild_target = 0;     // index into all_ (the claimed spare)
    uint64_t rebuild_cursor = 0;   // next region index to consider copying
    Nanos rebuild_due = 0;         // next copy step fires at this time
    uint32_t rebuild_yields = 0;   // consecutive idle-yield postponements
  };

  // Splits a logical request into per-set physical sub-ranges (in logical
  // order, deterministic).
  void MapRequest(uint64_t lba, uint32_t count, std::vector<SubRange>* out) const;

  // Latches deaths, sets data_loss, starts rebuilds. Then runs every scrub
  // and rebuild step due at or before `now` (rebuild first on ties).
  void AdvanceBackground(Nanos now);
  void CheckDeviceFailures(Nanos now);
  void ScrubStep(Nanos t);
  void RebuildStep(size_t set_index, Nanos t);

  // Deterministic read-replica choice: live member whose device frees up
  // earliest; ties to the lowest slot. Returns members-slot index or
  // SIZE_MAX when the set is dead. `exclude` skips one slot (rescue path).
  size_t ChooseReadReplica(const MirrorSet& set, size_t exclude, uint64_t lba) const;

  // Lowest-index live member other than `exclude_slot` (rebuild/scrub
  // source), or SIZE_MAX.
  size_t ChooseSource(const MirrorSet& set, size_t exclude_slot) const;

  std::optional<Nanos> SyncReadSub(const SubRange& sub, bool meta, Nanos now);
  std::optional<Nanos> SyncWriteSub(const SubRange& sub, bool meta, Nanos now);

  void NoteAccess(size_t device, uint64_t lba, uint32_t count);
  uint64_t ForegroundKey(size_t device, uint64_t lba) const;
  void RecordForegroundFault(size_t device, uint64_t lba);

  ArrayConfig config_;
  uint32_t width_ = 1;
  uint32_t replicas_ = 1;
  // All device schedulers: data devices first, then spares. Indices are
  // stable for the array's life.
  std::vector<IoScheduler*> all_;
  std::vector<MirrorSet> sets_;
  std::vector<size_t> spare_pool_;       // unclaimed spares, lowest first
  // Per device: region indices ever touched by foreground or rebuild I/O — a
  // coarse allocation bitmap (the md write-intent-bitmap / ZFS idea). Scrub
  // and resilver walk only these regions: a watermark would drag both
  // through the untouched gaps ext3's block-group spreading leaves behind,
  // making any rebuild window meaningless. std::set iterates in sorted
  // order, so the walks stay deterministic.
  std::vector<std::set<uint64_t>> written_regions_;
  // Per device: one past the last foreground-read LBA routed there. Read
  // replica selection gives a sequential continuation affinity for the device
  // already streaming it (the drive's track buffer holds the data), and only
  // load-balances by queue for non-sequential reads — the md RAID1 policy.
  std::vector<uint64_t> read_cursor_;
  std::vector<bool> failure_noticed_;    // per device: death already counted
  // Regions foreground traffic has already hit a fault in, keyed by
  // (device, region). Lookup-only — never iterated, so hash order cannot
  // leak into results.
  std::unordered_set<uint64_t> foreground_fault_regions_;
  // Owning set per device index (SIZE_MAX for unclaimed spares).
  std::vector<size_t> device_set_;
  IoWriteErrorSink* downstream_sink_ = nullptr;
  // Depth counter: >0 while the array itself is issuing redundant or
  // background I/O whose per-device failures it will adjudicate itself.
  int suppress_sink_ = 0;
  // Device a call is currently inside of, for async write errors surfacing
  // during that device's service pass.
  size_t current_device_ = SIZE_MAX;
  // Scrub walker: device index + next physical LBA on it.
  size_t scrub_device_ = 0;
  uint64_t scrub_region_ = 0;  // next region index to probe on scrub_device_
  Nanos scrub_due_ = -1;  // lazily initialised on first background advance
  uint32_t scrub_yields_ = 0;  // consecutive idle-yield skipped probes
  // Scratch for MapRequest (steady-state allocation-free).
  mutable std::vector<SubRange> scratch_;
  ArraySummary summary_;
};

}  // namespace fsbench

#endif  // SRC_SIM_BLOCK_ARRAY_H_
