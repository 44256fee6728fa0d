// Seeded device-fault engine: the scenario axis real devices add and
// steady-state benchmarks ignore. Devices fail partially and transiently —
// latent sector errors, firmware retries, degraded regions — not just by
// crashing, and a benchmark that never draws a fault measures only the
// healthy half of the scenario space.
//
// A FaultPlan is a pure function of (config, seed): consulted by the
// DiskModel on every access, it decides whether the request observes
//   - a transient fault (fails this attempt; an immediate retry re-draws and
//     usually succeeds — the ECC-recoverable / vibration class),
//   - a persistent fault (a latent-bad media region: every access fails
//     until the block layer remaps the region into the spare pool),
//   - a slow I/O (the request completes but its service time is multiplied —
//     the tail-latency class: internal retries, thermal recalibration).
//
// Persistence is derived statelessly: a region is bad iff a hash of
// (seed, region) clears the configured rate, so the verdict is identical no
// matter when or in what order the region is touched. Transient and slow
// draws come from a dedicated seeded RNG stream, separate from the disk's
// rotational-latency stream, so enabling faults never perturbs mechanical
// timing draws. Time-windowed bursts multiply the transient rate inside a
// configured virtual-time window (correlated error storms).
#ifndef SRC_SIM_FAULT_PLAN_H_
#define SRC_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <optional>

#include "src/util/rng.h"
#include "src/util/units.h"

namespace fsbench {

// What a single device access observed. kNone may still be slow.
enum class FaultKind : uint8_t { kNone, kTransient, kPersistent };

struct FaultPlanConfig {
  // Per-request probability of a transient fault (re-drawn on every
  // attempt, so retries absorb these).
  double transient_rate = 0.0;
  // Fraction of fault regions that are latent-bad from mkfs time on: any
  // request starting in a bad region fails until the region is remapped.
  double persistent_rate = 0.0;
  // Granularity of persistent damage and of remapping, in sectors.
  // Default 2048 sectors = 1 MiB regions.
  uint64_t region_sectors = 2048;
  // Spare regions reserved for remapping, distributed across the LBA space
  // (per-zone spare tracks); once they are exhausted persistent faults
  // surface as EIO (graceful degradation has run out of road).
  uint64_t spare_regions = 64;
  // Per-request probability that service time is multiplied (tail-latency
  // injection); independent of the failure draws.
  double slow_rate = 0.0;
  double slow_multiplier = 8.0;
  // Grown defects: when nonzero, each persistent-bad region develops at a
  // per-region onset time drawn uniformly in [0, defect_onset_spread] by a
  // second stateless hash draw. Before its onset the region serves normally,
  // so data written early goes bad underneath later — the latent sector
  // errors a background scrub exists to find. 0 = bad from mkfs time on.
  Nanos defect_onset_spread = 0;
  // Fault burst: inside [burst_start, burst_start + burst_duration) of
  // virtual time the transient rate is multiplied by burst_factor
  // (correlated error storms; duration 0 disables the window).
  Nanos burst_start = 0;
  Nanos burst_duration = 0;
  double burst_factor = 1.0;
  // Whole-device failure: at this virtual time the device stops responding —
  // every later access fails fast with a persistent verdict (no mechanical
  // work, no remap escape). 0 = never. The redundancy layer is what turns
  // this from "the run dies" into a degraded-array scenario.
  Nanos device_kill_time = 0;
  // When true, the time axis of the knobs above (defect onsets, the burst
  // window, the device kill) starts at a runtime origin armed by
  // FaultPlan::StartClock instead of at virtual time 0, and those
  // time-dependent faults are held off until the clock is armed. Experiments
  // arm the clock after Prepare, so "kill at 3 s" means 3 s into the
  // measured window rather than 3 s into setup — whose virtual duration
  // would otherwise silently swallow the whole fault schedule. Regions with
  // no onset spread stay bad from mkfs time on regardless.
  bool deferred_clock = false;

  bool enabled() const {
    return transient_rate > 0.0 || persistent_rate > 0.0 || slow_rate > 0.0 ||
           device_kill_time > 0;
  }
};

struct FaultPlanStats {
  uint64_t transient_faults = 0;
  uint64_t persistent_faults = 0;
  uint64_t slow_ios = 0;
  uint64_t burst_faults = 0;  // transient faults drawn inside the burst window

  bool operator==(const FaultPlanStats& other) const = default;
};

// Verdict for one access attempt.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  bool slow = false;
  double slow_multiplier = 1.0;
};

class FaultPlan {
 public:
  FaultPlan(const FaultPlanConfig& config, uint64_t seed);

  // Evaluates one access attempt starting at sector `lba` at virtual time
  // `now`. `remapped` suppresses the persistent check (the request was
  // redirected to a known-good spare region); transient and slow draws
  // still apply — they model the electronics, not the media.
  FaultDecision Evaluate(uint64_t lba, Nanos now, bool remapped);

  // Stateless persistent verdict for the region containing `lba` as of
  // virtual time `now`: identical for every access of the run regardless of
  // order, and monotone in `now` (a region that has developed its defect
  // stays bad until remapped).
  bool RegionIsBad(uint64_t lba, Nanos now) const;

  // Whole-device death verdict at `now` (device_kill_time, on the plan's
  // clock). Stateless; the DiskModel latches the answer.
  bool DeviceDeadAt(Nanos now) const;

  // Arms a deferred clock (no-op on absolute-clock plans): time-dependent
  // faults measure from `origin` on. First call wins, so re-arming across
  // phases cannot move a schedule that is already running.
  void StartClock(Nanos origin);

  uint64_t RegionOf(uint64_t lba) const { return lba / config_.region_sectors; }

  const FaultPlanConfig& config() const { return config_; }
  const FaultPlanStats& stats() const { return stats_; }

 private:
  FaultPlanConfig config_;
  uint64_t seed_;
  Rng rng_;
  FaultPlanStats stats_;
  // Origin of the fault-time axis. Absolute-clock plans run from 0; a
  // deferred clock holds time-dependent faults off until StartClock arms it.
  std::optional<Nanos> origin_;
};

}  // namespace fsbench

#endif  // SRC_SIM_FAULT_PLAN_H_
