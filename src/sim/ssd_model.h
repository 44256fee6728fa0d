// Multi-channel NVMe-class flash device model (DAOS/SPDK lineage).
//
// Where the rotational DiskModel is dominated by mechanical positioning, an
// SSD's service time is flat per page — the win comes from parallelism:
// the controller drives `channels` independent flash channels, so requests
// landing on distinct channels overlap in time. The device reports that
// topology through DeviceModel::channels()/ChannelOf(), and the
// IoScheduler keeps one busy-until timeline per channel, which is what
// makes aggregate throughput RISE with queue depth until the channels
// saturate (the HDD's single timeline makes it collapse instead).
//
// Timing of one request (no RNG anywhere — the model is a pure function of
// the request sequence):
//   command_overhead                    controller + protocol
//   + read_latency | program_latency    NAND media time (flat)
//   + ceil(pages / channels) * page transfer at channel_xfer_rate
//   + foreground GC stalls (writes only, see below)
// Logical pages stripe round-robin across channels (page i -> channel
// i % channels), so a large sequential request spreads over every channel
// and its transfer cost is the per-channel share — sequential and random
// throughput differ only by queue-depth effects, as on real flash.
//
// Writes go through a page-mapping FTL: each logical page append-writes
// into the channel's active erase block and invalidates its previous
// physical copy. When a channel's free-block pool drops to gc_low_blocks,
// garbage collection picks the sealed block with the fewest valid pages
// (greedy victim), relocates those pages (read + program each) and erases
// the block — all charged to the triggering host write. That stall is write
// amplification made visible; DiskStats::{gc_page_moves, gc_erases,
// total_gc_time} record it.
//
// Fault behavior (FaultPlan verdicts, injected extents, remapping, death
// latch) comes from the DeviceModel base unchanged: the redundancy layer's
// scrub/rebuild and the block layer's retry/remap policy work against an
// SSD exactly as against a disk. A failed attempt charges controller +
// media + transfer + error_recovery_time but does not mutate the FTL (the
// program never completed).
#ifndef SRC_SIM_SSD_MODEL_H_
#define SRC_SIM_SSD_MODEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/sim/device_model.h"
#include "src/util/units.h"

namespace fsbench {

// Parameters of an 8-channel datacenter-class NVMe drive (read ~70 us,
// program ~220 us, 1 MiB erase blocks, ~500 MB/s per channel).
struct SsdParams {
  Bytes capacity = 250 * kGiB;  // host-visible logical capacity
  uint32_t sector_bytes = 512;
  // Independent flash channels; requests to distinct channels overlap on
  // the scheduler's per-channel timelines.
  uint32_t channels = 8;
  // Flash page: the FTL mapping unit and the media program/read unit.
  Bytes page_bytes = 4 * kKiB;
  uint32_t pages_per_block = 256;  // erase block = 1 MiB at 4 KiB pages
  // Physical spare space per channel beyond its logical share; what GC
  // breathes with. 0.07 ~= consumer drives' 7%.
  double overprovision = 0.07;
  Nanos read_latency = 70 * kMicrosecond;     // NAND tR + ECC
  Nanos program_latency = 220 * kMicrosecond; // NAND tProg
  Nanos erase_latency = 2 * kMillisecond;     // block erase
  Nanos command_overhead = 5 * kMicrosecond;  // controller + NVMe protocol
  uint64_t channel_xfer_rate = 500 * 1000 * 1000;  // bytes/second per channel
  // GC trigger: reclaim when a channel's free-block pool is at or below
  // this many blocks.
  uint32_t gc_low_blocks = 2;
  // Error-recovery charge per failed attempt (read-retry voltage sweeps,
  // soft-decode). Same role as DiskParams::error_recovery_time.
  Nanos error_recovery_time = 0;
};

class SsdModel : public DeviceModel {
 public:
  explicit SsdModel(const SsdParams& params);

  DeviceKind kind() const override { return DeviceKind::kSsd; }

  AccessResult AccessEx(const IoRequest& req, Nanos now) override;

  uint32_t channels() const override { return params_.channels; }
  uint32_t ChannelOf(uint64_t lba) const override {
    return static_cast<uint32_t>((lba / sectors_per_page_) % params_.channels);
  }

  const SsdParams& params() const { return params_; }
  // Time to move one page over a channel (exposed for tests).
  Nanos page_transfer_time() const { return page_transfer_time_; }
  uint64_t sectors_per_page() const { return sectors_per_page_; }
  // Erased blocks currently available on `channel` (exposed for tests).
  size_t FreeBlocks(uint32_t channel) const { return chans_[channel].free.size(); }

 private:
  static constexpr uint64_t kNoBlock = ~0ULL;
  static constexpr uint64_t kInvalidLpn = ~0ULL;

  enum class BlockState : uint8_t { kFree, kActive, kSealed };

  struct Block {
    uint32_t valid = 0;    // live pages (owner slots != kInvalidLpn)
    uint32_t written = 0;  // next append slot
    BlockState state = BlockState::kFree;
    // Logical owner per physical page slot; allocated lazily on first use so
    // untouched capacity costs no memory. kInvalidLpn marks a dead page.
    std::vector<uint64_t> owner;
  };

  struct Channel {
    uint64_t host_active = kNoBlock;  // append target for host writes
    uint64_t gc_active = kNoBlock;    // append target for GC relocation
    // Erased blocks, highest id first so pop_back hands out the lowest id
    // (deterministic allocation order).
    std::vector<uint64_t> free;
  };

  // Appends one page into the channel's host or GC stream, running GC first
  // when the host stream needs a new block and the pool is low. Returns the
  // physical page number; GC time is added to *gc_cost.
  uint64_t AllocPage(uint32_t channel, bool for_gc, Nanos* gc_cost);
  uint64_t TakeFreeBlock(uint32_t channel);
  void CollectGarbage(uint32_t channel, Nanos* gc_cost);
  uint64_t PickVictim(uint32_t channel) const;
  // Marks the old physical copy of a page dead.
  void InvalidatePpn(uint64_t ppn);
  // Maps one logical page write through the FTL; returns GC stall time.
  Nanos WritePage(uint64_t lpn);

  SsdParams params_;
  uint64_t sectors_per_page_;
  uint64_t blocks_per_channel_;
  Nanos page_transfer_time_;

  std::vector<Block> blocks_;   // global block id = channel * blocks_per_channel_ + i
  std::vector<Channel> chans_;
  // Logical page -> physical page. Lookup/insert/erase only (never
  // iterated), so hash order cannot leak into results.
  std::unordered_map<uint64_t, uint64_t> page_map_;
};

}  // namespace fsbench

#endif  // SRC_SIM_SSD_MODEL_H_
