// Virtual file system layer: ties the file system, page cache, readahead
// policy and I/O scheduler together and is the single component that charges
// virtual time.
//
// Cost model (matching the paper's testbed envelope; see DESIGN.md §4):
//   - each call costs a syscall overhead (~3.5 us),
//   - each page copied to/from the cache costs a copy charge (~0.5 us),
//   - cache misses wait for the disk through the I/O scheduler,
//   - readahead and writeback are asynchronous: they occupy the disk but do
//     not block the calling operation.
#ifndef SRC_SIM_VFS_H_
#define SRC_SIM_VFS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/filesystem.h"
#include "src/sim/flash_tier.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/page_cache.h"
#include "src/sim/readahead.h"
#include "src/sim/types.h"

namespace fsbench {

struct VfsConfig {
  Bytes page_size = 4 * kKiB;
  size_t cache_capacity_pages = 104960;  // ~410 MiB: 512 MiB RAM minus OS
  EvictionPolicyKind eviction = EvictionPolicyKind::kLru;
  Nanos syscall_overhead = 3500;
  Nanos page_copy_cost = 500;
  // CPU cost of touching one meta-data page through the cache (dentry walk,
  // buffer-head lookup); charged per MetaIo read/write, hit or miss.
  Nanos meta_touch_cost = 250;
  // Per-run CPU speed multiplier (machine jitter model); scales the two
  // costs above.
  double cpu_cost_multiplier = 1.0;
  // Override the file system's readahead configuration (for ablations).
  std::optional<ReadaheadConfig> readahead_override;
};

struct VfsStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t creates = 0;
  uint64_t unlinks = 0;
  uint64_t stats_calls = 0;
  uint64_t opens = 0;
  uint64_t fsyncs = 0;
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  uint64_t data_page_hits = 0;
  uint64_t data_page_misses = 0;   // includes flash hits (they missed RAM)
  uint64_t flash_hits = 0;         // RAM misses served by the flash tier
  uint64_t demand_requests = 0;
  uint64_t readahead_pages = 0;
  uint64_t writeback_pages = 0;
  uint64_t io_errors = 0;
  // Device-fault / degraded-mode accounting.
  uint64_t write_errors = 0;       // permanent device write failures observed
  uint64_t meta_write_errors = 0;  // subset that hit metadata or journal-log writes
  uint64_t degraded_reads = 0;     // reads served while the fs was read-only
  uint64_t readonly_rejects = 0;   // mutations refused with kReadOnly

  bool operator==(const VfsStats& other) const = default;
};

class Vfs : public CheckpointSink, public IoWriteErrorSink {
 public:
  // `flash` is an optional second-level cache tier (may be null): RAM
  // evictions are demoted into it and RAM misses probe it before disk.
  Vfs(VirtualClock* clock, BlockIo* io, FileSystem* fs, const VfsConfig& config,
      FlashTier* flash = nullptr);

  // Rebinds the clock cursor every operation charges time against. `clock`
  // passed at construction is the initial binding (the machine's base clock:
  // single-threaded behaviour); the multi-thread engine rebinds a per-thread
  // cursor around every step, so no operation touches a global clock — it
  // only ever advances the cursor of the simulated thread that issued it.
  void BindCursor(VirtualClock* cursor) { clock_ = cursor; }
  VirtualClock* cursor() { return clock_; }

  // --- POSIX-ish surface (absolute paths, '/'-separated) ---
  //
  // Paths are string_views: resolution walks them in place, handing each
  // component straight to the file system without copying.

  FsResult<int> Open(std::string_view path, bool create = false);
  FsStatus Close(int fd);
  FsResult<Bytes> Read(int fd, Bytes offset, Bytes length);
  FsResult<Bytes> Write(int fd, Bytes offset, Bytes length);
  FsStatus CreateFile(std::string_view path);
  FsStatus Mkdir(std::string_view path);
  FsStatus Unlink(std::string_view path);
  FsResult<FileAttr> Stat(std::string_view path);
  FsResult<std::vector<std::string>> ReadDir(std::string_view path);
  FsStatus Truncate(std::string_view path, Bytes new_size);
  // Writes back this file's dirty pages (per-file: the page cache probes the
  // file's FileSystem::PageEnd range) and commits the journal; waits for
  // idle disk.
  FsStatus Fsync(int fd);
  // Flushes all dirty pages and commits the journal; waits for idle disk.
  void SyncAll();

  // --- Experiment setup helpers: no virtual time is charged ---

  // Creates `path` (parents must exist) and allocates `size` bytes of
  // backing blocks without writing data — Filebench-style preallocation.
  FsStatus MakeFile(std::string_view path, Bytes size);

  // Loads the file's pages into the cache (ascending order, so under LRU the
  // file's tail is most recent). Stops early if the cache is smaller than
  // the file, having streamed it through once (keeps the *last* pages).
  FsStatus PrewarmFile(std::string_view path);

  // Drops the whole page cache (clean and dirty alike).
  void DropCaches();

  // CheckpointSink: the transaction log reclaims space by asking for the
  // still-dirty pages behind a committed transaction's home blocks to be
  // written back (async, at `now`). Pages already clean, evicted or
  // invalidated are reported straight back as at-home.
  size_t WritebackForCheckpoint(const MetaRef* refs, size_t count, Nanos now) override;

  // IoWriteErrorSink: the scheduler reports a write that failed permanently
  // (retry policy exhausted). Metadata/log failures are forwarded to the
  // file system, which may remount itself read-only (journal abort).
  void OnWriteError(const IoRequest& req, Nanos now) override;

  // --- Introspection ---

  PageCache& cache() { return cache_; }
  const PageCache& cache() const { return cache_; }
  FileSystem& fs() { return *fs_; }
  BlockIo& io() { return *io_; }
  const VfsStats& stats() const { return stats_; }
  const VfsConfig& config() const { return config_; }
  double DataHitRatio() const;

 private:
  struct OpenFile {
    InodeId ino = kInvalidInode;
    ReadaheadState readahead;
  };

  // How ResolvePath treats the last path component.
  enum class ResolveMode {
    kFull,    // resolve every component; return the final inode
    kParent,  // stop before the leaf: no leaf lookup (Create/Unlink scan
              // the directory themselves); returns the parent
    kOpen,    // resolve the leaf too, but also report parent + leaf so a
              // missing leaf can be created without a second walk
  };

  // Splits "/a/b/c" and walks Lookup in a single pass. `parent_out` /
  // `leaf_out` are filled per `mode`; `*parent_out` stays kInvalidInode when
  // the walk failed before reaching the leaf's parent (or the path is "/").
  FsResult<InodeId> ResolvePath(std::string_view path, ResolveMode mode, InodeId* parent_out,
                                std::string_view* leaf_out);

  // The four fixed CPU charges, pre-scaled by cpu_cost_multiplier at
  // construction (same rounding as scaling at charge time), so the hot
  // path advances the clock without per-charge floating-point work.
  Nanos scaled_syscall_ = 0;
  Nanos scaled_syscall_plus_op_ = 0;  // syscall + fs per-op overhead
  Nanos scaled_page_copy_ = 0;
  Nanos scaled_meta_touch_ = 0;

  // Executes the meta-data I/O plan: reads through the cache (sync disk
  // reads on miss), dirties written pages (journaling them), drops
  // invalidated entries. Returns kIoError on injected faults.
  FsStatus ProcessMetaIo(const MetaIo& io);

  // Reads `count` device blocks at `block` synchronously; advances the
  // clock to completion. `meta` tags the request as metadata for the fault
  // plumbing.
  FsStatus DemandRead(BlockId block, uint32_t count, bool meta = false);

  // Handles pages evicted by a cache insert: dirty ones are queued as async
  // writes.
  void HandleEvictions(const PageCache::EvictedBatch& evicted);

  // Pops up to `max_pages` dirty pages and queues them as async writes in
  // device-block order (so the elevator sees sequential runs).
  void WritebackDirty(size_t max_pages);

  // Sorts `batch` by device block and queues the pages as async writes,
  // reporting each home write to the journal (shared tail of
  // WritebackDirty, the per-file Fsync, and checkpoint writeback).
  void SubmitWritebackBatch(std::vector<PageCache::Evicted>& batch);
  void SubmitWritebackScratch() { SubmitWritebackBatch(writeback_scratch_); }

  // Inserts a page and processes evictions.
  void InsertPage(const PageKey& key, BlockId block, bool dirty);

  // Issues asynchronous readahead of up to `pages` pages after `index`.
  void IssueReadahead(OpenFile& file, uint64_t index, uint32_t pages);

  // Flushes dirty pages asynchronously if over the dirty limit.
  void MaybeWriteback();

  // Commits the journal if its periodic timer expired.
  void JournalTick();

  OpenFile* FileFor(int fd);

  VirtualClock* clock_;
  BlockIo* io_;
  FileSystem* fs_;
  FlashTier* flash_;
  VfsConfig config_;
  PageCache cache_;
  ReadaheadPolicy readahead_;
  std::vector<std::optional<OpenFile>> fd_table_;
  // Background writeback starts when dirty pages exceed a tenth of the cache.
  size_t dirty_limit_;
  VfsStats stats_;
  // Reused scratch buffers, the per-Vfs arena of the operation pipeline: one
  // MetaIo threaded through every FileSystem call (its vectors keep their
  // capacity across Reset, so a warmed-up Vfs never allocates on the hit
  // path) and the writeback batch.
  MetaIo meta_scratch_;
  std::vector<PageKey> run_keys_;  // one MetaRun's chain keys for PageCache::LookupRun
  std::vector<PageCache::Evicted> writeback_scratch_;
  // Separate from writeback_scratch_: checkpoint writeback can be forced
  // from inside Fsync, while writeback_scratch_ is mid-use.
  std::vector<PageCache::Evicted> checkpoint_scratch_;
};

}  // namespace fsbench

#endif  // SRC_SIM_VFS_H_
