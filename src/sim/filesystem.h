// Abstract simulated file system plus the shared namespace machinery.
//
// A FileSystem is pure bookkeeping: it maintains inodes, directories and the
// block allocator, and *describes* the I/O an operation needs via MetaIo —
// which cacheable pages must be read to resolve it and which are dirtied.
// The VFS is the single component that turns MetaIo into page-cache lookups,
// disk requests and virtual time. This split keeps per-FS differences where
// they belong: layout policy, mapping structure, directory cost model,
// journaling, readahead aggressiveness and CPU overhead.
#ifndef SRC_SIM_FILESYSTEM_H_
#define SRC_SIM_FILESYSTEM_H_

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/block_allocator.h"
#include "src/sim/clock.h"
#include "src/sim/directory.h"
#include "src/sim/eviction_policy.h"
#include "src/sim/inode.h"
#include "src/sim/inode_table.h"
#include "src/sim/journal.h"
#include "src/sim/readahead.h"
#include "src/sim/types.h"

namespace fsbench {

// A page range of one directory whose pages share one mapping chain
// (inode-table block, then indirect blocks), as an ext2 directory scan reads
// them. MetaIo::reads[begin, begin + chain) holds the chain once; the run
// stands for pages [first_page, first_page + pages) of inode `ino`, each read
// after the whole chain again. A page's block is read from `block_map` only
// when the run is expanded.
//
// `block_map` is the directory inode's map object, whose address is stable
// until the inode is erased (InodeTable); its data may move as the directory
// grows. Every page of the range is mapped when the run is planned, and
// between the file-system call that plans a run and the VFS charging it, no
// path unmaps or remaps a mapped page of the scanned directory or erases its
// inode. (Create may map a hole page, but holes split runs when they are
// planned, so no run covers one.)
struct MetaRun {
  uint32_t begin = 0;
  uint32_t chain = 0;
  uint32_t pages = 0;
  InodeId ino = kInvalidInode;
  uint64_t first_page = 0;
  const std::vector<BlockId>* block_map = nullptr;

  // Reads the run charges once expanded: (chain + 1) per page.
  uint64_t expanded_reads() const { return static_cast<uint64_t>(chain + 1) * pages; }

  // The read of page `i` of the range.
  MetaRef page(uint32_t i) const {
    const uint64_t index = first_page + i;
    const BlockId block = (*block_map)[index];
    assert(block != kInvalidBlock);
    return MetaRef{ino, index, block};
  }
};

// Pages [first_page, end_page) of inode `ino`, whose cached copies must be
// dropped from both cache tiers (unlink, shrinking truncate).
struct PageRange {
  InodeId ino = kInvalidInode;
  uint64_t first_page = 0;
  uint64_t end_page = 0;
};

// The I/O plan for one file-system operation. (MetaRef, the element type,
// lives in types.h so the transaction log can name it too.)
//
// The VFS threads one scratch MetaIo through every call and Resets it
// between operations. A vector keeps its capacity across clear(), so once
// each list has held its largest plan, the steady-state operation pipeline
// never heap-allocates here (tests/vfs_alloc_test.cc checks it).
struct MetaIo {
  std::vector<MetaRef> reads;          // must be resident or read from disk
  std::vector<MetaRun> runs;           // page ranges, ascending by chain position
  std::vector<MetaRef> writes;         // dirtied (journaled on ext3)
  std::vector<MetaRef> invalidations;  // cache entries to drop (unlink, truncate)
  std::vector<PageRange> drop_ranges;  // file page ranges to drop from the caches

  void AddMetaRead(BlockId block) { reads.push_back({kMetaInode, block, block}); }
  void AddMetaWrite(BlockId block) { writes.push_back({kMetaInode, block, block}); }

  // Visits the reads in charge order, each run expanded to chain, page,
  // chain, page, ... `fn(ref)` returns false to stop the walk, which then
  // returns false. `claim(run)` is offered each run first and returns true
  // when it has charged the run whole, which skips the expansion.
  //
  // Always inlined: otherwise GCC 12 at -O2 outlines the instantiation in
  // Vfs::ProcessMetaIo, the per-op hot path, and splits that function into
  // a .part clone.
  template <typename Fn, typename Claim>
  [[gnu::always_inline]] bool ForEachRead(Fn&& fn, Claim&& claim) const {
    uint32_t i = 0;
    for (uint32_t r = 0;; ++r) {
      // The reads before the next run, one by one.
      const uint32_t flat_end =
          r < runs.size() ? runs[r].begin : static_cast<uint32_t>(reads.size());
      for (; i < flat_end; ++i) {
        if (!fn(reads[i])) {
          return false;
        }
      }
      if (r == runs.size()) {
        return true;
      }
      const MetaRun& run = runs[r];
      const uint32_t chain_end = run.begin + run.chain;
      i = chain_end;
      if (claim(run)) {
        continue;
      }
      // Each page after the whole chain: reads[begin, chain_end), then page.
      for (uint32_t p = 0; p < run.pages; ++p) {
        for (uint32_t c = run.begin; c <= chain_end; ++c) {
          if (!fn(c < chain_end ? reads[c] : run.page(p))) {
            return false;
          }
        }
      }
    }
  }
  template <typename Fn>
  bool ForEachRead(Fn&& fn) const {
    return ForEachRead(fn, [](const MetaRun&) { return false; });
  }

  // Empties all five lists while keeping their capacity for reuse.
  void Reset() {
    reads.clear();
    runs.clear();
    writes.clear();
    invalidations.clear();
    drop_ranges.clear();
  }
};

// Geometry/layout parameters common to the simulated file systems.
struct FsLayoutParams {
  Bytes block_size = 4 * kKiB;
  uint64_t group_blocks = 32768;        // 128 MiB block groups
  uint64_t group_header_blocks = 256;   // superblock copy + bitmaps + inode table
  uint64_t inode_table_blocks = 128;    // within the header; 16 inodes per block
  uint64_t inodes_per_block = 16;
  uint64_t dir_entries_per_block = 64;  // ~64 B per dirent
};

enum class FsKind : uint8_t { kExt2, kExt3, kXfs };

const char* FsKindName(FsKind kind);

class FileSystem {
 public:
  // `clock` may be null (timestamps stay 0); used only for mtime/ctime.
  FileSystem(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock);

  // Rebinds the clock timestamps are drawn from. The multi-thread engine
  // points this at the acting thread's cursor around every step so mtime/
  // ctime reflect the thread that performed the operation.
  void BindClock(VirtualClock* clock) { clock_ = clock; }
  virtual ~FileSystem() = default;

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  virtual const char* name() const = 0;
  virtual FsKind kind() const = 0;

  // --- Namespace operations (shared implementation) ---
  //
  // Names are string_views so path components can be passed straight out of
  // the path being resolved — no per-component std::string copy.

  // Creates a file or directory under `parent`. Charges a full-directory
  // negative lookup plus dirent/bitmap/inode-table writes into `io`.
  FsResult<InodeId> Create(InodeId parent, std::string_view name, FileType type, MetaIo* io);

  // Removes a name; frees the inode and its blocks when the last link drops.
  FsStatus Unlink(InodeId parent, std::string_view name, MetaIo* io);

  // Resolves a name; charges the directory-scan cost model. (Defined inline
  // below: one call per path component, the hottest namespace entry point.)
  FsResult<InodeId> Lookup(InodeId parent, std::string_view name, MetaIo* io);

  FsResult<FileAttr> Stat(InodeId ino, MetaIo* io);  // inline below: per-op hot

  FsResult<std::vector<std::string>> ReadDir(InodeId dir, MetaIo* io);

  // Grows or shrinks the file size; shrinking frees whole pages past the new
  // end and drops every cached page past it.
  FsStatus SetSize(InodeId ino, Bytes new_size, MetaIo* io);

  // One past the last page of `inode` that a cache tier can hold: the
  // largest of the pages the size covers, the block map's length and the
  // end of the last extent. The last two cover mapped pages past EOF (an
  // append cut short by ENOSPC, xfs's preallocated chunks).
  uint64_t PageEnd(const Inode& inode) const;

  // --- Data mapping (per-FS) ---

  // Device block backing page `page_index` for reads. A missing mapping
  // within the file size is a hole: kOk with value kInvalidBlock.
  FsResult<BlockId> MapPage(InodeId ino, uint64_t page_index, MetaIo* io);

  // Ensures page `page_index` has a backing block (allocating one according
  // to the FS's layout policy) and returns it.
  FsResult<BlockId> AllocatePage(InodeId ino, uint64_t page_index, MetaIo* io);

  // --- Per-FS behaviour knobs ---

  // The journal needs the I/O scheduler, which exists only after the machine
  // is assembled; journaled file systems get one attached post-construction
  // (null for ext2). Ownership lives here so the VFS's per-op journal probe
  // is one member load, not a virtual call.
  void AttachJournal(std::unique_ptr<Journal> journal) { journal_ = std::move(journal); }
  Journal* journal() { return journal_.get(); }
  const Journal* journal() const { return journal_.get(); }
  // The blocks reserved at mkfs time for the on-disk log (empty for ext2).
  const Extent& journal_region() const { return journal_region_; }

  virtual ReadaheadConfig readahead_config() const = 0;
  // Extra per-operation CPU cost (journaling bookkeeping etc.).
  virtual Nanos per_op_cpu_overhead() const { return 0; }

  // --- Device-fault error semantics ---

  // Called by the VFS when a metadata read or a metadata/log write failed
  // permanently at the block layer (the retry policy was exhausted).
  // Journaled file systems react with errors=remount-ro: the journal is
  // aborted and the fs refuses further mutations with kReadOnly; ext2
  // soldiers on and merely counts the failure.
  void NoteMetaIoFailure();

  // Policy hook behind NoteMetaIoFailure. Default: remount read-only iff a
  // journal is attached (atomicity is gone once its writes are lost).
  virtual bool RemountRoOnWriteError() const { return journal_ != nullptr; }

  bool read_only() const { return read_only_; }
  bool journal_aborted() const { return journal_ != nullptr && journal_->aborted(); }
  uint64_t meta_io_failures() const { return meta_io_failures_; }

  // --- Introspection / fsck ---

  // fsck-lite: every mapped block allocated exactly once, dirents point at
  // live inodes, size/allocated accounting consistent. On failure `error`
  // describes the first violation.
  bool CheckConsistency(std::string* error) const;

  // Appends every block an offline metadata scan (fsck passes 1+2) must
  // read: group bitmaps and inode tables, each inode's mapping meta blocks
  // (indirect / extent nodes), and directory data blocks. Drives the
  // no-journal crash-recovery cost model (see src/sim/recovery.h).
  void AppendMetadataBlocks(std::vector<BlockId>* blocks) const;

  const Inode* FindInode(InodeId ino) const;
  const Directory* FindDir(InodeId ino) const;
  Bytes block_size() const { return params_.block_size; }
  uint32_t sectors_per_block() const { return static_cast<uint32_t>(params_.block_size / 512); }
  const FsLayoutParams& layout() const { return params_; }
  const BlockAllocator& allocator() const { return alloc_; }
  uint64_t live_inode_count() const { return inodes_.size(); }

 protected:
  // --- Layout/cost policy hooks ---

  // Inode-reference forms of the data-mapping API; the public InodeId
  // wrappers resolve the inode once and dispatch here, and internal callers
  // that already hold the inode (directory cost charging, dir-block growth)
  // skip the redundant table probe.
  virtual FsResult<BlockId> MapPageFor(const Inode& inode, uint64_t page_index, MetaIo* io) = 0;
  virtual FsResult<BlockId> AllocatePageFor(Inode& inode, uint64_t page_index, MetaIo* io) = 0;

  // Charges the meta reads a directory lookup needs to find `name`
  // (ext2/3: linear scan; xfs: btree path). `slot` is the entry's slot for a
  // positive lookup, std::nullopt for a negative one.
  virtual void ChargeDirLookup(const Inode& dir_inode, const Directory& dir,
                               std::string_view name, std::optional<uint64_t> slot,
                               MetaIo* io) = 0;

  // Placement group for a new inode.
  virtual uint64_t PickGroup(const Inode& parent, FileType type);

  // Frees every block of `inode` (data + mapping meta), recording bitmap
  // writes and page invalidations.
  virtual void FreeAllBlocks(Inode& inode, MetaIo* io) = 0;

  // Frees pages >= first_page (truncate support).
  virtual void FreePagesFrom(Inode& inode, uint64_t first_page, MetaIo* io) = 0;

  // Appends every device block owned by `inode` (data + meta) for fsck.
  virtual void AppendOwnedBlocks(const Inode& inode, std::vector<BlockId>* blocks) const = 0;

  // --- Shared helpers for subclasses ---

  Inode* MutableInode(InodeId ino);
  Nanos Now() const;

  BlockId GroupStart(uint64_t group) const { return group * params_.group_blocks; }
  BlockId BlockBitmapBlock(uint64_t group) const { return GroupStart(group) + 1; }
  BlockId InodeBitmapBlock(uint64_t group) const { return GroupStart(group) + 2; }
  // First inode-table block (after superblock copy + the two bitmaps).
  BlockId InodeTableStart(uint64_t group) const { return GroupStart(group) + 3; }
  // First block usable for data in `group`.
  BlockId GroupDataStart(uint64_t group) const {
    return GroupStart(group) + params_.group_header_blocks;
  }

  // Ensures the directory has capacity for `slot`; allocates dir data pages
  // via AllocatePage as needed. Returns the dir data block of the slot.
  FsResult<BlockId> EnsureDirSlotBlock(Inode& dir_inode, uint64_t slot, MetaIo* io);

  // Allocates a fresh inode in a group chosen by PickGroup, charging the
  // inode bitmap + table writes. Returns null on inode exhaustion.
  Inode* AllocateInode(const Inode& parent, FileType type, MetaIo* io);

  // Reserves `blocks` blocks for the on-disk log in group 0's data area,
  // right after the header (the mkfs-time reservation ext3 and xfs make).
  void ReserveJournalRegion(uint64_t blocks);

  FsLayoutParams params_;
  VirtualClock* clock_;
  BlockAllocator alloc_;
  // Directory contents live inside their Inode (Inode::dir); there is no
  // separate directory table to probe.
  InodeTable inodes_;
  std::vector<uint64_t> group_inode_counts_;
  std::vector<uint64_t> group_local_inodes_;  // next inode-table slot per group
  InodeId next_ino_ = kRootInode;
  uint64_t next_dir_group_ = 0;
  uint64_t reserved_blocks_ = 0;  // mkfs-reserved (headers, journal) for fsck accounting
  Extent journal_region_;
  std::unique_ptr<Journal> journal_;
  bool read_only_ = false;         // entered on meta failure when the policy says so
  uint64_t meta_io_failures_ = 0;  // permanent metadata/log I/O failures observed

 private:
  void InitGroups();
};

inline FsResult<InodeId> FileSystem::Lookup(InodeId parent, std::string_view name, MetaIo* io) {
  Inode* parent_inode = inodes_.Find(parent);
  if (parent_inode == nullptr) {
    return FsResult<InodeId>::Error(FsStatus::kNotFound);
  }
  if (parent_inode->type != FileType::kDirectory) {
    return FsResult<InodeId>::Error(FsStatus::kNotDir);
  }
  const Directory* dir = parent_inode->dir.get();
  const std::optional<Directory::Entry> entry = dir->Find(name);
  if (!entry.has_value()) {
    ChargeDirLookup(*parent_inode, *dir, name, std::nullopt, io);
    return FsResult<InodeId>::Error(FsStatus::kNotFound);
  }
  ChargeDirLookup(*parent_inode, *dir, name, entry->slot, io);
  return FsResult<InodeId>::Ok(entry->ino);
}

inline FsResult<FileAttr> FileSystem::Stat(InodeId ino, MetaIo* io) {
  const Inode* inode = inodes_.Find(ino);
  if (inode == nullptr) {
    return FsResult<FileAttr>::Error(FsStatus::kNotFound);
  }
  io->AddMetaRead(inode->itable_block);
  FileAttr attr;
  attr.ino = inode->ino;
  attr.type = inode->type;
  attr.size = inode->size;
  attr.allocated_blocks = inode->allocated_blocks;
  attr.link_count = inode->link_count;
  attr.mtime = inode->mtime;
  attr.ctime = inode->ctime;
  return FsResult<FileAttr>::Ok(attr);
}

}  // namespace fsbench

#endif  // SRC_SIM_FILESYSTEM_H_
