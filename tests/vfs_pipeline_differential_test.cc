// Differential trace test for the allocation-free VFS operation pipeline.
//
// ReferenceVfs below is the pre-refactor pipeline's mechanics, kept verbatim
// as an oracle (the same role tests/reference_policies.h plays for the slab
// page cache): a fresh MetaIo per FileSystem call, ProcessMetaIo after every
// path component, std::string copies of every component and leaf, a fresh
// writeback vector per flush. The production Vfs replaces all of that with
// reusable scratch (one reused MetaIo, accumulated walk processing,
// string_view plumbing, the transparent directory index) — and this test
// replays randomized namespace/data traces through both, asserting that op
// results, VFS and disk stats counters, and the virtual clock stay
// *identical after every single operation*.
//
// The oracle deliberately shares the pipeline's four acknowledged semantic
// fixes, each covered by its own targeted tests in vfs_test.cc:
//   - Open(create) resolves parent + leaf in one walk (the old double full
//     resolution re-charged cached intermediate lookups),
//   - readahead windows anchor at the page the decision was made for (the
//     old code issued them from the last page of a coalesced demand batch),
//   - Fsync writes back only the file's own dirty pages (the old full-dirty
//     flush was stricter than POSIX),
//   - a write to a page cached as a hole allocates its block (the old hit
//     path only marked the page dirty, so it stayed a hole on disk).
// Everything else — every charge, every meta-page touch, every eviction —
// must match byte for byte. The oracle reads a MetaIo through
// MetaIo::ForEachRead, the one expansion of its MetaRuns, and charges every
// read with its own lookup; the production Vfs charges a resident run with
// one PageCache::LookupRun call.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/sim/ext2fs.h"
#include "src/sim/ext3fs.h"
#include "src/sim/vfs.h"
#include "src/sim/xfsfs.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

constexpr Bytes kDevice = 2 * kGiB;

// --- the pre-refactor pipeline, retained as an oracle -----------------------

// The pipeline's writeback pass size and demand-read cap (its dirty limit is
// a tenth of the cache).
constexpr size_t kWritebackBatchPages = 256;
constexpr uint32_t kMaxDemandBatch = 32;

class ReferenceVfs {
 public:
  ReferenceVfs(VirtualClock* clock, IoScheduler* scheduler, FileSystem* fs,
               const VfsConfig& config)
      : clock_(clock),
        scheduler_(scheduler),
        fs_(fs),
        config_(config),
        cache_(config.cache_capacity_pages, config.eviction),
        readahead_(config.readahead_override.value_or(fs->readahead_config())) {
    dirty_limit_ = std::max<size_t>(1, cache_.capacity() / 10);
  }

  FsResult<int> Open(const std::string& path, bool create = false) {
    ++stats_.opens;
    ChargeCpu(config_.syscall_overhead);
    InodeId parent = kInvalidInode;
    std::string leaf;
    FsResult<InodeId> ino = ResolvePath(path, Mode::kOpen, &parent, &leaf);
    if (!ino.ok() && create && ino.status == FsStatus::kNotFound && parent != kInvalidInode) {
      MetaIo io;
      ino = fs_->Create(parent, leaf, FileType::kRegular, &io);
      const FsStatus meta = ProcessMetaIo(io);
      if (meta != FsStatus::kOk) {
        return FsResult<int>::Error(meta);
      }
      if (!ino.ok()) {
        return FsResult<int>::Error(ino.status);
      }
      ++stats_.creates;
      JournalTick();
    }
    if (!ino.ok()) {
      return FsResult<int>::Error(ino.status);
    }
    for (size_t fd = 0; fd < fd_table_.size(); ++fd) {
      if (!fd_table_[fd].has_value()) {
        fd_table_[fd] = OpenFile{ino.value, {}};
        return FsResult<int>::Ok(static_cast<int>(fd));
      }
    }
    fd_table_.push_back(OpenFile{ino.value, {}});
    return FsResult<int>::Ok(static_cast<int>(fd_table_.size() - 1));
  }

  FsStatus Close(int fd) {
    if (FileFor(fd) == nullptr) {
      return FsStatus::kBadHandle;
    }
    ChargeCpu(config_.syscall_overhead);
    fd_table_[fd].reset();
    return FsStatus::kOk;
  }

  FsResult<Bytes> Read(int fd, Bytes offset, Bytes length) {
    OpenFile* file = FileFor(fd);
    if (file == nullptr) {
      return FsResult<Bytes>::Error(FsStatus::kBadHandle);
    }
    ++stats_.reads;
    ChargeCpu(config_.syscall_overhead + fs_->per_op_cpu_overhead());

    MetaIo size_io;
    const FsResult<FileAttr> attr = fs_->Stat(file->ino, &size_io);
    if (!attr.ok()) {
      return FsResult<Bytes>::Error(attr.status);
    }
    if (ProcessMetaIo(size_io) != FsStatus::kOk) {
      return FsResult<Bytes>::Error(FsStatus::kIoError);
    }
    if (offset >= attr.value.size) {
      return FsResult<Bytes>::Ok(0);
    }
    length = std::min<Bytes>(length, attr.value.size - offset);
    if (length == 0) {
      return FsResult<Bytes>::Ok(0);
    }

    const Bytes page_size = config_.page_size;
    const uint64_t first_page = offset / page_size;
    const uint64_t last_page = (offset + length - 1) / page_size;

    for (uint64_t page = first_page; page <= last_page; ++page) {
      const PageKey key{file->ino, page};
      const uint64_t ra_anchor = page;
      const uint32_t ra_pages = readahead_.OnAccess(file->readahead, page);
      if (cache_.Lookup(key)) {
        ++stats_.data_page_hits;
        ChargeCpu(config_.page_copy_cost);
        continue;
      }
      ++stats_.data_page_misses;
      MetaIo io;
      const FsResult<BlockId> mapping = fs_->MapPage(file->ino, page, &io);
      if (!mapping.ok()) {
        return FsResult<Bytes>::Error(mapping.status);
      }
      const FsStatus meta = ProcessMetaIo(io);
      if (meta != FsStatus::kOk) {
        return FsResult<Bytes>::Error(meta);
      }
      if (mapping.value == kInvalidBlock) {
        InsertPage(key, kInvalidBlock, /*dirty=*/false);
        ChargeCpu(config_.page_copy_cost);
        continue;
      }
      uint32_t batch = 1;
      while (batch < kMaxDemandBatch && page + batch <= last_page) {
        const PageKey next_key{file->ino, page + batch};
        if (cache_.Contains(next_key)) {
          break;
        }
        MetaIo next_io;
        const FsResult<BlockId> next_map = fs_->MapPage(file->ino, page + batch, &next_io);
        if (!next_map.ok() || next_map.value != mapping.value + batch) {
          break;
        }
        if (ProcessMetaIo(next_io) != FsStatus::kOk) {
          break;
        }
        ++batch;
      }
      const FsStatus read_status = DemandRead(mapping.value, batch);
      if (read_status != FsStatus::kOk) {
        return FsResult<Bytes>::Error(read_status);
      }
      for (uint32_t i = 0; i < batch; ++i) {
        InsertPage(PageKey{file->ino, page + i}, mapping.value + i, /*dirty=*/false);
        ChargeCpu(config_.page_copy_cost);
      }
      if (batch > 1) {
        stats_.data_page_misses += batch - 1;
        page += batch - 1;
      }
      if (ra_pages > 0) {
        IssueReadahead(*file, ra_anchor, ra_pages);
      }
    }

    stats_.bytes_read += length;
    JournalTick();
    return FsResult<Bytes>::Ok(length);
  }

  FsResult<Bytes> Write(int fd, Bytes offset, Bytes length) {
    OpenFile* file = FileFor(fd);
    if (file == nullptr) {
      return FsResult<Bytes>::Error(FsStatus::kBadHandle);
    }
    if (length == 0) {
      return FsResult<Bytes>::Ok(0);
    }
    ++stats_.writes;
    ChargeCpu(config_.syscall_overhead + fs_->per_op_cpu_overhead());

    MetaIo size_io;
    const FsResult<FileAttr> attr = fs_->Stat(file->ino, &size_io);
    if (!attr.ok()) {
      return FsResult<Bytes>::Error(attr.status);
    }
    if (ProcessMetaIo(size_io) != FsStatus::kOk) {
      return FsResult<Bytes>::Error(FsStatus::kIoError);
    }
    const Bytes old_size = attr.value.size;

    const Bytes page_size = config_.page_size;
    const uint64_t first_page = offset / page_size;
    const uint64_t last_page = (offset + length - 1) / page_size;
    Journal* journal = fs_->journal();

    for (uint64_t page = first_page; page <= last_page; ++page) {
      const PageKey key{file->ino, page};
      const Bytes page_start = page * page_size;
      const bool partial = (page == first_page && offset > page_start) ||
                           (page == last_page && offset + length < page_start + page_size);
      MetaIo io;
      if (cache_.Lookup(key)) {
        ++stats_.data_page_hits;
        if (cache_.MarkDirty(key)) {
          ChargeCpu(config_.page_copy_cost);
          continue;
        }
        // A page cached as a hole gets its block like a missing page.
      } else {
        ++stats_.data_page_misses;
        if (partial && page_start < old_size) {
          const FsResult<BlockId> mapping = fs_->MapPage(file->ino, page, &io);
          if (!mapping.ok()) {
            return FsResult<Bytes>::Error(mapping.status);
          }
          if (ProcessMetaIo(io) != FsStatus::kOk) {
            return FsResult<Bytes>::Error(FsStatus::kIoError);
          }
          if (mapping.value != kInvalidBlock) {
            const FsStatus read_status = DemandRead(mapping.value, 1);
            if (read_status != FsStatus::kOk) {
              return FsResult<Bytes>::Error(read_status);
            }
          }
          io = MetaIo{};
        }
      }
      const FsResult<BlockId> block = fs_->AllocatePage(file->ino, page, &io);
      if (!block.ok()) {
        return FsResult<Bytes>::Error(block.status);
      }
      if (ProcessMetaIo(io) != FsStatus::kOk) {
        return FsResult<Bytes>::Error(FsStatus::kIoError);
      }
      InsertPage(key, block.value, /*dirty=*/true);
      ChargeCpu(config_.page_copy_cost);
      if (journal != nullptr) {
        journal->LogData(MetaRef{file->ino, page, block.value});
      }
    }

    if (offset + length > old_size) {
      MetaIo io;
      const FsStatus status = fs_->SetSize(file->ino, offset + length, &io);
      if (status != FsStatus::kOk) {
        return FsResult<Bytes>::Error(status);
      }
      if (ProcessMetaIo(io) != FsStatus::kOk) {
        return FsResult<Bytes>::Error(FsStatus::kIoError);
      }
    }

    stats_.bytes_written += length;
    MaybeWriteback();
    JournalTick();
    return FsResult<Bytes>::Ok(length);
  }

  FsStatus CreateFile(const std::string& path) {
    ChargeCpu(config_.syscall_overhead + fs_->per_op_cpu_overhead());
    InodeId parent = kInvalidInode;
    std::string leaf;
    const FsResult<InodeId> parent_result = ResolvePath(path, Mode::kParent, &parent, &leaf);
    if (!parent_result.ok()) {
      return parent_result.status;
    }
    MetaIo io;
    const FsResult<InodeId> created = fs_->Create(parent, leaf, FileType::kRegular, &io);
    const FsStatus meta = ProcessMetaIo(io);
    if (meta != FsStatus::kOk) {
      return meta;
    }
    if (!created.ok()) {
      return created.status;
    }
    ++stats_.creates;
    MaybeWriteback();
    JournalTick();
    return FsStatus::kOk;
  }

  FsStatus Mkdir(const std::string& path) {
    ChargeCpu(config_.syscall_overhead + fs_->per_op_cpu_overhead());
    InodeId parent = kInvalidInode;
    std::string leaf;
    const FsResult<InodeId> parent_result = ResolvePath(path, Mode::kParent, &parent, &leaf);
    if (!parent_result.ok()) {
      return parent_result.status;
    }
    MetaIo io;
    const FsResult<InodeId> created = fs_->Create(parent, leaf, FileType::kDirectory, &io);
    const FsStatus meta = ProcessMetaIo(io);
    if (meta != FsStatus::kOk) {
      return meta;
    }
    JournalTick();
    return created.ok() ? FsStatus::kOk : created.status;
  }

  FsStatus Unlink(const std::string& path) {
    ChargeCpu(config_.syscall_overhead + fs_->per_op_cpu_overhead());
    InodeId parent = kInvalidInode;
    std::string leaf;
    const FsResult<InodeId> parent_result = ResolvePath(path, Mode::kParent, &parent, &leaf);
    if (!parent_result.ok()) {
      return parent_result.status;
    }
    MetaIo io;
    const FsStatus status = fs_->Unlink(parent, leaf, &io);
    const FsStatus meta = ProcessMetaIo(io);
    if (status != FsStatus::kOk) {
      return status;
    }
    if (meta != FsStatus::kOk) {
      return meta;
    }
    ++stats_.unlinks;
    MaybeWriteback();
    JournalTick();
    return FsStatus::kOk;
  }

  FsResult<FileAttr> Stat(const std::string& path) {
    ++stats_.stats_calls;
    ChargeCpu(config_.syscall_overhead + fs_->per_op_cpu_overhead());
    const FsResult<InodeId> ino = ResolvePath(path, Mode::kFull, nullptr, nullptr);
    if (!ino.ok()) {
      return FsResult<FileAttr>::Error(ino.status);
    }
    MetaIo io;
    const FsResult<FileAttr> attr = fs_->Stat(ino.value, &io);
    const FsStatus meta = ProcessMetaIo(io);
    if (meta != FsStatus::kOk) {
      return FsResult<FileAttr>::Error(meta);
    }
    return attr;
  }

  FsResult<std::vector<std::string>> ReadDir(const std::string& path) {
    ChargeCpu(config_.syscall_overhead + fs_->per_op_cpu_overhead());
    const FsResult<InodeId> ino = ResolvePath(path, Mode::kFull, nullptr, nullptr);
    if (!ino.ok()) {
      return FsResult<std::vector<std::string>>::Error(ino.status);
    }
    MetaIo io;
    FsResult<std::vector<std::string>> entries = fs_->ReadDir(ino.value, &io);
    const FsStatus meta = ProcessMetaIo(io);
    if (meta != FsStatus::kOk) {
      return FsResult<std::vector<std::string>>::Error(meta);
    }
    return entries;
  }

  FsStatus Truncate(const std::string& path, Bytes new_size) {
    ChargeCpu(config_.syscall_overhead + fs_->per_op_cpu_overhead());
    const FsResult<InodeId> ino = ResolvePath(path, Mode::kFull, nullptr, nullptr);
    if (!ino.ok()) {
      return ino.status;
    }
    MetaIo io;
    const FsStatus status = fs_->SetSize(ino.value, new_size, &io);
    const FsStatus meta = ProcessMetaIo(io);
    if (status != FsStatus::kOk) {
      return status;
    }
    JournalTick();
    return meta;
  }

  FsStatus Fsync(int fd) {
    OpenFile* file = FileFor(fd);
    if (file == nullptr) {
      return FsStatus::kBadHandle;
    }
    ++stats_.fsyncs;
    ChargeCpu(config_.syscall_overhead);
    std::vector<PageCache::Evicted> batch;
    const Inode* inode = fs_->FindInode(file->ino);
    cache_.TakeDirtyFile(file->ino, inode != nullptr ? fs_->PageEnd(*inode) : 0, &batch);
    if (inode != nullptr) {
      cache_.TakeDirtyPage(PageKey{kMetaInode, inode->itable_block}, &batch);
      for (const BlockId block : inode->indirect_blocks) {
        if (block != kInvalidBlock) {
          cache_.TakeDirtyPage(PageKey{kMetaInode, block}, &batch);
        }
      }
      for (const BlockId block : inode->extent_meta_blocks) {
        cache_.TakeDirtyPage(PageKey{kMetaInode, block}, &batch);
      }
    }
    SubmitWriteback(batch);
    clock_->AdvanceTo(scheduler_->Drain(clock_->now()));
    if (Journal* journal = fs_->journal(); journal != nullptr) {
      clock_->AdvanceTo(journal->CommitSync());
    }
    return FsStatus::kOk;
  }

  void SyncAll() {
    std::vector<PageCache::Evicted> batch;
    cache_.TakeDirty(cache_.capacity(), &batch);
    SubmitWriteback(batch);
    clock_->AdvanceTo(scheduler_->Drain(clock_->now()));
    if (Journal* journal = fs_->journal(); journal != nullptr) {
      clock_->AdvanceTo(journal->CommitSync());
    }
  }

  FsStatus MakeFile(const std::string& path, Bytes size) {
    std::vector<std::string> parts = Split(path);
    if (parts.empty()) {
      return FsStatus::kInvalid;
    }
    InodeId current = kRootInode;
    for (size_t i = 0; i + 1 < parts.size(); ++i) {
      MetaIo io;
      const FsResult<InodeId> next = fs_->Lookup(current, parts[i], &io);
      if (!next.ok()) {
        return next.status;
      }
      current = next.value;
    }
    MetaIo io;
    const FsResult<InodeId> created =
        fs_->Create(current, parts.back(), FileType::kRegular, &io);
    if (!created.ok()) {
      return created.status;
    }
    const uint64_t pages = CeilDiv(size, config_.page_size);
    for (uint64_t page = 0; page < pages; ++page) {
      MetaIo alloc_io;
      const FsResult<BlockId> block = fs_->AllocatePage(created.value, page, &alloc_io);
      if (!block.ok()) {
        return block.status;
      }
    }
    MetaIo size_io;
    return fs_->SetSize(created.value, size, &size_io);
  }

  FsStatus PrewarmFile(const std::string& path) {
    std::vector<std::string> parts = Split(path);
    InodeId current = kRootInode;
    for (const std::string& part : parts) {
      MetaIo io;
      const FsResult<InodeId> next = fs_->Lookup(current, part, &io);
      if (!next.ok()) {
        return next.status;
      }
      current = next.value;
    }
    MetaIo stat_io;
    const FsResult<FileAttr> attr = fs_->Stat(current, &stat_io);
    if (!attr.ok()) {
      return attr.status;
    }
    const uint64_t pages = CeilDiv(attr.value.size, config_.page_size);
    for (uint64_t page = 0; page < pages; ++page) {
      MetaIo io;
      const FsResult<BlockId> mapping = fs_->MapPage(current, page, &io);
      if (!mapping.ok()) {
        return mapping.status;
      }
      for (const MetaRef& ref : io.reads) {
        cache_.Insert(PageKey{ref.ino, ref.index}, ref.block, /*dirty=*/false, nullptr);
      }
      cache_.Insert(PageKey{current, page}, mapping.value, /*dirty=*/false, nullptr);
    }
    return FsStatus::kOk;
  }

  void DropCaches() { cache_.Clear(); }

  PageCache& cache() { return cache_; }
  const VfsStats& stats() const { return stats_; }

 private:
  struct OpenFile {
    InodeId ino = kInvalidInode;
    ReadaheadState readahead;
  };
  enum class Mode { kFull, kParent, kOpen };

  static std::vector<std::string> Split(const std::string& path) {
    std::vector<std::string> parts;
    size_t pos = 0;
    while (pos < path.size()) {
      while (pos < path.size() && path[pos] == '/') {
        ++pos;
      }
      const size_t start = pos;
      while (pos < path.size() && path[pos] != '/') {
        ++pos;
      }
      if (pos > start) {
        parts.push_back(path.substr(start, pos - start));
      }
    }
    return parts;
  }

  void ChargeCpu(Nanos cost) {
    clock_->Advance(static_cast<Nanos>(static_cast<double>(cost) * config_.cpu_cost_multiplier));
  }

  FsStatus DemandRead(BlockId block, uint32_t count) {
    ++stats_.demand_requests;
    const IoRequest req{IoKind::kRead, block * fs_->sectors_per_block(),
                        count * fs_->sectors_per_block()};
    const std::optional<Nanos> completion = scheduler_->SubmitSync(req, clock_->now());
    if (!completion.has_value()) {
      ++stats_.io_errors;
      return FsStatus::kIoError;
    }
    clock_->AdvanceTo(*completion);
    return FsStatus::kOk;
  }

  void HandleEvictions(const PageCache::EvictedBatch& evicted) {
    Journal* journal = fs_->journal();
    for (const PageCache::Evicted& page : evicted) {
      if (page.dirty && page.block != kInvalidBlock) {
        scheduler_->SubmitAsync(IoRequest{IoKind::kWrite, page.block * fs_->sectors_per_block(),
                                          fs_->sectors_per_block()},
                                clock_->now());
        ++stats_.writeback_pages;
        if (journal != nullptr) {
          journal->NoteHomeWrite(page.block);
        }
      }
    }
  }

  void InsertPage(const PageKey& key, BlockId block, bool dirty) {
    PageCache::EvictedBatch evicted;
    cache_.Insert(key, block, dirty, &evicted);
    if (!evicted.empty()) {
      HandleEvictions(evicted);
    }
  }

  FsStatus ProcessMetaIo(const MetaIo& io) {
    // The reads in charge order, every MetaRun expanded: the oracle charges
    // each read one lookup at a time.
    FsStatus status = FsStatus::kOk;
    io.ForEachRead([&](const MetaRef& ref) {
      ChargeCpu(config_.meta_touch_cost);
      const PageKey key{ref.ino, ref.index};
      if (!cache_.Lookup(key)) {
        status = DemandRead(ref.block, 1);
        if (status != FsStatus::kOk) {
          return false;
        }
        InsertPage(key, ref.block, /*dirty=*/false);
      }
      return true;
    });
    if (status != FsStatus::kOk) {
      return status;
    }
    Journal* journal = fs_->journal();
    for (const MetaRef& ref : io.writes) {
      ChargeCpu(config_.meta_touch_cost);
      InsertPage(PageKey{ref.ino, ref.index}, ref.block, /*dirty=*/true);
      if (journal != nullptr) {
        journal->LogMetadata(ref);
      }
    }
    for (const MetaRef& ref : io.invalidations) {
      cache_.Remove(PageKey{ref.ino, ref.index});
      if (journal != nullptr) {
        journal->NoteHomeWrite(ref.block);
      }
    }
    for (const PageRange& range : io.drop_ranges) {
      cache_.RemoveRange(range.ino, range.first_page, range.end_page);
    }
    return FsStatus::kOk;
  }

  void SubmitWriteback(std::vector<PageCache::Evicted>& batch) {
    std::sort(batch.begin(), batch.end(),
              [](const PageCache::Evicted& a, const PageCache::Evicted& b) {
                return a.block < b.block;
              });
    Journal* journal = fs_->journal();
    for (const PageCache::Evicted& page : batch) {
      if (page.block == kInvalidBlock) {
        continue;
      }
      scheduler_->SubmitAsync(IoRequest{IoKind::kWrite, page.block * fs_->sectors_per_block(),
                                        fs_->sectors_per_block()},
                              clock_->now());
      ++stats_.writeback_pages;
      if (journal != nullptr) {
        journal->NoteHomeWrite(page.block);
      }
    }
  }

  void MaybeWriteback() {
    if (cache_.dirty_count() <= dirty_limit_) {
      return;
    }
    std::vector<PageCache::Evicted> batch;
    cache_.TakeDirty(kWritebackBatchPages, &batch);
    SubmitWriteback(batch);
  }

  void JournalTick() {
    if (Journal* journal = fs_->journal(); journal != nullptr) {
      journal->MaybePeriodicCommit();
    }
  }

  void IssueReadahead(OpenFile& file, uint64_t index, uint32_t pages) {
    BlockId run_start = kInvalidBlock;
    uint32_t run_len = 0;
    auto flush_run = [&] {
      if (run_len > 0) {
        scheduler_->SubmitAsync(IoRequest{IoKind::kRead, run_start * fs_->sectors_per_block(),
                                          run_len * fs_->sectors_per_block()},
                                clock_->now());
        run_start = kInvalidBlock;
        run_len = 0;
      }
    };
    for (uint64_t j = index + 1; j <= index + pages; ++j) {
      const PageKey key{file.ino, j};
      if (cache_.Contains(key)) {
        continue;
      }
      MetaIo io;
      const FsResult<BlockId> mapping = fs_->MapPage(file.ino, j, &io);
      if (ProcessMetaIo(io) != FsStatus::kOk || !mapping.ok() ||
          mapping.value == kInvalidBlock) {
        break;
      }
      if (run_len > 0 && mapping.value == run_start + run_len) {
        ++run_len;
      } else {
        flush_run();
        run_start = mapping.value;
        run_len = 1;
      }
      InsertPage(key, mapping.value, /*dirty=*/false);
      ++stats_.readahead_pages;
    }
    flush_run();
  }

  // One ProcessMetaIo per component, fresh MetaIo per call — the mechanics
  // under test replace exactly this.
  FsResult<InodeId> ResolvePath(const std::string& path, Mode mode, InodeId* parent_out,
                                std::string* leaf_out) {
    if (parent_out != nullptr) {
      *parent_out = kInvalidInode;
    }
    const std::vector<std::string> parts = Split(path);
    if (parts.empty()) {
      if (mode == Mode::kParent) {
        return FsResult<InodeId>::Error(FsStatus::kInvalid);
      }
      return FsResult<InodeId>::Ok(kRootInode);
    }
    InodeId current = kRootInode;
    for (size_t i = 0; i < parts.size(); ++i) {
      const bool is_leaf = i + 1 == parts.size();
      if (is_leaf) {
        if (parent_out != nullptr) {
          *parent_out = current;
          *leaf_out = parts[i];
        }
        if (mode == Mode::kParent) {
          return FsResult<InodeId>::Ok(current);
        }
      }
      MetaIo io;
      const FsResult<InodeId> next = fs_->Lookup(current, parts[i], &io);
      const FsStatus meta = ProcessMetaIo(io);
      if (meta != FsStatus::kOk) {
        return FsResult<InodeId>::Error(meta);
      }
      if (!next.ok()) {
        return next;
      }
      current = next.value;
      if (is_leaf) {
        return FsResult<InodeId>::Ok(current);
      }
    }
    return FsResult<InodeId>::Ok(current);
  }

  OpenFile* FileFor(int fd) {
    if (fd < 0 || static_cast<size_t>(fd) >= fd_table_.size() || !fd_table_[fd].has_value()) {
      return nullptr;
    }
    return &*fd_table_[fd];
  }

  VirtualClock* clock_;
  IoScheduler* scheduler_;
  FileSystem* fs_;
  VfsConfig config_;
  PageCache cache_;
  ReadaheadPolicy readahead_;
  std::vector<std::optional<OpenFile>> fd_table_;
  size_t dirty_limit_;
  VfsStats stats_;
};

// --- twin stacks ------------------------------------------------------------

struct Stack {
  VirtualClock clock;
  DiskModel disk;
  IoScheduler scheduler;
  std::unique_ptr<FileSystem> fs;

  Stack(FsKind kind, uint64_t disk_seed) : disk(DiskParams{}, disk_seed), scheduler(&disk) {
    switch (kind) {
      case FsKind::kExt2:
        fs = std::make_unique<Ext2Fs>(kDevice, FsLayoutParams{}, &clock);
        break;
      case FsKind::kExt3: {
        auto ext3 = std::make_unique<Ext3Fs>(kDevice, FsLayoutParams{}, &clock);
        ext3->AttachJournal(std::make_unique<JbdJournal>(&scheduler, &clock,
                                                         ext3->journal_region(),
                                                         ext3->sectors_per_block(),
                                                         JournalMode::kOrdered));
        fs = std::move(ext3);
        break;
      }
      case FsKind::kXfs:
        fs = std::make_unique<XfsFs>(kDevice, FsLayoutParams{}, &clock);
        break;
    }
  }
};

class PipelineDifferential
    : public ::testing::TestWithParam<std::tuple<FsKind, EvictionPolicyKind, uint64_t>> {};

TEST_P(PipelineDifferential, RandomTraceMatchesReferencePipeline) {
  const auto [kind, policy, seed] = GetParam();

  // Tiny cache so the trace exercises eviction, writeback and re-reads.
  VfsConfig config;
  config.cache_capacity_pages = 128;
  config.eviction = policy;

  Stack prod_stack(kind, /*disk_seed=*/seed);
  Stack ref_stack(kind, /*disk_seed=*/seed);
  Vfs prod(&prod_stack.clock, &prod_stack.scheduler, prod_stack.fs.get(), config);
  ReferenceVfs ref(&ref_stack.clock, &ref_stack.scheduler, ref_stack.fs.get(), config);

  // Namespace pool: a few directories, nested once, plus ENOENT probes.
  const std::vector<std::string> dirs = {"/d0", "/d1", "/d2", "/d0/sub"};
  for (const std::string& dir : dirs) {
    ASSERT_EQ(prod.Mkdir(dir), ref.Mkdir(dir));
  }
  std::vector<std::string> pool;
  for (int i = 0; i < 24; ++i) {
    pool.push_back(dirs[i % dirs.size()] + "/f" + std::to_string(i));
  }
  pool.push_back("/top");

  std::vector<int> fds;  // both sides return identical fd numbers
  Rng rng(seed * 7919 + 17);

  for (uint64_t step = 0; step < 4000; ++step) {
    const std::string& path = pool[rng.NextBelow(pool.size())];
    const uint64_t op = rng.NextBelow(100);
    if (op < 18) {
      const bool create = rng.NextBelow(2) == 0;
      const FsResult<int> a = prod.Open(path, create);
      const FsResult<int> b = ref.Open(path, create);
      ASSERT_EQ(a.status, b.status) << "step " << step << " open " << path;
      ASSERT_EQ(a.value, b.value) << "step " << step;
      if (a.ok()) {
        fds.push_back(a.value);
      }
    } else if (op < 36 && !fds.empty()) {
      const int fd = fds[rng.NextBelow(fds.size())];
      const Bytes offset = rng.NextBelow(40) * 1024;
      const Bytes length = (1 + rng.NextBelow(24)) * 1024;
      const FsResult<Bytes> a = prod.Read(fd, offset, length);
      const FsResult<Bytes> b = ref.Read(fd, offset, length);
      ASSERT_EQ(a.status, b.status) << "step " << step;
      ASSERT_EQ(a.value, b.value) << "step " << step;
    } else if (op < 54 && !fds.empty()) {
      const int fd = fds[rng.NextBelow(fds.size())];
      const Bytes offset = rng.NextBelow(40) * 1024;
      const Bytes length = (1 + rng.NextBelow(24)) * 1024;
      const FsResult<Bytes> a = prod.Write(fd, offset, length);
      const FsResult<Bytes> b = ref.Write(fd, offset, length);
      ASSERT_EQ(a.status, b.status) << "step " << step;
      ASSERT_EQ(a.value, b.value) << "step " << step;
    } else if (op < 62) {
      const FsResult<FileAttr> a = prod.Stat(path);
      const FsResult<FileAttr> b = ref.Stat(path);
      ASSERT_EQ(a.status, b.status) << "step " << step << " stat " << path;
      if (a.ok()) {
        ASSERT_EQ(a.value.ino, b.value.ino);
        ASSERT_EQ(a.value.size, b.value.size);
        ASSERT_EQ(a.value.mtime, b.value.mtime);
      }
    } else if (op < 68) {
      ASSERT_EQ(prod.CreateFile(path), ref.CreateFile(path)) << "step " << step;
    } else if (op < 76) {
      ASSERT_EQ(prod.Unlink(path), ref.Unlink(path)) << "step " << step << " unlink " << path;
    } else if (op < 80) {
      const Bytes new_size = rng.NextBelow(30) * 1024;
      ASSERT_EQ(prod.Truncate(path, new_size), ref.Truncate(path, new_size)) << "step " << step;
    } else if (op < 84) {
      const std::string& dir = dirs[rng.NextBelow(dirs.size())];
      const auto a = prod.ReadDir(dir);
      const auto b = ref.ReadDir(dir);
      ASSERT_EQ(a.status, b.status);
      if (a.ok()) {
        ASSERT_EQ(a.value, b.value) << "step " << step;
      }
    } else if (op < 88 && !fds.empty()) {
      const int fd = fds[rng.NextBelow(fds.size())];
      ASSERT_EQ(prod.Fsync(fd), ref.Fsync(fd)) << "step " << step;
    } else if (op < 92 && !fds.empty()) {
      const size_t idx = rng.NextBelow(fds.size());
      const int fd = fds[idx];
      ASSERT_EQ(prod.Close(fd), ref.Close(fd)) << "step " << step;
      fds[idx] = fds.back();
      fds.pop_back();
    } else if (op < 94) {
      const std::string missing = path + "/nope";
      ASSERT_EQ(prod.Stat(missing).status, ref.Stat(missing).status) << "step " << step;
    } else if (op < 96) {
      prod.DropCaches();
      ref.DropCaches();
    } else {
      prod.SyncAll();
      ref.SyncAll();
    }

    // The virtual clock is the strongest equivalence check: any divergence in
    // charges, misses or I/O ordering shows up here immediately.
    ASSERT_EQ(prod_stack.clock.now(), ref_stack.clock.now()) << "step " << step << " op " << op;
    ASSERT_EQ(prod.cache().size(), ref.cache().size()) << "step " << step;
    ASSERT_EQ(prod.cache().dirty_count(), ref.cache().dirty_count()) << "step " << step;
  }

  EXPECT_EQ(prod.stats(), ref.stats());
  EXPECT_EQ(prod_stack.disk.stats(), ref_stack.disk.stats());
  EXPECT_EQ(prod_stack.scheduler.stats(), ref_stack.scheduler.stats());
  EXPECT_EQ(prod.cache().stats(), ref.cache().stats());

  std::string error;
  EXPECT_TRUE(prod_stack.fs->CheckConsistency(&error)) << error;
  EXPECT_TRUE(ref_stack.fs->CheckConsistency(&error)) << error;
  EXPECT_TRUE(prod.cache().CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    Traces, PipelineDifferential,
    ::testing::Values(
        std::make_tuple(FsKind::kExt2, EvictionPolicyKind::kLru, 1ULL),
        std::make_tuple(FsKind::kExt2, EvictionPolicyKind::kArc, 2ULL),
        std::make_tuple(FsKind::kExt3, EvictionPolicyKind::kLru, 3ULL),
        std::make_tuple(FsKind::kExt3, EvictionPolicyKind::kTwoQueue, 4ULL),
        std::make_tuple(FsKind::kXfs, EvictionPolicyKind::kLru, 5ULL),
        std::make_tuple(FsKind::kXfs, EvictionPolicyKind::kClock, 6ULL)),
    [](const auto& info) {
      return std::string(FsKindName(std::get<0>(info.param))) + "_" +
             EvictionPolicyKindName(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// Multi-page directory scans. The traces above keep every directory within
// one page, so no scan there crosses a page. Here one ext2/ext3 directory
// grows to ~1,400 names (22 pages of 64 dirents), so its scans cross page 12
// into the single-indirect chain, and a 16-page cache makes them miss and
// evict part-way through a run.
class MultiPageScanDifferential
    : public ::testing::TestWithParam<std::tuple<FsKind, EvictionPolicyKind>> {};

TEST_P(MultiPageScanDifferential, BigDirectoryTraceMatchesReferencePipeline) {
  const auto [kind, policy] = GetParam();
  const uint64_t seed = 11 + static_cast<uint64_t>(policy);

  VfsConfig config;
  config.cache_capacity_pages = 16;
  config.eviction = policy;

  Stack prod_stack(kind, /*disk_seed=*/seed);
  Stack ref_stack(kind, /*disk_seed=*/seed);
  Vfs prod(&prod_stack.clock, &prod_stack.scheduler, prod_stack.fs.get(), config);
  ReferenceVfs ref(&ref_stack.clock, &ref_stack.scheduler, ref_stack.fs.get(), config);
  ASSERT_EQ(prod.Mkdir("/big"), ref.Mkdir("/big"));

  std::vector<std::string> live;
  uint64_t next_name = 0;
  Rng rng(seed * 104729 + 3);
  for (uint64_t step = 0; step < 4000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 55 || live.empty()) {
      const std::string path = "/big/f" + std::to_string(next_name++);
      ASSERT_EQ(prod.CreateFile(path), ref.CreateFile(path)) << "step " << step;
      live.push_back(path);
    } else if (op < 75) {
      const size_t idx = rng.NextBelow(live.size());
      ASSERT_EQ(prod.Unlink(live[idx]), ref.Unlink(live[idx])) << "step " << step;
      live[idx] = live.back();
      live.pop_back();
    } else if (op < 95) {
      // Half positive lookups (a scan up to the name's page), half negative
      // (the whole directory).
      const std::string path = rng.NextBelow(2) == 0 ? live[rng.NextBelow(live.size())]
                                                     : "/big/missing" + std::to_string(step);
      const FsResult<FileAttr> a = prod.Stat(path);
      const FsResult<FileAttr> b = ref.Stat(path);
      ASSERT_EQ(a.status, b.status) << "step " << step << " stat " << path;
      ASSERT_EQ(a.value.ino, b.value.ino) << "step " << step;
    } else if (op < 97) {
      prod.DropCaches();
      ref.DropCaches();
    } else {
      prod.SyncAll();
      ref.SyncAll();
    }
    ASSERT_EQ(prod_stack.clock.now(), ref_stack.clock.now()) << "step " << step << " op " << op;
  }

  EXPECT_EQ(prod.stats(), ref.stats());
  EXPECT_EQ(prod_stack.disk.stats(), ref_stack.disk.stats());
  EXPECT_EQ(prod_stack.scheduler.stats(), ref_stack.scheduler.stats());
  EXPECT_EQ(prod.cache().stats(), ref.cache().stats());
  EXPECT_TRUE(prod.cache().CheckInvariants());

  // The trace did reach the single-indirect pages.
  MetaIo io;
  const FsResult<InodeId> big = prod_stack.fs->Lookup(kRootInode, "big", &io);
  ASSERT_TRUE(big.ok());
  EXPECT_GT(prod_stack.fs->FindDir(big.value)->slot_count(), 13u * 64);
}

INSTANTIATE_TEST_SUITE_P(
    BigDir, MultiPageScanDifferential,
    ::testing::Combine(::testing::Values(FsKind::kExt2, FsKind::kExt3),
                       ::testing::Values(EvictionPolicyKind::kLru, EvictionPolicyKind::kClock,
                                         EvictionPolicyKind::kTwoQueue,
                                         EvictionPolicyKind::kArc)),
    [](const auto& info) {
      return std::string(FsKindName(std::get<0>(info.param))) + "_" +
             EvictionPolicyKindName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace fsbench
