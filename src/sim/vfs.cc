#include "src/sim/vfs.h"

#include <algorithm>
#include <cassert>
#include <string_view>

namespace fsbench {

namespace {

// Walks the '/'-separated components of a path in place; empty components
// collapse. Replaces the old SplitPath's per-call vector<string> so path
// resolution does no per-lookup heap traffic.
class PathCursor {
 public:
  explicit PathCursor(std::string_view path) : path_(path) {}

  // Advances to the next component; returns false at the end.
  bool Next(std::string_view* component) {
    while (pos_ < path_.size() && path_[pos_] == '/') {
      ++pos_;
    }
    if (pos_ >= path_.size()) {
      return false;
    }
    const size_t start = pos_;
    while (pos_ < path_.size() && path_[pos_] != '/') {
      ++pos_;
    }
    *component = path_.substr(start, pos_ - start);
    return true;
  }

 private:
  std::string_view path_;
  size_t pos_ = 0;
};

// Pages one background writeback pass takes off the dirty list.
constexpr size_t kWritebackBatchPages = 256;
// Cap on pages read in one coalesced demand request.
constexpr uint32_t kMaxDemandBatch = 32;

}  // namespace

Vfs::Vfs(VirtualClock* clock, BlockIo* io, FileSystem* fs, const VfsConfig& config,
         FlashTier* flash)
    : clock_(clock),
      io_(io),
      fs_(fs),
      flash_(flash),
      config_(config),
      cache_(config.cache_capacity_pages, config.eviction),
      readahead_(config.readahead_override.value_or(fs->readahead_config())) {
  dirty_limit_ = std::max<size_t>(1, cache_.capacity() / 10);
  auto scale = [this](Nanos cost) {
    return static_cast<Nanos>(static_cast<double>(cost) * config_.cpu_cost_multiplier);
  };
  scaled_syscall_ = scale(config_.syscall_overhead);
  scaled_syscall_plus_op_ = scale(config_.syscall_overhead + fs_->per_op_cpu_overhead());
  scaled_page_copy_ = scale(config_.page_copy_cost);
  scaled_meta_touch_ = scale(config_.meta_touch_cost);
}

double Vfs::DataHitRatio() const {
  const uint64_t total = stats_.data_page_hits + stats_.data_page_misses;
  return total == 0 ? 0.0 : static_cast<double>(stats_.data_page_hits) / total;
}

FsStatus Vfs::DemandRead(BlockId block, uint32_t count, bool meta) {
  ++stats_.demand_requests;
  const IoRequest req{IoKind::kRead, block * fs_->sectors_per_block(),
                      count * fs_->sectors_per_block(), meta};
  const std::optional<Nanos> completion = io_->SubmitSync(req, clock_->now());
  if (!completion.has_value()) {
    ++stats_.io_errors;
    return FsStatus::kIoError;
  }
  clock_->AdvanceTo(*completion);
  return FsStatus::kOk;
}

void Vfs::HandleEvictions(const PageCache::EvictedBatch& evicted) {
  Journal* journal = fs_->journal();
  for (const PageCache::Evicted& page : evicted) {
    if (page.dirty && page.block != kInvalidBlock) {
      // A full device queue throttles the evicting thread (dirty-page
      // balancing): the stall is charged to whoever forced the eviction.
      clock_->AdvanceTo(io_->SubmitAsync(
          IoRequest{IoKind::kWrite, page.block * fs_->sectors_per_block(),
                    fs_->sectors_per_block(), page.key.ino == kMetaInode},
          clock_->now()));
      ++stats_.writeback_pages;
      if (journal != nullptr) {
        journal->NoteHomeWrite(page.block);
      }
    }
    // Demote RAM evictions into the flash tier (clean copies; durability is
    // handled by the writeback above).
    if (flash_ != nullptr && page.block != kInvalidBlock) {
      flash_->Insert(page.key);
    }
  }
}

void Vfs::InsertPage(const PageKey& key, BlockId block, bool dirty) {
  PageCache::EvictedBatch evicted;
  cache_.Insert(key, block, dirty, &evicted);
  if (!evicted.empty()) {
    HandleEvictions(evicted);
  }
}

FsStatus Vfs::ProcessMetaIo(const MetaIo& io) {
  FsStatus status = FsStatus::kOk;
  const auto read_ref = [&](const MetaRef& ref) {
    clock_->Advance(scaled_meta_touch_);
    const PageKey key{ref.ino, ref.index};
    if (!cache_.Lookup(key)) {
      status = DemandRead(ref.block, 1, /*meta=*/true);
      if (status != FsStatus::kOk) {
        return false;
      }
      InsertPage(key, ref.block, /*dirty=*/false);
    }
    return true;
  };
  // A resident run is charged whole: one probe per distinct page, one clock
  // advance for all its touches. A run with any page missing is read ref by
  // ref, so misses, demand reads and evictions happen exactly in charge order.
  const auto read_resident_run = [&](const MetaRun& run) {
    run_keys_.clear();
    for (uint32_t i = run.begin; i < run.begin + run.chain; ++i) {
      run_keys_.push_back(PageKey{io.reads[i].ino, io.reads[i].index});
    }
    if (!cache_.LookupRun(run_keys_, run.ino, run.first_page, run.pages)) {
      return false;
    }
    clock_->Advance(scaled_meta_touch_ * static_cast<Nanos>(run.expanded_reads()));
    return true;
  };
  if (!io.ForEachRead(read_ref, read_resident_run)) {
    return status;
  }
  if (!io.writes.empty()) {
    Journal* journal = fs_->journal();
    for (const MetaRef& ref : io.writes) {
      clock_->Advance(scaled_meta_touch_);
      InsertPage(PageKey{ref.ino, ref.index}, ref.block, /*dirty=*/true);
      if (journal != nullptr) {
        journal->LogMetadata(ref);
      }
    }
  }
  if (!io.invalidations.empty()) {
    Journal* journal = fs_->journal();
    for (const MetaRef& ref : io.invalidations) {
      cache_.Remove(PageKey{ref.ino, ref.index});
      if (flash_ != nullptr) {
        flash_->Remove(PageKey{ref.ino, ref.index});
      }
      // A dropped home block no longer needs checkpointing: its logged
      // content is moot (the block was freed).
      if (journal != nullptr) {
        journal->NoteHomeWrite(ref.block);
      }
    }
  }
  for (const PageRange& range : io.drop_ranges) {
    cache_.RemoveRange(range.ino, range.first_page, range.end_page);
    if (flash_ != nullptr) {
      flash_->RemoveRange(range.ino, range.first_page, range.end_page);
    }
  }
  return FsStatus::kOk;
}

void Vfs::SubmitWritebackBatch(std::vector<PageCache::Evicted>& batch) {
  // Sort by device block so the elevator sees sequential runs.
  std::sort(batch.begin(), batch.end(),
            [](const PageCache::Evicted& a, const PageCache::Evicted& b) {
              return a.block < b.block;
            });
  Journal* journal = fs_->journal();
  for (const PageCache::Evicted& page : batch) {
    if (page.block == kInvalidBlock) {
      continue;
    }
    clock_->AdvanceTo(io_->SubmitAsync(
        IoRequest{IoKind::kWrite, page.block * fs_->sectors_per_block(),
                  fs_->sectors_per_block(), page.key.ino == kMetaInode},
        clock_->now()));
    ++stats_.writeback_pages;
    if (journal != nullptr) {
      journal->NoteHomeWrite(page.block);
    }
  }
}

void Vfs::OnWriteError(const IoRequest& req, Nanos now) {
  (void)now;  // bookkeeping only; no time is charged to the failing writer
  ++stats_.write_errors;
  if (req.meta) {
    ++stats_.meta_write_errors;
    // A lost metadata or journal-log write: the file system decides whether
    // this means remount-read-only (journal abort) or soldiering on.
    fs_->NoteMetaIoFailure();
  }
}

size_t Vfs::WritebackForCheckpoint(const MetaRef* refs, size_t count, Nanos now) {
  (void)now;  // submissions read the bound cursor, which the caller shares
  checkpoint_scratch_.clear();
  Journal* journal = fs_->journal();
  for (size_t i = 0; i < count; ++i) {
    const MetaRef& ref = refs[i];
    if (!cache_.TakeDirtyPage(PageKey{ref.ino, ref.index}, &checkpoint_scratch_)) {
      // No dirty page behind this ref: a prior writeback put the content
      // home, or the page is gone (eviction already written back;
      // whole-file drop on unlink freed the block). Either way the log
      // copy is no longer owed to the platter.
      journal->NoteHomeWrite(ref.block);
    }
  }
  const size_t submitted = checkpoint_scratch_.size();
  SubmitWritebackBatch(checkpoint_scratch_);
  return submitted;
}

void Vfs::WritebackDirty(size_t max_pages) {
  cache_.TakeDirty(max_pages, &writeback_scratch_);
  SubmitWritebackScratch();
}

void Vfs::MaybeWriteback() {
  if (cache_.dirty_count() <= dirty_limit_) {
    return;
  }
  WritebackDirty(kWritebackBatchPages);
}

void Vfs::JournalTick() {
  if (Journal* journal = fs_->journal(); journal != nullptr) {
    journal->MaybePeriodicCommit();
  }
}

Vfs::OpenFile* Vfs::FileFor(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= fd_table_.size() || !fd_table_[fd].has_value()) {
    return nullptr;
  }
  return &*fd_table_[fd];
}

FsResult<InodeId> Vfs::ResolvePath(std::string_view path, ResolveMode mode, InodeId* parent_out,
                                   std::string_view* leaf_out) {
  if (parent_out != nullptr) {
    *parent_out = kInvalidInode;
  }
  PathCursor cursor(path);
  std::string_view component;
  InodeId current = kRootInode;
  if (!cursor.Next(&component)) {
    if (mode == ResolveMode::kParent) {
      return FsResult<InodeId>::Error(FsStatus::kInvalid);
    }
    return FsResult<InodeId>::Ok(current);  // "/" itself; no parent to report
  }
  // The whole walk accumulates into one MetaIo, processed once at the end
  // (or at the first failed component). Lookups generate only reads and
  // namespace logic never observes the clock or the cache, so charging all
  // components' reads in order after the walk is byte-identical to charging
  // them between components — with one ProcessMetaIo loop instead of one
  // per component.
  meta_scratch_.Reset();
  for (;;) {
    std::string_view next_component;
    const bool has_next = cursor.Next(&next_component);
    if (!has_next) {
      // `component` is the leaf; `current` its parent.
      if (parent_out != nullptr) {
        *parent_out = current;
        *leaf_out = component;
      }
      if (mode == ResolveMode::kParent) {
        const FsStatus meta = ProcessMetaIo(meta_scratch_);
        if (meta != FsStatus::kOk) {
          return FsResult<InodeId>::Error(meta);
        }
        return FsResult<InodeId>::Ok(current);
      }
    }
    const FsResult<InodeId> next = fs_->Lookup(current, component, &meta_scratch_);
    if (!next.ok() || !has_next) {
      const FsStatus meta = ProcessMetaIo(meta_scratch_);
      if (meta != FsStatus::kOk) {
        return FsResult<InodeId>::Error(meta);
      }
      return next;
    }
    current = next.value;
    component = next_component;
  }
}

FsResult<int> Vfs::Open(std::string_view path, bool create) {
  ++stats_.opens;
  clock_->Advance(scaled_syscall_);
  // Single walk: the leaf's parent comes out of the same resolution that
  // discovers the leaf is missing (the old pipeline re-resolved the whole
  // path a second time to find the parent).
  InodeId parent = kInvalidInode;
  std::string_view leaf;
  FsResult<InodeId> ino = ResolvePath(path, ResolveMode::kOpen, &parent, &leaf);
  if (!ino.ok() && create && ino.status == FsStatus::kNotFound && parent != kInvalidInode) {
    if (fs_->read_only()) {
      ++stats_.readonly_rejects;
      return FsResult<int>::Error(FsStatus::kReadOnly);
    }
    meta_scratch_.Reset();
    ino = fs_->Create(parent, leaf, FileType::kRegular, &meta_scratch_);
    const FsStatus meta = ProcessMetaIo(meta_scratch_);
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
  // Reuse the lowest free slot.
  for (size_t fd = 0; fd < fd_table_.size(); ++fd) {
    if (!fd_table_[fd].has_value()) {
      fd_table_[fd] = OpenFile{ino.value, {}};
      return FsResult<int>::Ok(static_cast<int>(fd));
    }
  }
  fd_table_.push_back(OpenFile{ino.value, {}});
  return FsResult<int>::Ok(static_cast<int>(fd_table_.size() - 1));
}

FsStatus Vfs::Close(int fd) {
  if (FileFor(fd) == nullptr) {
    return FsStatus::kBadHandle;
  }
  clock_->Advance(scaled_syscall_);
  fd_table_[fd].reset();
  return FsStatus::kOk;
}

void Vfs::IssueReadahead(OpenFile& file, uint64_t index, uint32_t pages) {
  // Collect uncached, mapped pages after `index`, coalescing physically
  // contiguous runs into single requests.
  BlockId run_start = kInvalidBlock;
  uint32_t run_len = 0;
  auto flush_run = [&] {
    if (run_len > 0) {
      // Readahead is throttled by the same bounded queue as writeback.
      clock_->AdvanceTo(io_->SubmitAsync(
          IoRequest{IoKind::kRead, run_start * fs_->sectors_per_block(),
                    run_len * fs_->sectors_per_block()},
          clock_->now()));
      run_start = kInvalidBlock;
      run_len = 0;
    }
  };
  for (uint64_t j = index + 1; j <= index + pages; ++j) {
    const PageKey key{file.ino, j};
    if (cache_.Contains(key)) {
      continue;
    }
    // Pages resident in the flash tier are not worth a disk prefetch; they
    // will be promoted at flash latency if actually referenced.
    if (flash_ != nullptr && flash_->Contains(key)) {
      continue;
    }
    meta_scratch_.Reset();
    const FsResult<BlockId> mapping = fs_->MapPage(file.ino, j, &meta_scratch_);
    if (ProcessMetaIo(meta_scratch_) != FsStatus::kOk || !mapping.ok() ||
        mapping.value == kInvalidBlock) {
      break;  // hole or past EOF: stop the window
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

FsResult<Bytes> Vfs::Read(int fd, Bytes offset, Bytes length) {
  OpenFile* file = FileFor(fd);
  if (file == nullptr) {
    return FsResult<Bytes>::Error(FsStatus::kBadHandle);
  }
  ++stats_.reads;
  clock_->Advance(scaled_syscall_plus_op_);
  if (fs_->read_only()) {
    ++stats_.degraded_reads;  // still served: degraded mode is read-only, not dead
  }

  meta_scratch_.Reset();
  const FsResult<FileAttr> attr = fs_->Stat(file->ino, &meta_scratch_);
  if (!attr.ok()) {
    return FsResult<Bytes>::Error(attr.status);
  }
  // read(2) on a directory fails with EISDIR before touching anything.
  if (attr.value.type == FileType::kDirectory) {
    return FsResult<Bytes>::Error(FsStatus::kIsDir);
  }
  if (ProcessMetaIo(meta_scratch_) != FsStatus::kOk) {
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
    // The readahead decision is anchored at this page; a coalesced demand
    // batch below advances `page`, but the prefetch window must still start
    // where the decision was made.
    const uint64_t ra_anchor = page;
    const uint32_t ra_pages = readahead_.OnAccess(file->readahead, page);
    if (cache_.Lookup(key)) {
      ++stats_.data_page_hits;
      clock_->Advance(scaled_page_copy_);
      continue;
    }
    ++stats_.data_page_misses;
    meta_scratch_.Reset();
    const FsResult<BlockId> mapping = fs_->MapPage(file->ino, page, &meta_scratch_);
    if (!mapping.ok()) {
      return FsResult<Bytes>::Error(mapping.status);
    }
    const FsStatus meta = ProcessMetaIo(meta_scratch_);
    if (meta != FsStatus::kOk) {
      return FsResult<Bytes>::Error(meta);
    }
    if (mapping.value == kInvalidBlock) {
      // Hole: zero fill.
      InsertPage(key, kInvalidBlock, /*dirty=*/false);
      clock_->Advance(scaled_page_copy_);
      continue;
    }
    // Second-level tier: a flash hit promotes the page back into RAM at
    // device latency - the "middle step" between RAM and disk.
    if (flash_ != nullptr && flash_->LookupAndPromote(key)) {
      ++stats_.flash_hits;
      clock_->Advance(flash_->config().read_latency);
      InsertPage(key, mapping.value, /*dirty=*/false);
      clock_->Advance(scaled_page_copy_);
      if (ra_pages > 0) {
        IssueReadahead(*file, ra_anchor, ra_pages);
      }
      continue;
    }
    // Coalesce physically contiguous missing pages within the op range.
    uint32_t batch = 1;
    while (batch < kMaxDemandBatch && page + batch <= last_page) {
      const PageKey next_key{file->ino, page + batch};
      if (cache_.Contains(next_key)) {
        break;
      }
      meta_scratch_.Reset();
      const FsResult<BlockId> next_map = fs_->MapPage(file->ino, page + batch, &meta_scratch_);
      if (!next_map.ok() || next_map.value != mapping.value + batch) {
        break;
      }
      if (ProcessMetaIo(meta_scratch_) != FsStatus::kOk) {
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
      clock_->Advance(scaled_page_copy_);
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

FsResult<Bytes> Vfs::Write(int fd, Bytes offset, Bytes length) {
  OpenFile* file = FileFor(fd);
  if (file == nullptr) {
    return FsResult<Bytes>::Error(FsStatus::kBadHandle);
  }
  if (length == 0) {
    return FsResult<Bytes>::Ok(0);
  }
  ++stats_.writes;
  clock_->Advance(scaled_syscall_plus_op_);
  // Degraded mode: a remounted-read-only fs refuses mutations. Checked after
  // the syscall charge so rejected operations still consume virtual time.
  if (fs_->read_only()) {
    ++stats_.readonly_rejects;
    return FsResult<Bytes>::Error(FsStatus::kReadOnly);
  }

  meta_scratch_.Reset();
  const FsResult<FileAttr> attr = fs_->Stat(file->ino, &meta_scratch_);
  if (!attr.ok()) {
    return FsResult<Bytes>::Error(attr.status);
  }
  // write(2) on a directory fails with EISDIR before touching anything.
  if (attr.value.type == FileType::kDirectory) {
    return FsResult<Bytes>::Error(FsStatus::kIsDir);
  }
  if (ProcessMetaIo(meta_scratch_) != FsStatus::kOk) {
    return FsResult<Bytes>::Error(FsStatus::kIoError);
  }
  const Bytes old_size = attr.value.size;

  const Bytes page_size = config_.page_size;
  const uint64_t first_page = offset / page_size;
  const uint64_t last_page = (offset + length - 1) / page_size;
  Journal* journal = fs_->journal();

  for (uint64_t page = first_page; page <= last_page; ++page) {
    const PageKey key{file->ino, page};
    // Partial first/last page within the old file size needs
    // read-modify-write if not cached.
    const Bytes page_start = page * page_size;
    const bool partial = (page == first_page && offset > page_start) ||
                         (page == last_page && offset + length < page_start + page_size);
    if (cache_.Lookup(key)) {
      ++stats_.data_page_hits;
      cache_.MarkDirty(key);
      clock_->Advance(scaled_page_copy_);
    } else {
      ++stats_.data_page_misses;
      if (partial && page_start < old_size) {
        meta_scratch_.Reset();
        const FsResult<BlockId> mapping = fs_->MapPage(file->ino, page, &meta_scratch_);
        if (!mapping.ok()) {
          return FsResult<Bytes>::Error(mapping.status);
        }
        if (ProcessMetaIo(meta_scratch_) != FsStatus::kOk) {
          return FsResult<Bytes>::Error(FsStatus::kIoError);
        }
        if (mapping.value != kInvalidBlock) {
          const FsStatus read_status = DemandRead(mapping.value, 1);
          if (read_status != FsStatus::kOk) {
            return FsResult<Bytes>::Error(read_status);
          }
        }
      }
      meta_scratch_.Reset();
      const FsResult<BlockId> block = fs_->AllocatePage(file->ino, page, &meta_scratch_);
      if (!block.ok()) {
        return FsResult<Bytes>::Error(block.status);
      }
      if (ProcessMetaIo(meta_scratch_) != FsStatus::kOk) {
        return FsResult<Bytes>::Error(FsStatus::kIoError);
      }
      InsertPage(key, block.value, /*dirty=*/true);
      clock_->Advance(scaled_page_copy_);
      if (journal != nullptr) {
        journal->LogData(MetaRef{file->ino, page, block.value});
      }
    }
  }

  if (offset + length > old_size) {
    meta_scratch_.Reset();
    const FsStatus status = fs_->SetSize(file->ino, offset + length, &meta_scratch_);
    if (status != FsStatus::kOk) {
      return FsResult<Bytes>::Error(status);
    }
    if (ProcessMetaIo(meta_scratch_) != FsStatus::kOk) {
      return FsResult<Bytes>::Error(FsStatus::kIoError);
    }
  }

  stats_.bytes_written += length;
  MaybeWriteback();
  JournalTick();
  return FsResult<Bytes>::Ok(length);
}

FsStatus Vfs::CreateFile(std::string_view path) {
  clock_->Advance(scaled_syscall_plus_op_);
  if (fs_->read_only()) {
    ++stats_.readonly_rejects;
    return FsStatus::kReadOnly;
  }
  InodeId parent = kInvalidInode;
  std::string_view leaf;
  const FsResult<InodeId> parent_result = ResolvePath(path, ResolveMode::kParent, &parent, &leaf);
  if (!parent_result.ok()) {
    return parent_result.status;
  }
  meta_scratch_.Reset();
  const FsResult<InodeId> created = fs_->Create(parent, leaf, FileType::kRegular, &meta_scratch_);
  const FsStatus meta = ProcessMetaIo(meta_scratch_);
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

FsStatus Vfs::Mkdir(std::string_view path) {
  clock_->Advance(scaled_syscall_plus_op_);
  if (fs_->read_only()) {
    ++stats_.readonly_rejects;
    return FsStatus::kReadOnly;
  }
  InodeId parent = kInvalidInode;
  std::string_view leaf;
  const FsResult<InodeId> parent_result = ResolvePath(path, ResolveMode::kParent, &parent, &leaf);
  if (!parent_result.ok()) {
    return parent_result.status;
  }
  meta_scratch_.Reset();
  const FsResult<InodeId> created = fs_->Create(parent, leaf, FileType::kDirectory, &meta_scratch_);
  const FsStatus meta = ProcessMetaIo(meta_scratch_);
  if (meta != FsStatus::kOk) {
    return meta;
  }
  JournalTick();
  return created.ok() ? FsStatus::kOk : created.status;
}

FsStatus Vfs::Unlink(std::string_view path) {
  clock_->Advance(scaled_syscall_plus_op_);
  if (fs_->read_only()) {
    ++stats_.readonly_rejects;
    return FsStatus::kReadOnly;
  }
  InodeId parent = kInvalidInode;
  std::string_view leaf;
  const FsResult<InodeId> parent_result = ResolvePath(path, ResolveMode::kParent, &parent, &leaf);
  if (!parent_result.ok()) {
    return parent_result.status;
  }
  meta_scratch_.Reset();
  const FsStatus status = fs_->Unlink(parent, leaf, &meta_scratch_);
  const FsStatus meta = ProcessMetaIo(meta_scratch_);
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

FsResult<FileAttr> Vfs::Stat(std::string_view path) {
  ++stats_.stats_calls;
  clock_->Advance(scaled_syscall_plus_op_);
  const FsResult<InodeId> ino = ResolvePath(path, ResolveMode::kFull, nullptr, nullptr);
  if (!ino.ok()) {
    return FsResult<FileAttr>::Error(ino.status);
  }
  meta_scratch_.Reset();
  const FsResult<FileAttr> attr = fs_->Stat(ino.value, &meta_scratch_);
  const FsStatus meta = ProcessMetaIo(meta_scratch_);
  if (meta != FsStatus::kOk) {
    return FsResult<FileAttr>::Error(meta);
  }
  return attr;
}

FsResult<std::vector<std::string>> Vfs::ReadDir(std::string_view path) {
  clock_->Advance(scaled_syscall_plus_op_);
  const FsResult<InodeId> ino = ResolvePath(path, ResolveMode::kFull, nullptr, nullptr);
  if (!ino.ok()) {
    return FsResult<std::vector<std::string>>::Error(ino.status);
  }
  meta_scratch_.Reset();
  FsResult<std::vector<std::string>> entries = fs_->ReadDir(ino.value, &meta_scratch_);
  const FsStatus meta = ProcessMetaIo(meta_scratch_);
  if (meta != FsStatus::kOk) {
    return FsResult<std::vector<std::string>>::Error(meta);
  }
  return entries;
}

FsStatus Vfs::Truncate(std::string_view path, Bytes new_size) {
  clock_->Advance(scaled_syscall_plus_op_);
  if (fs_->read_only()) {
    ++stats_.readonly_rejects;
    return FsStatus::kReadOnly;
  }
  const FsResult<InodeId> ino = ResolvePath(path, ResolveMode::kFull, nullptr, nullptr);
  if (!ino.ok()) {
    return ino.status;
  }
  meta_scratch_.Reset();
  const FsStatus status = fs_->SetSize(ino.value, new_size, &meta_scratch_);
  const FsStatus meta = ProcessMetaIo(meta_scratch_);
  if (status != FsStatus::kOk) {
    return status;
  }
  JournalTick();
  return meta;
}

FsStatus Vfs::Fsync(int fd) {
  OpenFile* file = FileFor(fd);
  if (file == nullptr) {
    return FsStatus::kBadHandle;
  }
  ++stats_.fsyncs;
  clock_->Advance(scaled_syscall_);
  // Per-file writeback: this file's dirty pages only, probed over the page
  // range the file system says it can have cached. (The old pipeline
  // flushed the entire dirty set — stricter than POSIX, and it penalised
  // every other file's writeback clustering.)
  const Inode* inode = fs_->FindInode(file->ino);
  cache_.TakeDirtyFile(file->ino, inode != nullptr ? fs_->PageEnd(*inode) : 0,
                       &writeback_scratch_);
  // POSIX fsync also makes the file's *metadata* durable: its inode-table
  // block and mapping meta blocks (indirect / extent nodes), all keyed
  // under kMetaInode. Shared metadata stays background — bitmaps belong to
  // the allocator, and the parent dirent's durability is the directory's
  // own fsync, as POSIX has it.
  if (inode != nullptr) {
    cache_.TakeDirtyPage(PageKey{kMetaInode, inode->itable_block}, &writeback_scratch_);
    for (const BlockId block : inode->indirect_blocks) {
      if (block != kInvalidBlock) {
        cache_.TakeDirtyPage(PageKey{kMetaInode, block}, &writeback_scratch_);
      }
    }
    for (const BlockId block : inode->extent_meta_blocks) {
      cache_.TakeDirtyPage(PageKey{kMetaInode, block}, &writeback_scratch_);
    }
  }
  SubmitWritebackScratch();
  clock_->AdvanceTo(io_->Drain(clock_->now()));
  if (Journal* journal = fs_->journal(); journal != nullptr) {
    clock_->AdvanceTo(journal->CommitSync());
  }
  return FsStatus::kOk;
}

void Vfs::SyncAll() {
  WritebackDirty(cache_.capacity());
  clock_->AdvanceTo(io_->Drain(clock_->now()));
  if (Journal* journal = fs_->journal(); journal != nullptr) {
    clock_->AdvanceTo(journal->CommitSync());
  }
}

FsStatus Vfs::MakeFile(std::string_view path, Bytes size) {
  InodeId parent = kInvalidInode;
  std::string_view leaf;
  {
    // Setup helper: resolve without charging time or touching the cache.
    PathCursor cursor(path);
    std::string_view component;
    if (!cursor.Next(&component)) {
      return FsStatus::kInvalid;
    }
    InodeId current = kRootInode;
    std::string_view next_component;
    while (cursor.Next(&next_component)) {
      meta_scratch_.Reset();
      const FsResult<InodeId> next = fs_->Lookup(current, component, &meta_scratch_);
      if (!next.ok()) {
        return next.status;
      }
      current = next.value;
      component = next_component;
    }
    parent = current;
    leaf = component;
  }
  meta_scratch_.Reset();
  const FsResult<InodeId> created = fs_->Create(parent, leaf, FileType::kRegular, &meta_scratch_);
  if (!created.ok()) {
    return created.status;
  }
  const uint64_t pages = CeilDiv(size, config_.page_size);
  for (uint64_t page = 0; page < pages; ++page) {
    meta_scratch_.Reset();
    const FsResult<BlockId> block = fs_->AllocatePage(created.value, page, &meta_scratch_);
    if (!block.ok()) {
      return block.status;
    }
  }
  meta_scratch_.Reset();
  return fs_->SetSize(created.value, size, &meta_scratch_);
}

FsStatus Vfs::PrewarmFile(std::string_view path) {
  PathCursor cursor(path);
  std::string_view component;
  InodeId current = kRootInode;
  while (cursor.Next(&component)) {
    meta_scratch_.Reset();
    const FsResult<InodeId> next = fs_->Lookup(current, component, &meta_scratch_);
    if (!next.ok()) {
      return next.status;
    }
    current = next.value;
  }
  meta_scratch_.Reset();
  const FsResult<FileAttr> attr = fs_->Stat(current, &meta_scratch_);
  if (!attr.ok()) {
    return attr.status;
  }
  const uint64_t pages = CeilDiv(attr.value.size, config_.page_size);
  for (uint64_t page = 0; page < pages; ++page) {
    meta_scratch_.Reset();
    const FsResult<BlockId> mapping = fs_->MapPage(current, page, &meta_scratch_);
    if (!mapping.ok()) {
      return mapping.status;
    }
    // Meta pages are warmed too, without timing. Evictions demote into the
    // flash tier (when present) so prewarm reproduces the steady tiering.
    for (const MetaRef& ref : meta_scratch_.reads) {
      cache_.Insert(PageKey{ref.ino, ref.index}, ref.block, /*dirty=*/false, nullptr);
    }
    PageCache::EvictedBatch evicted;
    cache_.Insert(PageKey{current, page}, mapping.value, /*dirty=*/false, &evicted);
    if (flash_ != nullptr) {
      for (const PageCache::Evicted& victim : evicted) {
        if (victim.block != kInvalidBlock) {
          flash_->Insert(victim.key);
        }
      }
    }
  }
  return FsStatus::kOk;
}

void Vfs::DropCaches() {
  cache_.Clear();
  if (flash_ != nullptr) {
    flash_->Clear();
  }
}

}  // namespace fsbench
