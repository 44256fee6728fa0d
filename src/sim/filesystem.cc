#include "src/sim/filesystem.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace fsbench {

const char* FsStatusName(FsStatus status) {
  switch (status) {
    case FsStatus::kOk:
      return "OK";
    case FsStatus::kNotFound:
      return "ENOENT";
    case FsStatus::kExists:
      return "EEXIST";
    case FsStatus::kNoSpace:
      return "ENOSPC";
    case FsStatus::kIoError:
      return "EIO";
    case FsStatus::kNotDir:
      return "ENOTDIR";
    case FsStatus::kIsDir:
      return "EISDIR";
    case FsStatus::kNotEmpty:
      return "ENOTEMPTY";
    case FsStatus::kBadHandle:
      return "EBADF";
    case FsStatus::kInvalid:
      return "EINVAL";
    case FsStatus::kReadOnly:
      return "EROFS";
  }
  return "?";
}

void FileSystem::NoteMetaIoFailure() {
  ++meta_io_failures_;
  if (read_only_ || !RemountRoOnWriteError()) {
    return;
  }
  // errors=remount-ro: the journal can no longer guarantee atomicity once a
  // metadata or log write has been lost, so it is aborted and every further
  // mutation is refused with kReadOnly. ext2 (no journal) overrides the
  // policy hook and keeps going — errors=continue.
  read_only_ = true;
  if (journal_ != nullptr) {
    journal_->Abort();
  }
}

const char* FsKindName(FsKind kind) {
  switch (kind) {
    case FsKind::kExt2:
      return "ext2";
    case FsKind::kExt3:
      return "ext3";
    case FsKind::kXfs:
      return "xfs";
  }
  return "?";
}

FileSystem::FileSystem(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock)
    : params_(params),
      clock_(clock),
      alloc_(device_capacity / params.block_size, params.group_blocks) {
  InitGroups();

  // Root directory.
  Inode root;
  root.ino = kRootInode;
  root.type = FileType::kDirectory;
  root.link_count = 2;
  root.group = 0;
  root.itable_block = InodeTableStart(0);
  root.mtime = root.ctime = Now();
  root.dir = std::make_unique<Directory>();
  inodes_.Insert(std::move(root));
  group_inode_counts_[0] = 1;
  group_local_inodes_[0] = 1;
  next_ino_ = kRootInode + 1;
}

void FileSystem::InitGroups() {
  const uint64_t groups = alloc_.group_count();
  group_inode_counts_.assign(groups, 0);
  group_local_inodes_.assign(groups, 0);
  for (uint64_t g = 0; g < groups; ++g) {
    const BlockId start = GroupStart(g);
    const uint64_t size = std::min<uint64_t>(params_.group_blocks, alloc_.total_blocks() - start);
    const uint64_t header = std::min<uint64_t>(params_.group_header_blocks, size);
    alloc_.ReserveRange(Extent{start, header});
    reserved_blocks_ += header;
  }
}

void FileSystem::ReserveJournalRegion(uint64_t blocks) {
  // Real XFS centres its log in an allocation group, a placement difference
  // the seek model can ignore at this size.
  journal_region_ = Extent{GroupDataStart(0), blocks};
  alloc_.ReserveRange(journal_region_);
  reserved_blocks_ += blocks;
}

Nanos FileSystem::Now() const { return clock_ != nullptr ? clock_->now() : 0; }

const Inode* FileSystem::FindInode(InodeId ino) const { return inodes_.Find(ino); }

Inode* FileSystem::MutableInode(InodeId ino) { return inodes_.Find(ino); }

const Directory* FileSystem::FindDir(InodeId ino) const {
  const Inode* inode = FindInode(ino);
  return inode == nullptr ? nullptr : inode->dir.get();
}

FsResult<BlockId> FileSystem::MapPage(InodeId ino, uint64_t page_index, MetaIo* io) {
  const Inode* inode = FindInode(ino);
  if (inode == nullptr) {
    return FsResult<BlockId>::Error(FsStatus::kNotFound);
  }
  return MapPageFor(*inode, page_index, io);
}

FsResult<BlockId> FileSystem::AllocatePage(InodeId ino, uint64_t page_index, MetaIo* io) {
  Inode* inode = MutableInode(ino);
  if (inode == nullptr) {
    return FsResult<BlockId>::Error(FsStatus::kNotFound);
  }
  return AllocatePageFor(*inode, page_index, io);
}

uint64_t FileSystem::PickGroup(const Inode& parent, FileType type) {
  if (type == FileType::kDirectory) {
    // Spread directories across groups (Orlov-flavoured round-robin).
    const uint64_t group = next_dir_group_;
    next_dir_group_ = (next_dir_group_ + 1) % group_inode_counts_.size();
    return group;
  }
  return parent.group;
}

Inode* FileSystem::AllocateInode(const Inode& parent, FileType type, MetaIo* io) {
  const uint64_t groups = group_local_inodes_.size();
  const uint64_t max_local = params_.inode_table_blocks * params_.inodes_per_block;
  uint64_t group = PickGroup(parent, type) % groups;
  // Linear-probe for a group with a free inode-table slot.
  for (uint64_t probe = 0; probe < groups; ++probe, group = (group + 1) % groups) {
    if (group_local_inodes_[group] < max_local) {
      break;
    }
  }
  if (group_local_inodes_[group] >= max_local) {
    return nullptr;
  }
  const uint64_t local = group_local_inodes_[group]++;
  ++group_inode_counts_[group];

  Inode inode;
  inode.ino = next_ino_++;
  inode.type = type;
  inode.link_count = type == FileType::kDirectory ? 2 : 1;
  inode.group = group;
  inode.itable_block = InodeTableStart(group) + local / params_.inodes_per_block;
  inode.mtime = inode.ctime = Now();
  io->AddMetaWrite(inode.itable_block);
  io->AddMetaWrite(InodeBitmapBlock(group));

  return inodes_.Insert(std::move(inode));
}

FsResult<BlockId> FileSystem::EnsureDirSlotBlock(Inode& dir_inode, uint64_t slot, MetaIo* io) {
  const uint64_t page = slot / params_.dir_entries_per_block;
  const FsResult<BlockId> existing = MapPageFor(dir_inode, page, io);
  if (existing.ok() && existing.value != kInvalidBlock) {
    return existing;
  }
  const FsResult<BlockId> allocated = AllocatePageFor(dir_inode, page, io);
  if (allocated.ok()) {
    const Bytes needed = (page + 1) * params_.block_size;
    if (dir_inode.size < needed) {
      dir_inode.size = needed;
    }
  }
  return allocated;
}

FsResult<InodeId> FileSystem::Create(InodeId parent, std::string_view name, FileType type,
                                     MetaIo* io) {
  Inode* parent_inode = MutableInode(parent);
  if (parent_inode == nullptr) {
    return FsResult<InodeId>::Error(FsStatus::kNotFound);
  }
  if (parent_inode->type != FileType::kDirectory) {
    return FsResult<InodeId>::Error(FsStatus::kNotDir);
  }
  Directory* dir = parent_inode->dir.get();
  assert(dir != nullptr);
  if (name.empty() || name.find('/') != std::string_view::npos) {
    return FsResult<InodeId>::Error(FsStatus::kInvalid);
  }

  // Negative lookup scans the whole directory.
  ChargeDirLookup(*parent_inode, *dir, name, std::nullopt, io);
  if (dir->Lookup(name).has_value()) {
    return FsResult<InodeId>::Error(FsStatus::kExists);
  }

  Inode* inode = AllocateInode(*parent_inode, type, io);
  if (inode == nullptr) {
    return FsResult<InodeId>::Error(FsStatus::kNoSpace);
  }
  if (type == FileType::kDirectory) {
    inode->dir = std::make_unique<Directory>();
    ++parent_inode->link_count;  // ".." back-reference
  }

  const bool inserted = dir->Insert(name, inode->ino);
  assert(inserted);
  (void)inserted;
  const uint64_t slot = *dir->SlotOf(name);
  const FsResult<BlockId> dir_block = EnsureDirSlotBlock(*parent_inode, slot, io);
  if (!dir_block.ok()) {
    // Roll back: no space for the dirent.
    dir->Remove(name);
    if (type == FileType::kDirectory) {
      --parent_inode->link_count;
    }
    inodes_.Erase(inode->ino);
    return FsResult<InodeId>::Error(dir_block.status);
  }
  io->writes.push_back({parent, slot / params_.dir_entries_per_block, dir_block.value});
  io->AddMetaWrite(parent_inode->itable_block);
  parent_inode->mtime = Now();
  return FsResult<InodeId>::Ok(inode->ino);
}

FsStatus FileSystem::Unlink(InodeId parent, std::string_view name, MetaIo* io) {
  Inode* parent_inode = MutableInode(parent);
  if (parent_inode == nullptr) {
    return FsStatus::kNotFound;
  }
  if (parent_inode->type != FileType::kDirectory) {
    return FsStatus::kNotDir;
  }
  Directory* dir = parent_inode->dir.get();
  assert(dir != nullptr);

  const std::optional<Directory::Entry> entry = dir->Find(name);
  if (!entry.has_value()) {
    ChargeDirLookup(*parent_inode, *dir, name, std::nullopt, io);
    return FsStatus::kNotFound;
  }
  const std::optional<uint64_t> slot = entry->slot;
  ChargeDirLookup(*parent_inode, *dir, name, slot, io);

  const InodeId ino = entry->ino;
  Inode* inode = MutableInode(ino);
  assert(inode != nullptr);
  if (inode->type == FileType::kDirectory) {
    const Directory* victim_dir = inode->dir.get();
    if (victim_dir != nullptr && victim_dir->entry_count() > 0) {
      return FsStatus::kNotEmpty;
    }
  }

  dir->Remove(name);
  // Rewrite the dirent's block.
  const FsResult<BlockId> dir_block =
      MapPageFor(*parent_inode, *slot / params_.dir_entries_per_block, io);
  if (dir_block.ok() && dir_block.value != kInvalidBlock) {
    io->writes.push_back({parent, *slot / params_.dir_entries_per_block, dir_block.value});
  }
  io->AddMetaWrite(parent_inode->itable_block);
  parent_inode->mtime = Now();

  --inode->link_count;
  if (inode->type == FileType::kDirectory) {
    --inode->link_count;  // the directory's own "." reference
    --parent_inode->link_count;
  }
  if (inode->link_count == 0 ||
      (inode->type == FileType::kDirectory && inode->link_count <= 1)) {
    io->drop_ranges.push_back({ino, 0, PageEnd(*inode)});
    FreeAllBlocks(*inode, io);
    io->AddMetaWrite(inode->itable_block);
    io->AddMetaWrite(InodeBitmapBlock(inode->group));
    --group_inode_counts_[inode->group];
    inodes_.Erase(ino);
  }
  return FsStatus::kOk;
}

FsResult<std::vector<std::string>> FileSystem::ReadDir(InodeId ino, MetaIo* io) {
  Inode* inode = MutableInode(ino);
  if (inode == nullptr) {
    return FsResult<std::vector<std::string>>::Error(FsStatus::kNotFound);
  }
  if (inode->type != FileType::kDirectory) {
    return FsResult<std::vector<std::string>>::Error(FsStatus::kNotDir);
  }
  const Directory* dir = inode->dir.get();
  assert(dir != nullptr);
  ChargeDirLookup(*inode, *dir, "", std::nullopt, io);  // reads every block
  return FsResult<std::vector<std::string>>::Ok(dir->List());
}

FsStatus FileSystem::SetSize(InodeId ino, Bytes new_size, MetaIo* io) {
  Inode* inode = MutableInode(ino);
  if (inode == nullptr) {
    return FsStatus::kNotFound;
  }
  if (inode->type == FileType::kDirectory) {
    return FsStatus::kIsDir;
  }
  if (new_size < inode->size) {
    // FreePagesFrom invalidates only the mapped pages it frees (reporting
    // their blocks to the journal); the range also drops cached hole pages.
    const uint64_t first_dead_page = CeilDiv(new_size, params_.block_size);
    io->drop_ranges.push_back({ino, first_dead_page, PageEnd(*inode)});
    FreePagesFrom(*inode, first_dead_page, io);
  }
  inode->size = new_size;
  inode->mtime = Now();
  io->AddMetaWrite(inode->itable_block);
  return FsStatus::kOk;
}

uint64_t FileSystem::PageEnd(const Inode& inode) const {
  uint64_t end = std::max<uint64_t>(CeilDiv(inode.size, params_.block_size),
                                    inode.block_map.size());
  if (!inode.extents.empty()) {
    const FileExtent& last = inode.extents.back();
    end = std::max(end, last.first_page + last.extent.count);
  }
  return end;
}

void FileSystem::AppendMetadataBlocks(std::vector<BlockId>* blocks) const {
  // Pass 0: group descriptors — both bitmaps and the inode table of every
  // group (fsck reads them all; it cannot know which are live).
  for (uint64_t group = 0; group < group_inode_counts_.size(); ++group) {
    blocks->push_back(BlockBitmapBlock(group));
    blocks->push_back(InodeBitmapBlock(group));
    for (uint64_t b = 0; b < params_.inode_table_blocks; ++b) {
      blocks->push_back(InodeTableStart(group) + b);
    }
  }
  // Pass 1+2: every inode's mapping meta blocks, and directory contents.
  for (const Inode& inode : inodes_) {
    for (const BlockId block : inode.indirect_blocks) {
      if (block != kInvalidBlock) {
        blocks->push_back(block);
      }
    }
    for (const BlockId block : inode.extent_meta_blocks) {
      blocks->push_back(block);
    }
    if (inode.type == FileType::kDirectory) {
      for (const BlockId block : inode.block_map) {
        if (block != kInvalidBlock) {
          blocks->push_back(block);
        }
      }
      for (const FileExtent& extent : inode.extents) {
        for (uint64_t i = 0; i < extent.extent.count; ++i) {
          blocks->push_back(extent.extent.start + i);
        }
      }
    }
  }
}

bool FileSystem::CheckConsistency(std::string* error) const {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };

  if (inodes_.Find(kRootInode) == nullptr) {
    return fail("missing root inode");
  }

  // Every owned block allocated exactly once; totals match the allocator.
  std::unordered_set<BlockId> seen;
  uint64_t owned = 0;
  for (const Inode& inode : inodes_) {
    std::vector<BlockId> blocks;
    AppendOwnedBlocks(inode, &blocks);
    for (BlockId b : blocks) {
      if (b == kInvalidBlock) {
        continue;
      }
      if (!alloc_.IsAllocated(b)) {
        return fail("inode " + std::to_string(inode.ino) + " references unallocated block " +
                    std::to_string(b));
      }
      if (!seen.insert(b).second) {
        return fail("block " + std::to_string(b) + " owned twice");
      }
      ++owned;
    }
    if (inode.allocated_blocks != blocks.size()) {
      return fail("inode " + std::to_string(inode.ino) + " allocated_blocks mismatch");
    }
  }
  if (owned + reserved_blocks_ != alloc_.used_blocks()) {
    return fail("allocator accounting mismatch: owned=" + std::to_string(owned) +
                " reserved=" + std::to_string(reserved_blocks_) +
                " used=" + std::to_string(alloc_.used_blocks()));
  }
  if (!alloc_.CheckInvariants()) {
    return fail("allocator bitmap/group counters inconsistent");
  }

  // Directory structure: every entry resolves to a live inode; every
  // directory inode owns a Directory (and only directories do).
  for (const Inode& inode : inodes_) {
    if (inode.type != FileType::kDirectory) {
      if (inode.dir != nullptr) {
        return fail("non-directory inode " + std::to_string(inode.ino) +
                    " carries directory contents");
      }
      continue;
    }
    if (inode.dir == nullptr) {
      return fail("directory inode " + std::to_string(inode.ino) + " has no directory table");
    }
    for (const std::string& name : inode.dir->List()) {
      const std::optional<InodeId> child = inode.dir->Lookup(name);
      if (!child.has_value() || inodes_.Find(*child) == nullptr) {
        return fail("dangling dirent '" + name + "' in dir " + std::to_string(inode.ino));
      }
    }
  }
  return true;
}

}  // namespace fsbench
