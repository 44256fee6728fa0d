// Ext2-like file system: block-mapped inodes (12 direct pointers, then
// single/double/triple indirect blocks), goal-directed block allocation
// inside the parent's block group, linear directory scans, no journal,
// conservative readahead.
#ifndef SRC_SIM_EXT2FS_H_
#define SRC_SIM_EXT2FS_H_

#include <string>
#include <vector>

#include "src/sim/filesystem.h"

namespace fsbench {

class Ext2Fs : public FileSystem {
 public:
  Ext2Fs(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock);

  const char* name() const override { return "ext2"; }
  FsKind kind() const override { return FsKind::kExt2; }

  ReadaheadConfig readahead_config() const override {
    // Modest read-around cluster; Linux-style ramping window on sequential.
    return ReadaheadConfig{ReadaheadKind::kAdaptive, /*fixed_pages=*/8, /*min_window=*/4,
                           /*max_window=*/32, /*random_cluster=*/2};
  }

  // errors=continue: with no journal there is no atomicity to protect, so a
  // lost metadata write is counted and the file system soldiers on.
  bool RemountRoOnWriteError() const override { return false; }

  // Deepest possible indirect chain: single, double root+leaf, triple
  // root+mid+leaf.
  static constexpr uint32_t kMaxIndirectDepth = 3;

  // Indirect-block slot numbering for `page`: fills `slots` (at least
  // kMaxIndirectDepth entries) with indices into Inode::indirect_blocks and
  // returns the chain depth.
  uint32_t IndirectSlotsInto(uint64_t page, uint64_t* slots) const;

 protected:
  FsResult<BlockId> MapPageFor(const Inode& inode, uint64_t page_index, MetaIo* io) override;
  FsResult<BlockId> AllocatePageFor(Inode& inode, uint64_t page_index, MetaIo* io) override;
  // Linear scan: a positive lookup reads the directory pages up to and
  // including the entry's page, a negative one reads all of them, each page
  // after what MapPageFor charges for it. Two or more mapped pages in a row
  // that share an indirect chain are emitted as one MetaRun; a hole ends it.
  void ChargeDirLookup(const Inode& dir_inode, const Directory& dir, std::string_view name,
                       std::optional<uint64_t> slot, MetaIo* io) override;
  void FreeAllBlocks(Inode& inode, MetaIo* io) override;
  void FreePagesFrom(Inode& inode, uint64_t first_page, MetaIo* io) override;
  void AppendOwnedBlocks(const Inode& inode, std::vector<BlockId>* blocks) const override;

  // Appends the reads that map `page_index`: the inode-table block, then
  // the page's indirect chain.
  void AddMappingReads(const Inode& inode, uint64_t page_index, MetaIo* io) const;

  // Allocation goal for the next data block of `inode` at `page`.
  BlockId DataGoal(const Inode& inode, uint64_t page) const;

  // Ensures the indirect chain for `page` exists; charges meta writes.
  FsStatus EnsureIndirectChain(Inode& inode, uint64_t page, MetaIo* io);

  uint64_t pointers_per_block() const { return params_.block_size / 4; }
  uint64_t direct_pages() const { return 12; }
};

}  // namespace fsbench

#endif  // SRC_SIM_EXT2FS_H_
