// Shared simulator types: status codes, result wrapper, identifiers.
#ifndef SRC_SIM_TYPES_H_
#define SRC_SIM_TYPES_H_

#include <cstdint>
#include <string>

#include "src/util/units.h"

namespace fsbench {

// Inode number. 0 is reserved as "invalid"; the root directory is 1, matching
// ext2 convention closely enough to read naturally.
using InodeId = uint64_t;
inline constexpr InodeId kInvalidInode = 0;
inline constexpr InodeId kRootInode = 1;

// Hash of an inode id for the open-addressing indexes (src/sim/flat_index.h).
// Sequential ids need mixing before masking or consecutive files would form
// one long probe run (same lesson as PageKeyHash's finalizer).
inline uint64_t HashInode(InodeId ino) {
  uint64_t h = ino * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return h;
}

// Device block number (file-system block, not sector).
using BlockId = uint64_t;
inline constexpr BlockId kInvalidBlock = ~0ULL;

// File-system level status codes, deliberately errno-flavoured.
enum class FsStatus {
  kOk,
  kNotFound,    // ENOENT
  kExists,      // EEXIST
  kNoSpace,     // ENOSPC
  kIoError,     // EIO (e.g. injected disk fault)
  kNotDir,      // ENOTDIR
  kIsDir,       // EISDIR
  kNotEmpty,    // ENOTEMPTY
  kBadHandle,   // EBADF
  kInvalid,     // EINVAL
  kReadOnly,    // EROFS (fs remounted read-only after a metadata/log failure)
};

// Human-readable name for an FsStatus ("kOk" -> "OK", etc.).
const char* FsStatusName(FsStatus status);

// Tiny result type: a status plus a value that is meaningful only when
// status == kOk. Kept trivially copyable on purpose.
template <typename T>
struct FsResult {
  FsStatus status = FsStatus::kInvalid;
  T value{};

  bool ok() const { return status == FsStatus::kOk; }

  static FsResult Ok(T v) { return FsResult{FsStatus::kOk, std::move(v)}; }
  static FsResult Error(FsStatus s) { return FsResult{s, T{}}; }
};

// File type stored in an inode.
enum class FileType : uint8_t {
  kRegular,
  kDirectory,
};

// stat(2)-style attributes.
struct FileAttr {
  InodeId ino = kInvalidInode;
  FileType type = FileType::kRegular;
  Bytes size = 0;
  uint64_t allocated_blocks = 0;
  uint32_t link_count = 0;
  Nanos mtime = 0;
  Nanos ctime = 0;
};

// A contiguous run of device blocks.
struct Extent {
  BlockId start = kInvalidBlock;
  uint64_t count = 0;

  bool operator==(const Extent& other) const = default;
};

// One cacheable page an operation touches: identified by (ino, index) for
// the page cache and by `block` for the device. FS-global meta-data
// (bitmaps, inode tables, indirect blocks, btree nodes) is keyed under
// kMetaInode with index == block. Lives here (not filesystem.h) because the
// transaction log tracks checkpoint targets as MetaRefs too.
struct MetaRef {
  InodeId ino = kInvalidInode;
  uint64_t index = 0;
  BlockId block = kInvalidBlock;
};

}  // namespace fsbench

#endif  // SRC_SIM_TYPES_H_
