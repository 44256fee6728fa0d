// In-memory directory contents with an on-disk cost model.
//
// Entries live in slots; a removed entry leaves a reusable hole, as ext2
// dirent reuse does. The slot position determines which directory block an
// entry occupies, which in turn determines how many block reads a linear
// scan needs to find it.
//
// The name index is a FlatIndex (src/sim/flat_index.h) of slot ids, with
// each slot caching its name's hash: a lookup costs one mask, a cached-hash
// compare and (on match) one string compare — no prime modulo, no node
// chase, no per-entry heap node.
// Lookups take std::string_view, so path resolution probes with components
// pointing straight into the path being walked; only mutations copy the
// name, which they must anyway for storage.
#ifndef SRC_SIM_DIRECTORY_H_
#define SRC_SIM_DIRECTORY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/flat_index.h"
#include "src/sim/types.h"

namespace fsbench {

class Directory {
 public:
  // Returns false if the name already exists.
  bool Insert(std::string_view name, InodeId ino);

  // Returns the removed inode, or std::nullopt if absent.
  std::optional<InodeId> Remove(std::string_view name);

  std::optional<InodeId> Lookup(std::string_view name) const;

  // Slot index of `name` (for the linear-scan cost model), or std::nullopt.
  std::optional<uint64_t> SlotOf(std::string_view name) const;

  // Slot and inode together from a single index probe — the resolution hot
  // path needs both (slot for the scan-cost model, ino for the result).
  struct Entry {
    uint64_t slot = 0;
    InodeId ino = kInvalidInode;
  };
  std::optional<Entry> Find(std::string_view name) const {
    const uint32_t id = index_.at(Probe(name, HashName(name)));
    if (id == FlatIndex::kEmpty) {
      return std::nullopt;
    }
    return Entry{id, slots_[id].ino};
  }

  // Number of live entries.
  size_t entry_count() const { return index_.size(); }

  // Number of slots in use including holes; determines block count.
  uint64_t slot_count() const { return slots_.size(); }

  // Live names in slot order.
  std::vector<std::string> List() const;

 private:
  struct Slot {
    std::string name;  // empty == hole
    InodeId ino = kInvalidInode;
    size_t hash = 0;  // cached hash of `name` (valid when not a hole)
  };

  // Inline FNV-1a with a murmur-style finisher. Component names are a few
  // bytes; std::hash<string_view> would be an out-of-line _Hash_bytes call
  // per probe. This hash is internal to the index (never part of the
  // simulated cost model — the xfs btree leaf choice keeps std::hash).
  static size_t HashName(std::string_view name) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  // Index position holding `name`, or the first empty position of its run.
  // (Inline: this is the per-path-component probe on the resolution hot
  // path, and its callers below inline into the file-system lookup.)
  size_t Probe(std::string_view name, size_t hash) const {
    return index_.Probe(hash, [this, name, hash](uint32_t id) {
      return slots_[id].hash == hash && slots_[id].name == name;
    });
  }

  std::vector<Slot> slots_;
  std::vector<uint64_t> holes_;  // indices of free slots, reused LIFO
  FlatIndex index_;              // slot ids of live entries
};

}  // namespace fsbench

#endif  // SRC_SIM_DIRECTORY_H_
