#include "src/sim/directory.h"

#include "src/util/units.h"

namespace fsbench {

bool Directory::Insert(std::string_view name, InodeId ino) {
  const size_t hash = HashName(name);
  const size_t pos = Probe(name, hash);
  if (index_.at(pos) != FlatIndex::kEmpty) {
    return false;
  }
  uint64_t slot;
  if (!holes_.empty()) {
    slot = holes_.back();
    holes_.pop_back();
    slots_[slot].name.assign(name);
    slots_[slot].ino = ino;
    slots_[slot].hash = hash;
  } else {
    slot = slots_.size();
    slots_.push_back(Slot{std::string(name), ino, hash});
  }
  index_.Insert(pos, static_cast<uint32_t>(slot), hash,
                [this](uint32_t id) { return slots_[id].hash; });
  return true;
}

std::optional<InodeId> Directory::Remove(std::string_view name) {
  const size_t pos = Probe(name, HashName(name));
  const uint32_t slot = index_.at(pos);
  if (slot == FlatIndex::kEmpty) {
    return std::nullopt;
  }
  index_.Erase(pos, [this](uint32_t id) { return slots_[id].hash; });
  const InodeId ino = slots_[slot].ino;
  slots_[slot].name.clear();
  slots_[slot].ino = kInvalidInode;
  holes_.push_back(slot);
  return ino;
}

std::optional<InodeId> Directory::Lookup(std::string_view name) const {
  const std::optional<Entry> entry = Find(name);
  if (!entry.has_value()) {
    return std::nullopt;
  }
  return entry->ino;
}

std::optional<uint64_t> Directory::SlotOf(std::string_view name) const {
  const std::optional<Entry> entry = Find(name);
  if (!entry.has_value()) {
    return std::nullopt;
  }
  return entry->slot;
}

uint64_t Directory::BlockCount(uint64_t entries_per_block) const {
  if (slots_.empty()) {
    return 1;  // an empty directory still occupies one block ("." / "..")
  }
  return CeilDiv(slots_.size(), entries_per_block);
}

std::vector<std::string> Directory::List() const {
  std::vector<std::string> names;
  names.reserve(index_.size());
  for (const Slot& slot : slots_) {
    if (!slot.name.empty()) {
      names.push_back(slot.name);
    }
  }
  return names;
}

}  // namespace fsbench
