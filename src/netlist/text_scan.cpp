#include "netlist/text_scan.h"

#include <algorithm>
#include <cstring>
#include <istream>

namespace gcnt {

namespace {

std::uint64_t mix(std::uint64_t h) noexcept {  // murmur3 fmix64
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// How many names the batch forms hash and prefetch ahead of the probe.
constexpr std::size_t kAhead = 16;

}  // namespace

std::string read_stream(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

NameTable::NameTable(std::size_t expected) {
  slots_.resize(16);
  mask_ = slots_.size() - 1;
  fit(expected);
}

/// Eight bytes at a time; the first 16 bytes, zero-padded, are the key.
NameTable::Hashed NameTable::hash_name(std::string_view name) noexcept {
  Hashed hashed{};
  if (!name.empty()) {
    std::memcpy(hashed.key, name.data(), std::min(name.size(), kInline));
  }
  const char* p = name.data();
  std::size_t n = name.size();
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = mix(h ^ word);
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  hashed.hash = mix(h ^ tail);
  return hashed;
}

std::size_t NameTable::probe(std::string_view name,
                             const Hashed& hashed) const noexcept {
  for (std::size_t at = hashed.hash & mask_;; at = (at + 1) & mask_) {
    const Slot& slot = slots_[at];
    if (slot.id == kInvalidNode) return at;
    if (slot.hash != hashed.hash || slot.size != name.size()) continue;
    if (name.size() <= kInline) {
      if (std::memcmp(slot.key, hashed.key, kInline) == 0) return at;
      continue;
    }
    const char* data = nullptr;
    std::memcpy(&data, slot.key, sizeof data);
    if (std::memcmp(data, name.data(), name.size()) == 0) return at;
  }
}

template <typename Visit>
void NameTable::pipeline(const std::vector<std::string_view>& names,
                         Visit visit) const {
  Hashed ring[kAhead] = {};
  const auto stage = [&](std::size_t i) {
    ring[i % kAhead] = hash_name(names[i]);
    __builtin_prefetch(&slots_[ring[i % kAhead].hash & mask_]);
  };
  for (std::size_t i = 0; i < std::min(kAhead, names.size()); ++i) stage(i);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Hashed hashed = ring[i % kAhead];
    if (i + kAhead < names.size()) stage(i + kAhead);
    if (!visit(i, hashed)) return;
  }
}

void NameTable::store(std::size_t at, std::string_view name,
                      const Hashed& hashed, NodeId id) {
  Slot& slot = slots_[at];
  slot.hash = hashed.hash;
  slot.size = static_cast<std::uint32_t>(name.size());
  slot.id = id;
  std::memcpy(slot.key, hashed.key, kInline);
  if (name.size() > kInline) {
    const char* data = name.data();
    std::memcpy(slot.key, &data, sizeof data);
  }
  ++count_;
}

NodeId NameTable::find(std::string_view name) const noexcept {
  return slots_[probe(name, hash_name(name))].id;
}

void NameTable::find_all(const std::vector<std::string_view>& names,
                         std::vector<NodeId>& ids) const {
  ids.resize(names.size());
  pipeline(names, [&](std::size_t i, const Hashed& hashed) {
    ids[i] = slots_[probe(names[i], hashed)].id;
    return true;
  });
}

bool NameTable::insert(std::string_view name, NodeId id) {
  fit(count_ + 1);
  const Hashed hashed = hash_name(name);
  const std::size_t at = probe(name, hashed);
  if (slots_[at].id != kInvalidNode) return false;
  store(at, name, hashed, id);
  return true;
}

std::size_t NameTable::insert_all(const std::vector<std::string_view>& names,
                                  NodeId first_id) {
  fit(count_ + names.size());
  std::size_t stopped = names.size();
  pipeline(names, [&](std::size_t i, const Hashed& hashed) {
    const std::size_t at = probe(names[i], hashed);
    if (slots_[at].id != kInvalidNode) {
      stopped = i;
      return false;
    }
    store(at, names[i], hashed, first_id + static_cast<NodeId>(i));
    return true;
  });
  return stopped;
}

void NameTable::fit(std::size_t entries) {
  std::size_t capacity = slots_.size();
  while (capacity < 2 * entries) capacity *= 2;
  if (capacity == slots_.size()) return;
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  mask_ = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidNode) continue;
    std::size_t at = slot.hash & mask_;
    while (slots_[at].id != kInvalidNode) at = (at + 1) & mask_;
    slots_[at] = slot;
  }
}

}  // namespace gcnt
