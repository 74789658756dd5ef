#include "netlist/text_scan.h"

#include <algorithm>
#include <cstring>
#include <istream>

#include "common/parallel.h"

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

std::uint64_t load8(const char* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

/// The n <= 8 bytes at p, zero-extended, as memcpy into a zeroed word
/// gives them on a little-endian host, from fixed-size loads only: two
/// overlapping four-byte loads, or the first, middle and last byte.
std::uint64_t load_small(const char* p, std::size_t n) noexcept {
  if (n >= 4) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    return lo | std::uint64_t{hi} << (8 * (n - 4));
  }
  if (n == 0) return 0;
  const auto byte = [&](std::size_t i) {
    return std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  };
  return byte(0) | byte(n / 2) | byte(n - 1);
}

/// How many names the batch forms hash and prefetch ahead of the probe.
constexpr std::size_t kAhead = 16;

/// A table expecting this many names is partitioned, and a batch this
/// long runs on the kernel pool; smaller ones stay on the calling thread.
constexpr std::size_t kMinParallelNames = 1 << 13;

/// Partitions of a large table: a power of two, and more than the kernel
/// threads of a common host, so insert_all has a block for each.
constexpr std::size_t kPartitions = 16;

/// Slots for `entries` names at a load factor of at most 3/4.
std::size_t capacity_for(std::size_t entries) {
  std::size_t capacity = 16;
  while (3 * capacity < 4 * entries) capacity *= 2;
  return capacity;
}

}  // namespace

std::string read_stream(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

NameTable::NameTable(std::size_t expected)
    : parts_(expected >= kMinParallelNames ? kPartitions : 1) {
  const std::size_t share = (expected + parts_.size() - 1) / parts_.size();
  for (Partition& part : parts_) part.allocate(capacity_for(share));
  // Each partition's slots are first written by the block that owns it.
  run_blocks(plan_blocks(parts_.size(), 2),
             [&](std::size_t, std::size_t first, std::size_t last) {
               for (std::size_t p = first; p < last; ++p) parts_[p].clear();
             });
}

std::uint64_t NameTable::hash_of(std::string_view name) noexcept {
  // Eight bytes at a time.
  const char* p = name.data();
  std::size_t n = name.size();
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  for (; n >= 8; p += 8, n -= 8) h = mix(h ^ load8(p));
  return mix(h ^ load_small(p, n));
}

/// The first 16 bytes, zero-padded, are the key.
NameTable::Hashed NameTable::keyed(std::string_view name,
                                   std::uint64_t hash) noexcept {
  const char* p = name.data();
  const std::size_t n = name.size();
  const std::uint64_t words[2] = {
      n >= 8 ? load8(p) : load_small(p, n),
      n >= 16 ? load8(p + 8) : n > 8 ? load_small(p + 8, n - 8) : 0};
  Hashed hashed;
  hashed.hash = hash;
  std::memcpy(hashed.key, words, kInline);
  return hashed;
}

void NameTable::Partition::allocate(std::size_t capacity) {
  slots = std::make_unique_for_overwrite<Slot[]>(capacity);
  mask = capacity - 1;
}

void NameTable::Partition::clear() noexcept {
  std::fill_n(slots.get(), mask + 1, Slot{0, 0, kInvalidNode, {}});
}

std::size_t NameTable::Partition::probe(std::string_view name,
                                        const Hashed& hashed) const noexcept {
  for (std::size_t at = hashed.hash & mask;; at = (at + 1) & mask) {
    const Slot& slot = slots[at];
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

void NameTable::Partition::store(std::size_t at, std::string_view name,
                                 const Hashed& hashed, NodeId id) {
  Slot& slot = slots[at];
  slot.hash = hashed.hash;
  slot.size = static_cast<std::uint32_t>(name.size());
  slot.id = id;
  std::memcpy(slot.key, hashed.key, kInline);
  if (name.size() > kInline) {
    const char* data = name.data();
    std::memcpy(slot.key, &data, sizeof data);
  }
  ++count;
}

void NameTable::Partition::fit(std::size_t entries) {
  const std::size_t capacity = capacity_for(entries);
  if (capacity <= mask + 1) return;
  const std::unique_ptr<Slot[]> old = std::move(slots);
  const std::size_t old_capacity = mask + 1;
  allocate(capacity);
  clear();
  for (std::size_t i = 0; i < old_capacity; ++i) {
    const Slot& slot = old[i];
    if (slot.id == kInvalidNode) continue;
    std::size_t at = slot.hash & mask;
    while (slots[at].id != kInvalidNode) at = (at + 1) & mask;
    slots[at] = slot;
  }
}

template <typename Visit>
void NameTable::pipeline(std::span<const std::string_view> names,
                         std::size_t begin, std::size_t end,
                         Visit visit) const {
  Hashed ring[kAhead] = {};
  const auto stage = [&](std::size_t i) {
    Hashed& hashed = ring[i % kAhead];
    hashed = keyed(names[i], hash_of(names[i]));
    const Partition& part = parts_[partition_of(hashed.hash)];
    __builtin_prefetch(&part.slots[hashed.hash & part.mask]);
  };
  for (std::size_t i = begin; i < std::min(begin + kAhead, end); ++i) stage(i);
  for (std::size_t i = begin; i < end; ++i) {
    const Hashed hashed = ring[i % kAhead];
    if (i + kAhead < end) stage(i + kAhead);
    visit(i, hashed);
  }
}

NodeId NameTable::find(std::string_view name) const noexcept {
  const Hashed hashed = keyed(name, hash_of(name));
  const Partition& part = parts_[partition_of(hashed.hash)];
  return part.slots[part.probe(name, hashed)].id;
}

void NameTable::find_all(std::span<const std::string_view> names,
                         std::span<NodeId> ids) const {
  run_blocks(plan_blocks(names.size(), kMinParallelNames),
             [&](std::size_t, std::size_t begin, std::size_t end) {
               pipeline(names, begin, end,
                        [&](std::size_t i, const Hashed& hashed) {
                          const Partition& part =
                              parts_[partition_of(hashed.hash)];
                          ids[i] = part.slots[part.probe(names[i], hashed)].id;
                        });
             });
}

bool NameTable::insert(std::string_view name, NodeId id) {
  const Hashed hashed = keyed(name, hash_of(name));
  Partition& part = parts_[partition_of(hashed.hash)];
  part.fit(part.count + 1);
  const std::size_t at = part.probe(name, hashed);
  if (part.slots[at].id != kInvalidNode) return false;
  part.store(at, name, hashed, id);
  return true;
}

std::size_t NameTable::insert_all(std::span<const std::string_view> names,
                                  NodeId first_id) {
  const std::size_t n = names.size();
  const std::size_t parts = parts_.size();
  // Hash every name once, counting each partition's share per block, so
  // every partition is sized here, on the calling thread.
  const BlockPlan by_name = plan_blocks(n, kMinParallelNames);
  std::vector<std::uint64_t> hashes(n);
  std::vector<std::size_t> shares(by_name.count * parts, 0);
  run_blocks(by_name, [&](std::size_t block, std::size_t begin,
                          std::size_t end) {
    std::size_t share[kPartitions] = {};
    for (std::size_t i = begin; i < end; ++i) {
      hashes[i] = hash_of(names[i]);
      ++share[partition_of(hashes[i])];
    }
    std::copy_n(share, parts, shares.data() + block * parts);
  });
  for (std::size_t p = 0; p < parts; ++p) {
    std::size_t share = 0;
    for (std::size_t b = 0; b < by_name.count; ++b) share += shares[b * parts + p];
    parts_[p].fit(parts_[p].count + share);
  }

  // Each block owns a range of partitions and walks the names in order,
  // inserting its own, kAhead of them prefetched ahead of the probe. A
  // partition stops at its first repeated name; every other name of that
  // repeat is in the same partition, so the smallest stop is the first
  // repeat in order.
  std::vector<std::size_t> stopped(parts, n);
  const BlockPlan by_part =
      plan_blocks(parts, by_name.count > 1 ? 1 : parts + 1);
  run_blocks(by_part, [&](std::size_t, std::size_t first, std::size_t last) {
    const auto mine = [&](std::size_t i) {
      const std::size_t p = partition_of(hashes[i]);
      return p >= first && p < last;
    };
    std::size_t ring[kAhead];
    std::size_t next = 0, staged = 0, done = 0;
    const auto stage = [&] {
      while (next < n && !mine(next)) ++next;
      if (next == n) return false;
      const Partition& part = parts_[partition_of(hashes[next])];
      __builtin_prefetch(&part.slots[hashes[next] & part.mask]);
      ring[staged++ % kAhead] = next++;
      return true;
    };
    while (staged < kAhead && stage()) {
    }
    while (done < staged) {
      const std::size_t i = ring[done++ % kAhead];
      stage();
      const std::size_t p = partition_of(hashes[i]);
      if (stopped[p] != n) continue;
      Partition& part = parts_[p];
      const Hashed hashed = keyed(names[i], hashes[i]);
      const std::size_t at = part.probe(names[i], hashed);
      if (part.slots[at].id != kInvalidNode) {
        stopped[p] = i;
        continue;
      }
      part.store(at, names[i], hashed, first_id + static_cast<NodeId>(i));
    }
  });
  return *std::min_element(stopped.begin(), stopped.end());
}

}  // namespace gcnt
