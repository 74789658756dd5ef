#pragma once
// Lexing pieces shared by the netlist readers (bench_io, verilog_io): the
// whitespace set, a whole-stream read, and the name table that resolves
// signal names. Both readers parse one contiguous buffer and keep names
// as std::string_views into it, so nothing here copies a name.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.h"

namespace gcnt {

/// The C-locale isspace set: space, \t, \n, \v, \f, \r.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Reads `in` to its end.
std::string read_stream(std::istream& in);

/// Open-addressing map from a name to a NodeId. Each slot stores its key's
/// hash, so probes compare hashes before bytes and growth never rehashes
/// a key. A key of up to 16 bytes is stored in its slot; a longer one is
/// a view the caller keeps alive. A lookup of a short name therefore
/// touches one slot and no other memory.
///
/// A table sized for many names is split into partitions by the top bits
/// of the hash; each partition is an open-addressing table of its own.
/// insert_all runs the partitions as kernel-pool blocks: every partition
/// inserts its own names in the order given, with no locks, so a name
/// repeated anywhere in the batch is still found at its second
/// occurrence. find_all runs blocks of the names in parallel against the
/// read-only table. The ids stored never depend on the partitioning.
///
/// The batch forms hash a few names ahead and prefetch their slots, so on
/// a table larger than the cache their misses overlap instead of queueing;
/// at 200k names that makes them about three times faster per name.
class NameTable {
 public:
  /// Sized so that `expected` names fit without growing.
  explicit NameTable(std::size_t expected = 0);

  /// The id stored for `name`, or kInvalidNode.
  NodeId find(std::string_view name) const noexcept;

  /// ids[i] = find(names[i]) for every i; `ids` has room for them all.
  void find_all(std::span<const std::string_view> names,
                std::span<NodeId> ids) const;

  /// Maps `name` to `id` (which must not be kInvalidNode) unless `name` is
  /// already present; returns whether it inserted.
  bool insert(std::string_view name, NodeId id);

  /// Inserts names[i] -> first_id + i in order and returns the smallest i
  /// whose name was already present (in the table, or earlier in
  /// `names`), or names.size(). Names past that index are inserted in
  /// the other partitions, so after a stop the table only answers for
  /// names before it.
  std::size_t insert_all(std::span<const std::string_view> names,
                         NodeId first_id);

  bool contains(std::string_view name) const noexcept {
    return find(name) != kInvalidNode;
  }

 private:
  static constexpr std::size_t kInline = 16;

  struct alignas(32) Slot {
    std::uint64_t hash;
    std::uint32_t size;
    NodeId id;          // kInvalidNode marks an empty slot
    char key[kInline];  // the bytes, zero-padded, or a const char*
  };

  /// A name's hash and inline key, computed before its slot is probed.
  struct Hashed {
    std::uint64_t hash;
    char key[kInline];
  };

  /// One open-addressing table over the names whose hash selects it;
  /// aligned so that partitions filled side by side share no cache line.
  struct alignas(64) Partition {
    std::unique_ptr<Slot[]> slots;  // mask + 1 of them
    std::size_t mask = 0;
    std::size_t count = 0;

    /// Replaces the slots by `capacity` (a power of two) unwritten ones.
    void allocate(std::size_t capacity);
    /// Empties every slot.
    void clear() noexcept;
    /// The slot holding `name`, or the empty slot where it would go.
    std::size_t probe(std::string_view name,
                      const Hashed& hashed) const noexcept;
    void store(std::size_t at, std::string_view name, const Hashed& hashed,
               NodeId id);
    /// Grows until `entries` names fit at a load factor of at most 3/4.
    void fit(std::size_t entries);
  };

  static std::uint64_t hash_of(std::string_view name) noexcept;
  /// `name` with its hash and inline key.
  static Hashed keyed(std::string_view name, std::uint64_t hash) noexcept;
  /// The partition of a hash: its top byte, masked to the partition
  /// count (slots are picked by the low bits).
  std::size_t partition_of(std::uint64_t hash) const noexcept {
    return (hash >> 56) & (parts_.size() - 1);
  }
  /// Calls visit(i, hashed) for each names[i], i in [begin, end), in
  /// order, hashing and prefetching kAhead names ahead.
  template <typename Visit>
  void pipeline(std::span<const std::string_view> names, std::size_t begin,
                std::size_t end, Visit visit) const;

  std::vector<Partition> parts_;  // a power of two of them
};

}  // namespace gcnt
