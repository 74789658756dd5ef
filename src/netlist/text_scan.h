#pragma once
// Lexing pieces shared by the netlist readers (bench_io, verilog_io): the
// whitespace set, a whole-stream read, and the name table that resolves
// signal names. Both readers parse one contiguous buffer and keep names
// as std::string_views into it, so nothing here copies a name.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
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
/// The batch forms hash a few names ahead and prefetch their slots, so on
/// a table larger than the cache their misses overlap instead of queueing;
/// at 200k names that makes them about three times faster per name.
class NameTable {
 public:
  /// Sized so that `expected` names fit without growing.
  explicit NameTable(std::size_t expected = 0);

  /// The id stored for `name`, or kInvalidNode.
  NodeId find(std::string_view name) const noexcept;

  /// ids[i] = find(names[i]) for every i.
  void find_all(const std::vector<std::string_view>& names,
                std::vector<NodeId>& ids) const;

  /// Maps `name` to `id` (which must not be kInvalidNode) unless `name` is
  /// already present; returns whether it inserted.
  bool insert(std::string_view name, NodeId id);

  /// Inserts names[i] -> first_id + i in order, stopping at the first name
  /// already present. Returns that name's index, or names.size().
  std::size_t insert_all(const std::vector<std::string_view>& names,
                         NodeId first_id);

  bool contains(std::string_view name) const noexcept {
    return find(name) != kInvalidNode;
  }

 private:
  static constexpr std::size_t kInline = 16;

  struct alignas(32) Slot {
    std::uint64_t hash = 0;
    std::uint32_t size = 0;
    NodeId id = kInvalidNode;  // kInvalidNode marks an empty slot
    char key[kInline] = {};    // the bytes, zero-padded, or a const char*
  };

  /// A name's hash and inline key, computed before its slot is probed.
  struct Hashed {
    std::uint64_t hash;
    char key[kInline];
  };

  static Hashed hash_name(std::string_view name) noexcept;
  /// The slot holding `name`, or the empty slot where it would go.
  std::size_t probe(std::string_view name,
                    const Hashed& hashed) const noexcept;
  /// Calls visit(i, hashed) for each names[i] in order, hashing and
  /// prefetching kAhead names ahead; stops early when visit returns false.
  template <typename Visit>
  void pipeline(const std::vector<std::string_view>& names,
                Visit visit) const;
  void store(std::size_t at, std::string_view name, const Hashed& hashed,
             NodeId id);
  /// Grows until `entries` names fit at a load factor of at most 1/2.
  void fit(std::size_t entries);

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gcnt
