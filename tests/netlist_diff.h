#pragma once
// Helpers for the differential reader tests: a field-by-field netlist
// comparison, a parse outcome (netlist or typed error) that two readers
// must agree on, and the random text mutation the parser fuzzers apply.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "netlist/netlist.h"

namespace gcnt {

/// Two adjacency lists, element by element.
inline void expect_same_list(std::span<const NodeId> got,
                             std::span<const NodeId> want, const char* what,
                             NodeId v) {
  ASSERT_EQ(got.size(), want.size()) << what << " count of node " << v;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " " << i << " of node " << v;
  }
}

/// Every observable field: ids, types, names, fanin and fanout order, and
/// the PI/PO/DFF/OP lists.
inline void expect_same_netlist(const Netlist& got, const Netlist& want) {
  ASSERT_EQ(got.name(), want.name());
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.edge_count(), want.edge_count());
  for (NodeId v = 0; v < want.size(); ++v) {
    ASSERT_EQ(got.type(v), want.type(v)) << "node " << v;
    ASSERT_EQ(got.node_name(v), want.node_name(v)) << "node " << v;
    expect_same_list(got.fanins(v), want.fanins(v), "fanin", v);
    expect_same_list(got.fanouts(v), want.fanouts(v), "fanout", v);
  }
  EXPECT_EQ(got.primary_inputs(), want.primary_inputs());
  EXPECT_EQ(got.primary_outputs(), want.primary_outputs());
  EXPECT_EQ(got.flip_flops(), want.flip_flops());
  EXPECT_EQ(got.observe_points(), want.observe_points());
}

/// What a reader made of one input: a netlist, or a typed error. Any
/// other exception escapes and fails the test.
struct ParseOutcome {
  std::optional<Netlist> netlist;
  std::optional<ErrorKind> kind;
  std::string message;
};

template <typename Read>
ParseOutcome parse_outcome(Read read) {
  try {
    return ParseOutcome{read(), std::nullopt, {}};
  } catch (const Error& e) {
    return ParseOutcome{std::nullopt, e.kind(), e.what()};
  }
}

inline void expect_same_outcome(const ParseOutcome& got,
                                const ParseOutcome& want) {
  ASSERT_EQ(got.kind, want.kind) << got.message << " vs " << want.message;
  EXPECT_EQ(got.message, want.message);
  ASSERT_EQ(got.netlist.has_value(), want.netlist.has_value());
  if (want.netlist) expect_same_netlist(*got.netlist, *want.netlist);
}

/// Applies one random text mutation (delete / duplicate / corrupt a span /
/// swap two characters). The noise alphabet holds the readers' punctuation
/// plus CR, tab and NUL.
inline std::string mutate(const std::string& text, Rng& rng) {
  if (text.empty()) return text;
  std::string out = text;
  const std::size_t pos = rng.below(out.size());
  const std::size_t span = 1 + rng.below(24);
  switch (rng.below(4)) {
    case 0:  // delete span
      out.erase(pos, span);
      break;
    case 1:  // duplicate span
      out.insert(pos, out.substr(pos, span));
      break;
    case 2: {  // overwrite with noise
      static const char noise[] = "(),=# \nXYZ09\r\t";
      constexpr std::size_t kNoise = sizeof(noise);  // the NUL counts too
      for (std::size_t i = pos; i < std::min(out.size(), pos + span); ++i) {
        out[i] = noise[rng.below(kNoise)];
      }
      break;
    }
    default:  // swap two characters
      if (out.size() > 1) {
        std::swap(out[pos], out[rng.below(out.size())]);
      }
      break;
  }
  return out;
}

}  // namespace gcnt
