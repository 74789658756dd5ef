// Netlist graph structure: construction, ordering, cones, validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "netlist/netlist.h"
#include "netlist/text_scan.h"

namespace gcnt {
namespace {

/// a, b -> AND g1 -> NOT g2 -> PO.
Netlist small_chain() {
  Netlist n("chain");
  const NodeId a = n.add_node(CellType::kInput, "a");
  const NodeId b = n.add_node(CellType::kInput, "b");
  const NodeId g1 = n.add_node(CellType::kAnd, "g1");
  const NodeId g2 = n.add_node(CellType::kNot, "g2");
  const NodeId po = n.add_node(CellType::kOutput, "po");
  n.connect(a, g1);
  n.connect(b, g1);
  n.connect(g1, g2);
  n.connect(g2, po);
  return n;
}

TEST(Netlist, AddNodeAssignsSequentialIds) {
  Netlist n;
  EXPECT_EQ(n.add_node(CellType::kInput), 0u);
  EXPECT_EQ(n.add_node(CellType::kAnd), 1u);
  EXPECT_EQ(n.size(), 2u);
}

TEST(Netlist, AutoNamesAreUnique) {
  Netlist n;
  const NodeId a = n.add_node(CellType::kInput);
  const NodeId b = n.add_node(CellType::kInput);
  EXPECT_NE(n.node_name(a), n.node_name(b));
}

TEST(Netlist, ConnectTracksBothDirections) {
  Netlist n = small_chain();
  EXPECT_EQ(n.fanins(2).size(), 2u);
  EXPECT_EQ(n.fanouts(0).size(), 1u);
  EXPECT_EQ(n.edge_count(), 4u);
}

TEST(Netlist, RoleListsPopulated) {
  Netlist n = small_chain();
  EXPECT_EQ(n.primary_inputs().size(), 2u);
  EXPECT_EQ(n.primary_outputs().size(), 1u);
  EXPECT_TRUE(n.flip_flops().empty());
}

TEST(Netlist, TopologicalOrderRespectsEdges) {
  Netlist n = small_chain();
  const auto order = n.topological_order();
  ASSERT_EQ(order.size(), n.size());
  std::vector<std::size_t> position(n.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (NodeId v = 0; v < n.size(); ++v) {
    for (NodeId u : n.fanins(v)) {
      EXPECT_LT(position[u], position[v]);
    }
  }
}

TEST(Netlist, CombinationalCycleThrows) {
  Netlist n;
  const NodeId g1 = n.add_node(CellType::kAnd, "g1");
  const NodeId g2 = n.add_node(CellType::kAnd, "g2");
  n.connect(g1, g2);
  n.connect(g2, g1);
  EXPECT_THROW(n.topological_order(), std::runtime_error);
}

TEST(Netlist, DffBreaksCycle) {
  // ff -> inc (NOT) -> ff : legal sequential loop.
  Netlist n;
  const NodeId ff = n.add_node(CellType::kDff, "ff");
  const NodeId inv = n.add_node(CellType::kNot, "inv");
  n.connect(ff, inv);
  n.connect(inv, ff);
  EXPECT_NO_THROW(n.topological_order());
  const auto levels = n.logic_levels();
  EXPECT_EQ(levels[ff], 0u);
  EXPECT_EQ(levels[inv], 1u);
}

TEST(Netlist, LogicLevels) {
  Netlist n = small_chain();
  const auto levels = n.logic_levels();
  EXPECT_EQ(levels[0], 0u);  // a
  EXPECT_EQ(levels[2], 1u);  // g1
  EXPECT_EQ(levels[3], 2u);  // g2
  EXPECT_EQ(levels[4], 3u);  // po
}

TEST(Netlist, FaninCone) {
  Netlist n = small_chain();
  auto cone = n.fanin_cone(3);  // g2
  std::sort(cone.begin(), cone.end());
  EXPECT_EQ(cone, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Netlist, FaninConeRespectsLimit) {
  Netlist n = small_chain();
  EXPECT_EQ(n.fanin_cone(3, 1).size(), 1u);
  EXPECT_TRUE(n.fanin_cone(3, 0).empty());
}

/// A random sequential netlist: inputs, DFFs fed by late gates, and
/// gates of one to three distinct earlier fanins.
Netlist random_netlist(std::uint32_t seed) {
  std::mt19937 rng(seed);
  Netlist n;
  std::vector<NodeId> dffs;
  for (int i = 0; i < 12; ++i) n.add_node(CellType::kInput);
  for (int i = 0; i < 10; ++i) dffs.push_back(n.add_node(CellType::kDff));
  const CellType gates[] = {CellType::kAnd, CellType::kOr, CellType::kXor,
                            CellType::kNand};
  for (int i = 0; i < 300; ++i) {
    const std::size_t fanins = 1 + rng() % 3;
    const NodeId g =
        n.add_node(fanins == 1 ? CellType::kNot : gates[rng() % 4]);
    std::vector<NodeId> drivers;
    while (drivers.size() < fanins) {
      const NodeId d = static_cast<NodeId>(rng() % g);
      if (std::find(drivers.begin(), drivers.end(), d) == drivers.end()) {
        drivers.push_back(d);
        n.connect(d, g);
      }
    }
  }
  for (const NodeId dff : dffs) {
    n.connect(static_cast<NodeId>(n.size() - 1 - rng() % 50), dff);
  }
  return n;
}

/// The breadth-first fanin cone as a deque over a bit per node, the form
/// Netlist::fanin_cone had before it took a caller's word per node.
std::vector<NodeId> reference_fanin_cone(const Netlist& n, NodeId root,
                                         std::size_t limit) {
  std::vector<NodeId> cone;
  if (limit == 0) return cone;
  std::vector<bool> seen(n.size(), false);
  seen[root] = true;
  std::deque<NodeId> frontier{root};
  while (!frontier.empty() && cone.size() < limit) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    if (v != root && is_source(n.type(v))) continue;
    for (NodeId u : n.fanins(v)) {
      if (seen[u]) continue;
      seen[u] = true;
      cone.push_back(u);
      if (cone.size() >= limit) break;
      frontier.push_back(u);
    }
  }
  return cone;
}

// The scratch-word form walks the same cone in the same order as the
// deque BFS and marks exactly the root and the cone, so one word array
// serves every root once the caller resets those marks.
TEST(Netlist, FaninConeIntoSeenWordsMatchesFaninCone) {
  constexpr std::uint32_t kFree = ~std::uint32_t{0};
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    const Netlist n = random_netlist(seed);
    std::vector<std::uint32_t> seen(n.size(), kFree);
    std::vector<NodeId> cone{0};  // cleared by the call
    std::size_t largest = 0;
    for (const std::size_t limit : {std::size_t{0}, std::size_t{1},
                                    std::size_t{5}, std::size_t{40},
                                    static_cast<std::size_t>(-1)}) {
      for (NodeId root = 0; root < n.size(); ++root) {
        n.fanin_cone(root, limit, cone, seen, 7);
        ASSERT_EQ(cone, reference_fanin_cone(n, root, limit))
            << "root " << root << " limit " << limit;
        ASSERT_EQ(n.fanin_cone(root, limit), cone);
        largest = std::max(largest, cone.size());
        const auto marked = static_cast<std::size_t>(
            std::count_if(seen.begin(), seen.end(),
                          [](std::uint32_t w) { return w != kFree; }));
        ASSERT_EQ(marked, limit == 0 ? 0 : cone.size() + 1);
        if (limit != 0) {
          EXPECT_EQ(seen[root], 7u);
          seen[root] = kFree;
        }
        for (const NodeId v : cone) {
          EXPECT_EQ(seen[v], 7u);
          seen[v] = kFree;
        }
      }
    }
    EXPECT_GT(largest, 40u);
  }
}

TEST(Netlist, FanoutCone) {
  Netlist n = small_chain();
  auto cone = n.fanout_cone(0);  // a
  std::sort(cone.begin(), cone.end());
  EXPECT_EQ(cone, (std::vector<NodeId>{2, 3, 4}));
}

TEST(Netlist, ConesStopAtSequentialBoundaries) {
  Netlist n;
  const NodeId a = n.add_node(CellType::kInput, "a");
  const NodeId ff = n.add_node(CellType::kDff, "ff");
  const NodeId g = n.add_node(CellType::kBuf, "g");
  const NodeId po = n.add_node(CellType::kOutput, "po");
  n.connect(a, ff);
  n.connect(ff, g);
  n.connect(g, po);
  // Fanout of a reaches the DFF but not through it.
  auto fwd = n.fanout_cone(a);
  EXPECT_EQ(fwd, std::vector<NodeId>{ff});
  // Fanin of g reaches the DFF but not its driver a.
  auto back = n.fanin_cone(g);
  EXPECT_EQ(back, std::vector<NodeId>{ff});
}

TEST(Netlist, InsertObservePoint) {
  Netlist n = small_chain();
  const std::size_t before = n.size();
  const NodeId op = n.insert_observe_point(2);
  EXPECT_EQ(n.size(), before + 1);
  EXPECT_EQ(n.type(op), CellType::kObserve);
  EXPECT_EQ(std::vector<NodeId>(n.fanins(op).begin(), n.fanins(op).end()),
            std::vector<NodeId>{2});
  EXPECT_EQ(n.observe_points(), std::vector<NodeId>{op});
}

TEST(Netlist, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(small_chain().validate().empty());
}

TEST(Netlist, ValidateFlagsBadArity) {
  Netlist n;
  n.add_node(CellType::kAnd, "lonely");  // 0 fanins, needs >= 2
  EXPECT_FALSE(n.validate().empty());
}

TEST(Netlist, ValidateFlagsSinkWithFanout) {
  Netlist n;
  const NodeId a = n.add_node(CellType::kInput, "a");
  const NodeId po = n.add_node(CellType::kOutput, "po");
  const NodeId g = n.add_node(CellType::kBuf, "g");
  n.connect(a, po);
  n.connect(po, g);
  EXPECT_FALSE(n.validate().empty());
}

TEST(CellTypes, ParseRoundTrip) {
  for (int i = 0; i < kCellTypeCount; ++i) {
    const auto type = static_cast<CellType>(i);
    CellType parsed;
    ASSERT_TRUE(parse_cell_type(cell_type_name(type), parsed));
    EXPECT_EQ(parsed, type);
  }
}

TEST(CellTypes, ParseAliasesAndCase) {
  CellType t;
  EXPECT_TRUE(parse_cell_type("buff", t));
  EXPECT_EQ(t, CellType::kBuf);
  EXPECT_TRUE(parse_cell_type("nand", t));
  EXPECT_EQ(t, CellType::kNand);
  EXPECT_FALSE(parse_cell_type("FROB", t));
}

TEST(CellTypes, RoleHelpers) {
  EXPECT_TRUE(is_source(CellType::kInput));
  EXPECT_TRUE(is_source(CellType::kDff));
  EXPECT_FALSE(is_source(CellType::kAnd));
  EXPECT_TRUE(is_sink(CellType::kOutput));
  EXPECT_TRUE(is_sink(CellType::kDff));
  EXPECT_TRUE(is_sink(CellType::kObserve));
  EXPECT_TRUE(is_logic(CellType::kXnor));
  EXPECT_FALSE(is_logic(CellType::kDff));
}

TEST(Netlist, ReserveKeepsStructure) {
  const auto build = [](bool reserve) {
    Netlist n;
    if (reserve) n.reserve(3);
    const NodeId a = n.add_node(CellType::kInput, "a");
    const NodeId g = n.add_node(CellType::kAnd, "g");
    const NodeId y = n.add_node(CellType::kOutput, "y");
    if (reserve) {
      n.reserve_edges(a, 0, 2);
      n.reserve_edges(g, 2, 1);
      n.reserve_edges(y, 1, 0);
    }
    n.connect(a, g);
    n.connect(a, g);
    n.connect(g, y);
    return n;
  };
  const Netlist reserved = build(true);
  const Netlist plain = build(false);
  ASSERT_EQ(reserved.size(), plain.size());
  EXPECT_EQ(reserved.edge_count(), plain.edge_count());
  for (NodeId v = 0; v < plain.size(); ++v) {
    EXPECT_TRUE(std::ranges::equal(reserved.fanins(v), plain.fanins(v)));
    EXPECT_TRUE(std::ranges::equal(reserved.fanouts(v), plain.fanouts(v)));
  }
}

TEST(Netlist, CombinationalCycleIsCorruptInput) {
  Netlist n;
  const NodeId a = n.add_node(CellType::kInput, "a");
  const NodeId g1 = n.add_node(CellType::kAnd, "g1");
  const NodeId g2 = n.add_node(CellType::kOr, "g2");
  n.connect(a, g1);
  n.connect(g2, g1);
  n.connect(a, g2);
  n.connect(g1, g2);
  try {
    (void)n.logic_levels();
    FAIL() << "a cycle must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  }
  const auto problems = n.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems.front().find("combinational cycle"), std::string::npos);
}

// A copy lays its arenas out packed, so the next name or edge it takes must
// grow them. The inputs below are views into those very arenas (run under
// ASan to see a dangling read).
TEST(Netlist, AddNodeCopiesOwnNameWhileArenaGrows) {
  Netlist built = small_chain();
  for (int i = 0; i < 40; ++i) {
    built.add_node(CellType::kInput, "a_name_long_enough_" + std::to_string(i));
  }
  Netlist n = built;  // packed: the name arena is exactly full
  const std::string want(n.node_name(7));
  const NodeId copy = n.add_node(CellType::kBuf, n.node_name(7));
  EXPECT_EQ(n.node_name(copy), want);
  for (NodeId v = 0; v < built.size(); ++v) {
    EXPECT_EQ(n.node_name(v), built.node_name(v));
  }
}

TEST(Netlist, EditsOnExactlyFullArenasKeepNamesAndLists) {
  // g1 drives two consumers, so retargeting them pushes onto the new
  // gate's list (moving the arena) while g1's list is still being read.
  Netlist built = small_chain();
  const NodeId g3 = built.add_node(CellType::kBuf, "g3");
  const NodeId po2 = built.add_node(CellType::kOutput, "po2");
  built.connect(2, g3);
  built.connect(g3, po2);
  for (const bool one : {false, true}) {
    Netlist n = built;  // packed: every list and arena exactly full
    const Netlist::ControlPoint cp = n.insert_control_point(2, one);
    EXPECT_EQ(n.node_name(cp.control), "cp_g1");
    EXPECT_EQ(n.node_name(cp.gate), one ? "cp1_g1" : "cp0_g1");
    // g1's consumers (g2, g3) now hang off the gate, which g1 drives.
    ASSERT_EQ(n.fanouts(2).size(), 1u);
    EXPECT_EQ(n.fanouts(2).front(), cp.gate);
    const std::vector<NodeId> gate_fanouts(n.fanouts(cp.gate).begin(),
                                           n.fanouts(cp.gate).end());
    EXPECT_EQ(gate_fanouts, (std::vector<NodeId>{3, g3}));
    EXPECT_EQ(n.fanins(3).front(), cp.gate);
    EXPECT_EQ(n.fanins(g3).front(), cp.gate);
    EXPECT_TRUE(n.validate().empty());

    Netlist m = built;
    const NodeId op = m.insert_observe_point(2);
    EXPECT_EQ(m.node_name(op), "op_g1");
    const std::vector<NodeId> g1_fanouts(m.fanouts(2).begin(),
                                         m.fanouts(2).end());
    EXPECT_EQ(g1_fanouts, (std::vector<NodeId>{3, g3, op}));
    EXPECT_EQ(m.edge_count(), built.edge_count() + 1);
  }
}

TEST(NameTable, FindsWhatItInsertedAcrossGrowth) {
  std::vector<std::string> names;
  for (int i = 0; i < 5000; ++i) {
    // Short names live in their slot; long ones share a 16-byte prefix.
    names.push_back(i % 2 ? "n" + std::to_string(i)
                          : "a_long_common_prefix_" + std::to_string(i));
  }
  NameTable table;  // starts small and grows
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(table.insert(names[i], static_cast<NodeId>(i)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(table.find(names[i]), static_cast<NodeId>(i));
    EXPECT_FALSE(table.insert(names[i], 0));
  }
  EXPECT_EQ(table.find("n1x"), kInvalidNode);
  EXPECT_EQ(table.find("a_long_common_prefix_"), kInvalidNode);
  EXPECT_EQ(table.find(""), kInvalidNode);
}

TEST(NameTable, BatchFormsMatchSingleForms) {
  const std::vector<std::string> storage = {
      "a", "b", "exactly_16_bytes", "exactly_17_bytes_", "c", "b", "d"};
  const std::vector<std::string_view> names(storage.begin(), storage.end());
  NameTable table;
  // "b" repeats at index 5: everything before it goes in, then it stops.
  EXPECT_EQ(table.insert_all(names, 10), 5u);
  std::vector<NodeId> ids(names.size());
  table.find_all(names, ids);
  EXPECT_EQ(ids, (std::vector<NodeId>{10, 11, 12, 13, 14, 11, kInvalidNode}));
  const std::vector<std::string_view> fresh = {"d", "e"};
  EXPECT_EQ(table.insert_all(fresh, 20), fresh.size());
  EXPECT_EQ(table.find("e"), 21u);
}

// Names of every length around the inline key's word boundaries, with
// NUL bytes and one-byte differences at every position, stay distinct.
TEST(NameTable, KeysOfEveryLengthStayDistinct) {
  std::vector<std::string> storage;
  for (std::size_t length = 0; length <= 20; ++length) {
    const std::string base(length, 'x');
    storage.push_back(base);
    storage.push_back(base + '\0');
    for (std::size_t at = 0; at < length; ++at) {
      std::string changed = base;
      changed[at] = 'y';
      storage.push_back(changed);
    }
  }
  std::sort(storage.begin(), storage.end());
  storage.erase(std::unique(storage.begin(), storage.end()), storage.end());
  NameTable table;
  for (std::size_t i = 0; i < storage.size(); ++i) {
    ASSERT_TRUE(table.insert(storage[i], static_cast<NodeId>(i))) << i;
  }
  for (std::size_t i = 0; i < storage.size(); ++i) {
    EXPECT_EQ(table.find(storage[i]), static_cast<NodeId>(i)) << i;
  }
  EXPECT_EQ(table.find(std::string(21, 'x')), kInvalidNode);
  EXPECT_EQ(table.find(std::string(3, 'z')), kInvalidNode);
}

// A table sized for many names is partitioned and insert_all runs its
// partitions in parallel: it must still stop at the first repeated name in
// order, whichever partition holds it, at any thread count.
TEST(NameTable, PartitionedBatchFindsTheFirstRepeat) {
  std::vector<std::string> storage;
  for (int i = 0; i < 20000; ++i) storage.push_back("g" + std::to_string(i));
  storage.push_back("g17");    // index 20000: the first repeat
  storage.push_back("g3");     // index 20001: an earlier name repeated later
  storage.push_back("fresh");
  const std::vector<std::string_view> names(storage.begin(), storage.end());
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    set_kernel_threads(threads);
    NameTable table(names.size());
    EXPECT_EQ(table.insert_all(names, 100), 20000u);
    std::vector<NodeId> ids(20000);
    table.find_all(std::span(names).first(20000), ids);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(ids[i], 100 + i) << names[i];
      ASSERT_EQ(table.find(names[i]), 100 + i) << names[i];
    }
    EXPECT_EQ(table.find("g20000"), kInvalidNode);
  }
  set_kernel_threads(0);
}

}  // namespace
}  // namespace gcnt
