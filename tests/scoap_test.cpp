// SCOAP testability measures: hand-computed gate rules, saturation, and the
// incremental observability update property, checked against the full
// pass and against the whole-cone walk the event-driven repair replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "scoap/scoap.h"

namespace gcnt {
namespace {

NodeId by_name(const Netlist& n, const std::string& name) {
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == name) return v;
  }
  ADD_FAILURE() << "node not found: " << name;
  return kInvalidNode;
}

TEST(ScoapAdd, Saturates) {
  EXPECT_EQ(scoap_add(1, 2), 3u);
  EXPECT_EQ(scoap_add(kScoapInfinity, 5), kScoapInfinity);
  EXPECT_EQ(scoap_add(kScoapInfinity - 1, 1), kScoapInfinity);
  EXPECT_EQ(scoap_add(kScoapInfinity, kScoapInfinity), kScoapInfinity);
}

TEST(Scoap, PrimaryInputCosts) {
  const Netlist n = read_bench_string("INPUT(a)\nOUTPUT(a)\n");
  const auto m = compute_scoap(n);
  const NodeId a = by_name(n, "a");
  EXPECT_EQ(m.cc0[a], 1u);
  EXPECT_EQ(m.cc1[a], 1u);
  EXPECT_EQ(m.co[a], 0u);  // drives the PO directly
}

TEST(Scoap, AndGateRules) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  const NodeId a = by_name(n, "a");
  EXPECT_EQ(m.cc1[g], 3u);  // both inputs to 1: 1+1+1
  EXPECT_EQ(m.cc0[g], 2u);  // one input to 0: 1+1
  EXPECT_EQ(m.co[g], 0u);
  EXPECT_EQ(m.co[a], 2u);  // co(g) + cc1(b) + 1
}

TEST(Scoap, OrNorGateRules) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\nOUTPUT(r)\no = OR(a, b)\nr = NOR(a, "
      "b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.cc0[by_name(n, "o")], 3u);  // all inputs 0
  EXPECT_EQ(m.cc1[by_name(n, "o")], 2u);  // any input 1
  EXPECT_EQ(m.cc0[by_name(n, "r")], 2u);  // inverted
  EXPECT_EQ(m.cc1[by_name(n, "r")], 3u);
}

TEST(Scoap, NandNotBufRules) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n"
      "x = NAND(a, b)\ny = NOT(a)\nz = BUF(b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.cc0[by_name(n, "x")], 3u);
  EXPECT_EQ(m.cc1[by_name(n, "x")], 2u);
  EXPECT_EQ(m.cc0[by_name(n, "y")], 2u);  // cc1(a)+1
  EXPECT_EQ(m.cc1[by_name(n, "y")], 2u);
  EXPECT_EQ(m.cc0[by_name(n, "z")], 2u);
}

TEST(Scoap, XorParityDynamicProgram) {
  const Netlist n2 =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XOR(a, b)\n");
  const auto m2 = compute_scoap(n2);
  EXPECT_EQ(m2.cc0[by_name(n2, "g")], 3u);
  EXPECT_EQ(m2.cc1[by_name(n2, "g")], 3u);

  const Netlist n3 = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(g)\ng = XOR(a, b, c)\n");
  const auto m3 = compute_scoap(n3);
  EXPECT_EQ(m3.cc0[by_name(n3, "g")], 4u);
  EXPECT_EQ(m3.cc1[by_name(n3, "g")], 4u);

  const Netlist nx = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XNOR(a, b)\n");
  const auto mx = compute_scoap(nx);
  EXPECT_EQ(mx.cc0[by_name(nx, "g")], 3u);
  EXPECT_EQ(mx.cc1[by_name(nx, "g")], 3u);
}

TEST(Scoap, XorObservabilityUsesEitherValue) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XOR(a, b)\n");
  const auto m = compute_scoap(n);
  // co(a) = co(g) + min(cc0(b), cc1(b)) + 1 = 0 + 1 + 1.
  EXPECT_EQ(m.co[by_name(n, "a")], 2u);
}

TEST(Scoap, DffActsAsScanCell) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\nq = DFF(a)\ny = BUF(q)\n");
  const auto m = compute_scoap(n);
  const NodeId q = by_name(n, "q");
  EXPECT_EQ(m.cc0[q], 1u);  // scan load
  EXPECT_EQ(m.cc1[q], 1u);
  EXPECT_EQ(m.co[by_name(n, "a")], 0u);  // captured by the scan D pin
}

TEST(Scoap, ObservabilityPrefersEasiestBranch) {
  // a fans out to an easy path (direct PO) and a hard path (side of AND).
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.co[by_name(n, "a")], 0u);  // the PO branch wins
}

TEST(Scoap, DeepChainAccumulates) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(d)\nb = NOT(a)\nc = NOT(b)\nd = NOT(c)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.co[by_name(n, "a")], 3u);
  EXPECT_EQ(m.cc0[by_name(n, "d")], 4u);
}

TEST(Scoap, ObservePointZeroesObservability) {
  Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(h)\ng = AND(a, b)\nh = AND(g, "
      "c)\n");
  auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  const NodeId a = by_name(n, "a");
  const std::uint32_t co_a_before = m.co[a];
  EXPECT_GT(m.co[g], 0u);

  n.insert_observe_point(g);
  update_observability_after_observe(n, g, m);
  EXPECT_EQ(m.co[g], 0u);
  EXPECT_LT(m.co[a], co_a_before);
}

TEST(Scoap, IncrementalUpdateMatchesFullRecompute) {
  GeneratorConfig config;
  config.seed = 71;
  config.target_gates = 600;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.flip_flops = 12;
  Netlist n = generate_circuit(config);
  auto incremental = compute_scoap(n);

  // Insert a handful of OPs at spread-out logic nodes.
  std::size_t inserted = 0;
  for (NodeId v = 0; v < n.size() && inserted < 5; v += 97) {
    if (!is_logic(n.type(v))) continue;
    const NodeId target = v;
    n.insert_observe_point(target);
    update_observability_after_observe(n, target, incremental);
    ++inserted;
  }
  ASSERT_GT(inserted, 0u);

  const auto full = compute_scoap(n);
  ASSERT_EQ(full.co.size(), incremental.co.size());
  for (NodeId v = 0; v < n.size(); ++v) {
    EXPECT_EQ(incremental.co[v], full.co[v]) << "node " << v;
    EXPECT_EQ(incremental.cc0[v], full.cc0[v]) << "node " << v;
    EXPECT_EQ(incremental.cc1[v], full.cc1[v]) << "node " << v;
  }
}

/// The CO repair before it was event-driven, kept as the oracle: every
/// node of target's fan-in cone recomputed in descending level. Returns
/// the nodes whose CO it changed.
std::vector<NodeId> whole_cone_repair(
    const Netlist& n, NodeId target, ScoapMeasures& m,
    const std::vector<std::uint32_t>& levels) {
  resize_for(n, m);
  std::vector<NodeId> cone = n.fanin_cone(target);
  cone.push_back(target);
  std::sort(cone.begin(), cone.end(),
            [&](NodeId a, NodeId b) { return levels[a] > levels[b]; });
  const auto co_of = [&](NodeId g) { return m.co[g]; };
  std::vector<NodeId> changed;
  for (const NodeId v : cone) {
    if (is_sink(n.type(v))) continue;
    const std::uint32_t co = observability_through_fanouts(n, v, m, co_of);
    if (co != m.co[v]) {
      m.co[v] = co;
      changed.push_back(v);
    }
  }
  return changed;
}

/// What the differential test below exercised, so a change to the designs
/// cannot quietly drop a case.
struct RepairCoverage {
  bool xor_changed = false;       ///< an XOR/XNOR node's CO changed
  bool input_changed = false;     ///< a PI in the cone changed
  bool dff_in_cone = false;       ///< a scan cell bounded a repaired cone
  bool zero_target = false;       ///< target's CO was already 0
  bool after_control = false;     ///< an OP repaired after a CP rebuild
  std::size_t ops = 0;
};

/// Inserts an OP on `target` and repairs it both ways, 3- or 4-argument
/// form by `cached_levels`; expects the same CO and changed set as the
/// whole-cone walk and the full pass, each changed node once and in
/// descending level, and the repair's cost within one recompute per
/// changed node's fanin (plus the target).
void observe_and_compare(Netlist& n, NodeId target, ScoapMeasures& repaired,
                         ScoapMeasures& walked,
                         std::vector<std::uint32_t>& levels,
                         bool cached_levels, RepairCoverage& coverage) {
  Counter& visited =
      StatsRegistry::instance().counter("scoap.co_repair_visited");
  Counter& changed_count =
      StatsRegistry::instance().counter("scoap.co_repair_changed");
  const std::vector<std::uint32_t> before = repaired.co;
  const std::uint64_t visited_before = visited.value();
  const std::uint64_t changed_before = changed_count.value();
  coverage.zero_target = coverage.zero_target || repaired.co[target] == 0;
  for (const NodeId u : n.fanin_cone(target)) {
    coverage.dff_in_cone =
        coverage.dff_in_cone || n.type(u) == CellType::kDff;
  }

  const NodeId op = n.insert_observe_point(target);
  levels.resize(n.size(), 0);
  levels[op] = levels[target] + 1;
  const std::vector<NodeId> changed =
      cached_levels
          ? update_observability_after_observe(n, target, repaired, levels)
          : update_observability_after_observe(n, target, repaired);
  std::vector<NodeId> want = whole_cone_repair(n, target, walked, levels);
  ++coverage.ops;

  ASSERT_EQ(repaired.co, walked.co) << "OP on " << target;
  ASSERT_EQ(repaired.co, compute_scoap(n).co) << "OP on " << target;
  std::vector<NodeId> differs;
  for (NodeId v = 0; v < before.size(); ++v) {
    if (repaired.co[v] != before[v]) differs.push_back(v);
  }
  std::vector<NodeId> got = changed;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got, differs) << "OP on " << target;
  ASSERT_EQ(got, want) << "OP on " << target;
  ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
  for (std::size_t i = 1; i < changed.size(); ++i) {
    ASSERT_GE(levels[changed[i - 1]], levels[changed[i]]);
  }

  std::uint64_t bound = 1;
  for (const NodeId v : changed) {
    bound += n.fanins(v).size();
    const CellType t = n.type(v);
    coverage.xor_changed = coverage.xor_changed || t == CellType::kXor ||
                           t == CellType::kXnor;
    coverage.input_changed =
        coverage.input_changed || t == CellType::kInput;
  }
  EXPECT_LE(visited.value() - visited_before, bound) << "OP on " << target;
  EXPECT_GE(visited.value() - visited_before, 1u) << "OP on " << target;
  EXPECT_EQ(changed_count.value() - changed_before, changed.size());
}

TEST(Scoap, EventDrivenRepairMatchesWholeConeWalk) {
  set_stats_enabled(true);
  RepairCoverage coverage;
  Rng rng(2024);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GeneratorConfig config;
    config.seed = seed;
    config.target_gates = 300 + 150 * seed;
    config.primary_inputs = 12;
    config.primary_outputs = 6;
    config.flip_flops = 10 + 2 * seed;
    config.target_depth = 8 + seed;
    Netlist n = generate_circuit(config);
    ScoapMeasures repaired = compute_scoap(n);
    ScoapMeasures walked = repaired;
    std::vector<std::uint32_t> levels = n.logic_levels();
    for (int step = 0; step < 40; ++step) {
      if (step == 25) {  // a control point, then OPs on the rebuilt state
        NodeId cp_target = kInvalidNode;
        while (cp_target == kInvalidNode) {
          const auto v = static_cast<NodeId>(rng.below(n.size()));
          if (n.can_control(v)) cp_target = v;
        }
        n.insert_control_point(cp_target, rng.chance(0.5));
        repaired = compute_scoap(n);
        walked = repaired;
        levels = n.logic_levels();
      }
      NodeId target = kInvalidNode;
      const bool pick_observed = step % 7 == 6;
      while (target == kInvalidNode) {
        const auto v = static_cast<NodeId>(rng.below(n.size()));
        if (!n.can_control(v)) continue;
        // Mostly fresh targets; now and then one whose CO is already 0.
        if (pick_observed ? repaired.co[v] == 0 : n.can_observe(v)) {
          target = v;
        }
      }
      observe_and_compare(n, target, repaired, walked, levels, step % 2 == 0,
                          coverage);
      if (HasFatalFailure()) return;
      coverage.after_control = coverage.after_control || step > 25;
    }
  }
  EXPECT_EQ(coverage.ops, 240u);
  EXPECT_TRUE(coverage.xor_changed);
  EXPECT_TRUE(coverage.input_changed);
  EXPECT_TRUE(coverage.dff_in_cone);
  EXPECT_TRUE(coverage.zero_target);
  EXPECT_TRUE(coverage.after_control);
}

TEST(Scoap, RepairStopsWhereObservabilityStopsChanging) {
  // a feeds an XOR whose output already reaches a PO; an OP on b (deep
  // behind an AND) changes b and its fanins only, never the XOR side.
  Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(c)\nINPUT(d)\nOUTPUT(x)\nOUTPUT(h)\n"
      "q = DFF(h)\nx = XOR(a, q)\nb = NOT(c)\ng = AND(b, d, q)\n"
      "h = AND(g, a)\n");
  ScoapMeasures m = compute_scoap(n);
  const NodeId b = by_name(n, "b");
  const NodeId c = by_name(n, "c");
  n.insert_observe_point(b);
  std::vector<NodeId> changed = update_observability_after_observe(n, b, m);
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(changed, (std::vector<NodeId>{std::min(b, c), std::max(b, c)}));
  EXPECT_EQ(m.co, compute_scoap(n).co);
  // A second OP on the same node changes nothing.
  n.insert_observe_point(b);
  EXPECT_TRUE(update_observability_after_observe(n, b, m).empty());
}

TEST(Scoap, DuplicateFaninHandled) {
  const Netlist n =
      read_bench_string("INPUT(a)\nOUTPUT(g)\ng = AND(a, a)\n");
  const auto m = compute_scoap(n);
  NodeId g = kInvalidNode, a = kInvalidNode;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == "g") g = v;
    if (n.node_name(v) == "a") a = v;
  }
  EXPECT_EQ(m.cc1[g], 3u);  // both (duplicated) inputs to 1
  // a observed through either slot with the sibling (itself) at 1.
  EXPECT_EQ(m.co[a], 2u);
}

TEST(Scoap, ObserveThroughExported) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  // Through slot 0 of g with gate observability 5: 5 + cc1(b) + 1.
  EXPECT_EQ(scoap_observe_through(n, g, 0, m, 5), 7u);
}

}  // namespace
}  // namespace gcnt
