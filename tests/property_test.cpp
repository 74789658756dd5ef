// Cross-module property tests on generated circuits: behavior-preserving
// round-trips, monotonicity of observability under OP insertion, and
// incremental-vs-full agreement, swept over seeds with parameterized gtest.

#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "atpg/atpg.h"
#include "common/rng.h"
#include "cop/cop.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "scoap/scoap.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"

namespace gcnt {
namespace {

GeneratorConfig sweep_config(std::uint64_t seed) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = 400;
  config.primary_inputs = 12;
  config.primary_outputs = 6;
  config.flip_flops = 10;
  config.trap_fraction = 0.03;
  return config;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, BenchRoundTripPreservesSimulation) {
  const Netlist original = generate_circuit(sweep_config(GetParam()));
  const Netlist reparsed =
      read_bench_string(write_bench_string(original), "rt");
  ASSERT_EQ(reparsed.size(), original.size());

  // Node ids may be permuted; signals are matched by name.
  std::map<std::string_view, NodeId> reparsed_by_name;
  for (NodeId v = 0; v < reparsed.size(); ++v) {
    reparsed_by_name[reparsed.node_name(v)] = v;
  }

  LogicSimulator sim_a(original);
  LogicSimulator sim_b(reparsed);
  ASSERT_EQ(sim_a.sources().size(), sim_b.sources().size());

  // Drive both with the same named assignment.
  Rng rng(GetParam() * 31 + 7);
  const PatternBatch batch_a = sim_a.random_batch(rng);
  std::map<std::string_view, std::uint64_t> assignment;
  for (std::size_t i = 0; i < sim_a.sources().size(); ++i) {
    assignment[original.node_name(sim_a.sources()[i])] = batch_a[i];
  }
  PatternBatch batch_b(sim_b.sources().size());
  for (std::size_t i = 0; i < sim_b.sources().size(); ++i) {
    batch_b[i] = assignment.at(reparsed.node_name(sim_b.sources()[i]));
  }

  std::vector<std::uint64_t> values_a, values_b;
  sim_a.simulate(batch_a, values_a);
  sim_b.simulate(batch_b, values_b);
  for (NodeId v = 0; v < original.size(); ++v) {
    if (is_logic(original.type(v))) {
      const NodeId w = reparsed_by_name.at(original.node_name(v));
      EXPECT_EQ(values_a[v], values_b[w]) << original.node_name(v);
    }
  }
}

TEST_P(SeedSweep, ObservePointsOnlyImproveObservability) {
  Netlist netlist = generate_circuit(sweep_config(GetParam()));
  LogicSimulator sim_before(netlist);
  FaultSimulator probe_before(sim_before);
  Rng rng(GetParam());
  const PatternBatch batch = sim_before.random_batch(rng);
  std::vector<std::uint64_t> values;
  sim_before.simulate(batch, values);

  std::vector<std::uint64_t> before(netlist.size());
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (is_sink(netlist.type(v))) continue;
    before[v] = probe_before.observe_word(v, values);
  }

  // Insert OPs at a few spread-out logic nodes.
  const std::size_t original_size = netlist.size();
  for (NodeId v = 13; v < original_size; v += 97) {
    if (is_logic(netlist.type(v))) netlist.insert_observe_point(v);
  }
  ASSERT_GT(netlist.observe_points().size(), 0u);

  LogicSimulator sim_after(netlist);
  FaultSimulator probe_after(sim_after);
  // Same source values: new netlist has the same sources.
  std::vector<std::uint64_t> values_after;
  sim_after.simulate(batch, values_after);
  for (NodeId v = 0; v < original_size; ++v) {
    if (is_sink(netlist.type(v))) continue;
    const std::uint64_t after = probe_after.observe_word(v, values_after);
    EXPECT_EQ(after & before[v], before[v])
        << "node " << v << ": OP insertion lost observability bits";
  }
}

TEST_P(SeedSweep, ScoapObservabilityMonotoneUnderOps) {
  Netlist netlist = generate_circuit(sweep_config(GetParam()));
  const auto before = compute_scoap(netlist);
  const std::size_t original_size = netlist.size();
  for (NodeId v = 5; v < original_size; v += 61) {
    if (is_logic(netlist.type(v))) netlist.insert_observe_point(v);
  }
  const auto after = compute_scoap(netlist);
  for (NodeId v = 0; v < original_size; ++v) {
    EXPECT_LE(after.co[v], before.co[v]) << "node " << v;
    // Controllability is untouched by observation points.
    EXPECT_EQ(after.cc0[v], before.cc0[v]);
    EXPECT_EQ(after.cc1[v], before.cc1[v]);
  }
}

TEST_P(SeedSweep, CopObservabilityMonotoneUnderOps) {
  Netlist netlist = generate_circuit(sweep_config(GetParam()));
  const auto before = compute_cop(netlist);
  const std::size_t original_size = netlist.size();
  for (NodeId v = 5; v < original_size; v += 61) {
    if (is_logic(netlist.type(v))) netlist.insert_observe_point(v);
  }
  const auto after = compute_cop(netlist);
  for (NodeId v = 0; v < original_size; ++v) {
    EXPECT_GE(after.observability[v] + 1e-12, before.observability[v])
        << "node " << v;
    EXPECT_DOUBLE_EQ(after.prob_one[v], before.prob_one[v]);
  }
}

TEST_P(SeedSweep, IncrementalScoapAgreesAfterManyInsertions) {
  Netlist netlist = generate_circuit(sweep_config(GetParam()));
  auto incremental = compute_scoap(netlist);
  const std::size_t original_size = netlist.size();
  for (NodeId v = 3; v < original_size; v += 53) {
    if (!is_logic(netlist.type(v))) continue;
    netlist.insert_observe_point(v);
    update_observability_after_observe(netlist, v, incremental);
  }
  const auto full = compute_scoap(netlist);
  for (NodeId v = 0; v < netlist.size(); ++v) {
    EXPECT_EQ(incremental.co[v], full.co[v]) << "node " << v;
  }
}

TEST_P(SeedSweep, AtpgPatternsBoundedAndCoverageSane) {
  const Netlist netlist = generate_circuit(sweep_config(GetParam()));
  AtpgOptions options;
  options.seed = GetParam();
  const AtpgResult result = run_atpg(netlist, options);
  EXPECT_LE(result.detected_faults, result.total_faults);
  EXPECT_LE(result.pattern_count, result.detected_faults);
  EXPECT_GE(result.test_coverage(), result.fault_coverage());
  EXPECT_GT(result.fault_coverage(), 0.7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace gcnt
