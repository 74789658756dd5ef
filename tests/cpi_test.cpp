// Control point insertion: netlist surgery semantics, testability effect,
// and the baseline CPI flow.

#include <gtest/gtest.h>

#include "atpg/atpg.h"
#include "cop/cop.h"
#include "data/labeler.h"
#include "dft/cpi.h"
#include "dft/gcn_cpi.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "scoap/scoap.h"
#include "sim/logic_sim.h"

namespace gcnt {
namespace {

NodeId by_name(const Netlist& n, const std::string& name) {
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == name) return v;
  }
  ADD_FAILURE() << "node not found: " << name;
  return kInvalidNode;
}

/// Wide AND: g is almost never 1 under random patterns.
Netlist rare_one_circuit() {
  return read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
g = AND(a, b, c, d)
y = BUF(g)
)");
}

TEST(Netlist, RetargetFanoutsMovesConsumers) {
  Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(x)
OUTPUT(y)
p = BUF(a)
x = NOT(p)
y = BUF(p)
)");
  const NodeId p = by_name(n, "p");
  const NodeId a = by_name(n, "a");
  const NodeId q = n.add_node(CellType::kBuf, "q");
  n.connect(a, q);
  const std::size_t edges_before = n.edge_count();
  n.retarget_fanouts(p, q);
  EXPECT_EQ(n.edge_count(), edges_before);
  EXPECT_TRUE(n.fanouts(p).empty());
  EXPECT_EQ(n.fanouts(q).size(), 2u);  // x and y re-driven
  EXPECT_TRUE(n.validate().empty());
}

TEST(Netlist, RetargetRespectsExcept) {
  Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(x)\nOUTPUT(y)\np = BUF(a)\nx = NOT(p)\ny = BUF(p)\n");
  const NodeId p = by_name(n, "p");
  const NodeId x = by_name(n, "x");
  const NodeId q = n.add_node(CellType::kBuf, "q");
  n.connect(by_name(n, "a"), q);
  n.retarget_fanouts(p, q, x);
  EXPECT_EQ(std::vector<NodeId>(n.fanouts(p).begin(), n.fanouts(p).end()),
            std::vector<NodeId>{x});
}

TEST(ControlPoint, InactiveControlPreservesBehavior) {
  const Netlist original = rare_one_circuit();
  Netlist modified = original;
  const NodeId g = by_name(modified, "g");
  const auto cp = modified.insert_control_point(g, true);
  ASSERT_TRUE(modified.validate().empty());

  LogicSimulator sim_a(original);
  LogicSimulator sim_b(modified);
  Rng rng(5);
  const PatternBatch batch_a = sim_a.random_batch(rng);
  // Same stimulus, control input forced inactive (0).
  PatternBatch batch_b(sim_b.sources().size(), 0);
  for (std::size_t i = 0; i < batch_a.size(); ++i) batch_b[i] = batch_a[i];
  for (std::size_t i = 0; i < sim_b.sources().size(); ++i) {
    if (sim_b.sources()[i] == cp.control) batch_b[i] = 0;
  }
  std::vector<std::uint64_t> va, vb;
  sim_a.simulate(batch_a, va);
  sim_b.simulate(batch_b, vb);
  const NodeId po_a = original.primary_outputs()[0];
  const NodeId po_b = modified.primary_outputs()[0];
  EXPECT_EQ(va[original.fanins(po_a).front()], vb[modified.fanins(po_b).front()]);
}

TEST(ControlPoint, ActiveControlForcesValue) {
  Netlist n = rare_one_circuit();
  const NodeId g = by_name(n, "g");
  const auto cp = n.insert_control_point(g, true);

  LogicSimulator sim(n);
  PatternBatch batch(sim.sources().size(), 0);  // all inputs 0, g would be 0
  for (std::size_t i = 0; i < sim.sources().size(); ++i) {
    if (sim.sources()[i] == cp.control) batch[i] = ~0ULL;  // assert CP
  }
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  EXPECT_EQ(values[cp.gate], ~0ULL);  // forced to 1 despite g == 0
}

TEST(ControlPoint, ControlZeroVariant) {
  Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng = OR(a, b)\ny = BUF(g)\n");
  const NodeId g = by_name(n, "g");
  const auto cp = n.insert_control_point(g, false);
  ASSERT_NE(cp.inverter, kInvalidNode);
  ASSERT_TRUE(n.validate().empty());

  LogicSimulator sim(n);
  PatternBatch batch(sim.sources().size(), ~0ULL);  // a=b=1, g=1
  std::vector<std::uint64_t> values;
  sim.simulate(batch, values);
  EXPECT_EQ(values[cp.gate], 0ULL);  // cp asserted forces 0

  for (std::size_t i = 0; i < sim.sources().size(); ++i) {
    if (sim.sources()[i] == cp.control) batch[i] = 0;  // inactive
  }
  sim.simulate(batch, values);
  EXPECT_EQ(values[cp.gate], ~0ULL);  // transparent again
}

TEST(ControlPoint, ImprovesControllabilityMeasures) {
  Netlist n = rare_one_circuit();
  const NodeId g = by_name(n, "g");
  const auto cop_before = compute_cop(n);
  const auto scoap_before = compute_scoap(n);
  const auto cp = n.insert_control_point(g, true);
  const auto cop_after = compute_cop(n);
  const auto scoap_after = compute_scoap(n);
  // The controlled net (cp.gate now feeds g's old consumers).
  EXPECT_GT(cop_after.prob_one[cp.gate], cop_before.prob_one[g]);
  EXPECT_LT(scoap_after.cc1[cp.gate], scoap_before.cc1[g] );
}

TEST(Labeler, DifficultToControlFlagsRareSignals) {
  const Netlist n = rare_one_circuit();
  const auto cop = compute_cop(n);
  const auto labels = label_difficult_to_control(n, cop, 0.1);
  EXPECT_EQ(labels[by_name(n, "g")], 1);  // p1 = 1/16
  for (NodeId v : n.primary_inputs()) EXPECT_EQ(labels[v], 0);
}

TEST(BaselineCpi, ClearsBelowThresholdSignals) {
  GeneratorConfig config;
  config.seed = 814;
  config.target_gates = 800;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.trap_fraction = 0.05;  // enable trees are low-probability signals
  config.trap_enable_width = 10;
  Netlist n = generate_circuit(config);

  CpiOptions options;
  options.probability_threshold = 0.02;
  const auto result = run_baseline_cpi(n, options);
  EXPECT_GT(result.inserted.size(), 0u);
  EXPECT_EQ(result.remaining_below_threshold, 0u);
  EXPECT_TRUE(n.validate().empty());
}

TEST(BaselineCpi, ImprovesRandomPatternCoverage) {
  GeneratorConfig config;
  config.seed = 815;
  config.target_gates = 500;
  config.primary_inputs = 12;
  config.primary_outputs = 6;
  config.trap_fraction = 0.08;
  config.trap_enable_width = 12;
  Netlist n = generate_circuit(config);

  AtpgOptions atpg;
  atpg.deterministic_topoff = false;  // isolate random-pattern testability
  atpg.max_random_batches = 16;
  const auto before = run_atpg(n, atpg);
  run_baseline_cpi(n, CpiOptions{});
  const auto after = run_atpg(n, atpg);
  EXPECT_GT(after.fault_coverage(), before.fault_coverage());
}

TEST(GcnCpi, FlowReducesPositivesWithTrainedModel) {
  // Build a design with controllability traps, train a small GCN on
  // difficult-to-control labels, and let the flow insert CPs.
  GeneratorConfig config;
  config.seed = 911;
  config.target_gates = 900;
  config.primary_inputs = 20;
  config.primary_outputs = 10;
  config.flip_flops = 36;
  config.trap_fraction = 0.05;
  config.trap_enable_width = 10;
  Netlist netlist = generate_circuit(config);

  GraphTensors tensors = build_graph_tensors(netlist);
  const auto cop = compute_cop(netlist);
  tensors.labels = label_difficult_to_control(netlist, cop, 0.02);
  std::size_t positives = 0;
  for (auto l : tensors.labels) positives += l;
  ASSERT_GT(positives, 10u);

  GcnConfig model_config;
  model_config.depth = 2;
  model_config.embed_dims = {8, 16};
  model_config.fc_dims = {16};
  model_config.seed = 5150;
  GcnModel model(model_config);
  TrainerOptions options;
  options.epochs = 120;
  options.learning_rate = 1e-2f;
  options.positive_class_weight = 6.0f;
  options.eval_interval = options.epochs;
  Trainer trainer(model, options);
  const TrainGraph data{&tensors, {}};
  trainer.train({data}, nullptr);

  const std::size_t before_positives = [&] {
    std::size_t count = 0;
    const auto prob = model.predict_positive_probability(tensors);
    for (float p : prob) count += p >= 0.5f ? 1 : 0;
    return count;
  }();
  ASSERT_GT(before_positives, 0u);

  GcnCpiOptions cpi_options;
  cpi_options.max_iterations = 6;
  const auto result = run_gcn_cpi(netlist, {&model}, cpi_options);
  EXPECT_GT(result.inserted.size(), 0u);
  EXPECT_LT(result.final_positive_predictions, before_positives);
  EXPECT_TRUE(netlist.validate().empty());

  // Controllability of the controlled nets genuinely improved.
  const auto cop_after = compute_cop(netlist);
  std::size_t improved = 0;
  for (const auto& cp : result.inserted) {
    const double p1 = cop_after.prob_one[cp.gate];
    if (std::min(p1, 1.0 - p1) > 0.02) ++improved;
  }
  EXPECT_GT(improved, result.inserted.size() / 2);
}

}  // namespace
}  // namespace gcnt
