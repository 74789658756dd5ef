// Labeling oracle and dataset assembly.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "common/rng.h"
#include "data/dataset.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "sim/fault_sim.h"
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

/// Hand-built trap: t is observable only through AND with a 12-wide enable.
Netlist trap_circuit() {
  std::string src = "INPUT(a)\nINPUT(b)\nOUTPUT(easy)\nOUTPUT(gate)\n";
  for (int i = 0; i < 12; ++i) src += "INPUT(e" + std::to_string(i) + ")\n";
  src += "t = XOR(a, b)\neasy = AND(a, b)\n";
  src += "en1 = AND(e0, e1, e2, e3)\nen2 = AND(e4, e5, e6, e7)\n";
  src += "en3 = AND(e8, e9, e10, e11)\nen = AND(en1, en2, en3)\n";
  src += "gate = AND(t, en)\n";
  return read_bench_string(src, "trap");
}

TEST(Labeler, EmpiricalFlagsTrapNode) {
  const Netlist n = trap_circuit();
  LabelerOptions options;
  options.batches = 8;
  options.min_observed_rate = 0.01;
  const auto labels = label_difficult_to_observe(n, options);
  // t is behind the 12-wide enable: observed with prob ~2^-12.
  EXPECT_EQ(labels[by_name(n, "t")], 1);
  // "easy" drives a PO directly.
  EXPECT_EQ(labels[by_name(n, "easy")], 0);
}

TEST(Labeler, SourcesAndSinksNeverPositive) {
  const Netlist n = trap_circuit();
  const auto labels = label_difficult_to_observe(n, LabelerOptions{});
  for (NodeId v : n.primary_inputs()) EXPECT_EQ(labels[v], 0);
  for (NodeId v : n.primary_outputs()) EXPECT_EQ(labels[v], 0);
}

TEST(Labeler, CopOracleAgreesOnTrap) {
  const Netlist n = trap_circuit();
  LabelerOptions options;
  options.oracle = LabelerOptions::Oracle::kCopThreshold;
  options.cop_threshold = 0.01;
  const auto labels = label_difficult_to_observe(n, options);
  EXPECT_EQ(labels[by_name(n, "t")], 1);
  EXPECT_EQ(labels[by_name(n, "easy")], 0);
}

TEST(Labeler, DeterministicForSeed) {
  GeneratorConfig config;
  config.seed = 3;
  config.target_gates = 400;
  const Netlist n = generate_circuit(config);
  LabelerOptions options;
  options.batches = 4;
  const auto a = label_difficult_to_observe(n, options);
  const auto b = label_difficult_to_observe(n, options);
  EXPECT_EQ(a, b);
}

/// The labeler's reference definition: every labelable node is probed in
/// every batch with the full (unbounded) observe_word, and the count is
/// kept in full. Returns the per-node observed counts.
std::vector<std::uint32_t> full_observed_counts(const Netlist& netlist,
                                                std::size_t batches,
                                                std::uint64_t seed) {
  LogicSimulator sim(netlist);
  FaultSimulator probe(sim);
  Rng rng(seed);
  std::vector<std::uint32_t> observed(netlist.size(), 0);
  std::vector<std::uint64_t> values;
  for (std::size_t b = 0; b < batches; ++b) {
    sim.simulate(sim.random_batch(rng), values);
    for (NodeId v = 0; v < netlist.size(); ++v) {
      const CellType t = netlist.type(v);
      if (is_sink(t) || t == CellType::kInput) continue;
      observed[v] += static_cast<std::uint32_t>(
          std::popcount(probe.observe_word(v, values)));
    }
  }
  return observed;
}

std::vector<std::int32_t> reference_labels(
    const Netlist& netlist, const std::vector<std::uint32_t>& observed,
    std::size_t batches, double min_observed_rate) {
  const double patterns = static_cast<double>(batches) * 64.0;
  std::vector<std::int32_t> labels(netlist.size(), 0);
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const CellType t = netlist.type(v);
    if (is_sink(t) || t == CellType::kInput) continue;
    const double rate = static_cast<double>(observed[v]) / patterns;
    labels[v] = rate < min_observed_rate ? 1 : 0;
  }
  return labels;
}

// The empirical labeler stops probing a node once its label is decided;
// its labels must equal the full-count definition everywhere. With 4
// batches, rate 3/256 makes rate x patterns an exact integer: a node
// observed under exactly 3 patterns is easy (3/256 < 3/256 is false),
// which pins the strict comparison at the settle count.
TEST(Labeler, EarlyStopMatchesFullCountOracle) {
  std::size_t positives = 0;
  std::size_t negatives = 0;
  bool at_boundary = false;
  for (const std::uint64_t seed : {3u, 8u, 11u}) {
    GeneratorConfig config;
    config.seed = seed;
    config.target_gates = 700;
    config.primary_inputs = 24;
    config.primary_outputs = 12;
    config.flip_flops = 30;
    const Netlist n = generate_circuit(config);
    for (const std::size_t batches : {1u, 4u, 16u}) {
      const std::vector<std::uint32_t> observed =
          full_observed_counts(n, batches, LabelerOptions{}.seed);
      if (batches == 4) {
        at_boundary = at_boundary ||
                      std::count(observed.begin(), observed.end(), 3u) > 0;
      }
      for (const double rate : {0.0, 0.005, 0.01, 3.0 / 256.0, 0.05, 1.0}) {
        LabelerOptions options;
        options.batches = batches;
        options.min_observed_rate = rate;
        const auto want = reference_labels(n, observed, batches, rate);
        EXPECT_EQ(label_difficult_to_observe(n, options), want)
            << "seed " << seed << " batches " << batches << " rate " << rate;
        for (const std::int32_t label : want) {
          (label == 1 ? positives : negatives) += 1;
        }
      }
    }
  }
  // Both outcomes occur and the boundary case is present, so the
  // comparison is not vacuous.
  EXPECT_GT(positives, 0u);
  EXPECT_GT(negatives, 0u);
  EXPECT_TRUE(at_boundary) << "no node observed under exactly 3 of 256";
}

TEST(Dataset, BuildsConsistentRows) {
  GeneratorConfig config;
  config.seed = 9;
  config.target_gates = 600;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.trap_fraction = 0.05;
  LabelerOptions options;
  options.batches = 6;
  const Dataset dataset = make_dataset(generate_circuit(config), options);
  EXPECT_EQ(dataset.positives() + dataset.negatives(),
            dataset.netlist.size());
  for (std::uint32_t v : dataset.positive_rows) {
    EXPECT_EQ(dataset.tensors.labels[v], 1);
  }
  for (std::uint32_t v : dataset.negative_rows) {
    EXPECT_EQ(dataset.tensors.labels[v], 0);
  }
  EXPECT_GT(dataset.positives(), 0u);
  EXPECT_GT(dataset.negatives(), dataset.positives());
}

TEST(Dataset, PositiveRateMatchesPaperShape) {
  // Table 1 reports ~0.64% positives; ours should land within a loose
  // band around that (0.1% .. 4%).
  GeneratorConfig config;
  config.seed = 13;
  config.target_gates = 3000;
  config.primary_inputs = 32;
  config.primary_outputs = 16;
  config.flip_flops = 120;
  config.trap_fraction = 0.02;
  LabelerOptions options;
  options.batches = 6;
  const Dataset dataset = make_dataset(generate_circuit(config), options);
  const double rate = static_cast<double>(dataset.positives()) /
                      static_cast<double>(dataset.netlist.size());
  EXPECT_GT(rate, 0.001);
  EXPECT_LT(rate, 0.04);
}

TEST(Dataset, BalancedRowsContainAllPositives) {
  GeneratorConfig config;
  config.seed = 9;
  config.target_gates = 600;
  config.trap_fraction = 0.05;
  LabelerOptions options;
  options.batches = 6;
  const Dataset dataset = make_dataset(generate_circuit(config), options);
  const auto rows = balanced_rows(dataset, 42);
  EXPECT_EQ(rows.size(), 2 * dataset.positives());
  std::size_t positives = 0;
  for (std::uint32_t r : rows) {
    positives += dataset.tensors.labels[r] == 1 ? 1 : 0;
  }
  EXPECT_EQ(positives, dataset.positives());
  // No duplicate rows.
  auto sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Dataset, BalancedRowsSeedDeterministic) {
  GeneratorConfig config;
  config.seed = 9;
  config.target_gates = 400;
  config.trap_fraction = 0.05;
  LabelerOptions options;
  options.batches = 4;
  const Dataset dataset = make_dataset(generate_circuit(config), options);
  EXPECT_EQ(balanced_rows(dataset, 7), balanced_rows(dataset, 7));
  EXPECT_NE(balanced_rows(dataset, 7), balanced_rows(dataset, 8));
}

TEST(BenchmarkSuite, FourLabeledDesigns) {
  LabelerOptions options;
  options.batches = 2;
  const auto suite = make_benchmark_suite(800, options);
  ASSERT_EQ(suite.size(), 4u);
  for (const Dataset& d : suite) {
    EXPECT_GT(d.positives(), 0u) << d.name();
    EXPECT_FALSE(d.tensors.labels.empty());
  }
  EXPECT_EQ(suite[0].name(), "B1");
  EXPECT_EQ(suite[3].name(), "B4");
}

}  // namespace
}  // namespace gcnt
