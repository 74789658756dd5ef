// Differential oracle for EditableDesign (gcn/editable_design.h): random
// interleaved observe/control edit sequences over a few generated designs,
// across every engine schedule (incremental; sharded K in {2,3} x halo in
// {1,2}), RCM reordering off and on, and raw or standardized features.
// After every predict(), each cascade stage's engine logits must equal
// GcnModel::infer on the design's own tensors bitwise.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "gcn/editable_design.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gen/generator.h"
#include "netlist/netlist.h"
#include "scoap/scoap.h"

namespace gcnt {
namespace {

Netlist test_netlist(std::uint64_t seed, std::size_t gates = 1200) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = gates;
  config.primary_inputs = 24;
  config.primary_outputs = 10;
  config.flip_flops = 16;
  return generate_circuit(config);
}

GcnModel make_model(int depth, std::uint64_t seed) {
  GcnConfig config;
  config.depth = depth;
  config.embed_dims = {8, 12, 16};
  config.embed_dims.resize(depth);
  config.fc_dims = {16};
  config.seed = seed;
  return GcnModel(config);
}

/// Edit targets whose fan-in and fan-out cones are small, as real late-stage
/// OPI/CPI targets are: a CP shifts SCOAP in both cones, so a graph-sized
/// cone would push every update into the engines' full-pass fallback.
bool bounded_cones(const Netlist& netlist, NodeId v) {
  constexpr std::size_t kCap = 40;
  return netlist.fanin_cone(v, kCap).size() < kCap &&
         netlist.fanout_cone(v, kCap).size() < kCap;
}

struct OracleCase {
  std::size_t shards;  ///< 0 = monolithic incremental engine
  int halo;
  GraphReorder reorder;
  bool standardize;
};

std::string case_name(const testing::TestParamInfo<OracleCase>& info) {
  const OracleCase& c = info.param;
  std::string name = c.shards == 0 ? std::string("incremental")
                                   : "shards" + std::to_string(c.shards) +
                                         "_halo" + std::to_string(c.halo);
  name += c.reorder == GraphReorder::kRcm ? "_rcm" : "_plain";
  name += c.standardize ? "_standardized" : "_raw";
  return name;
}

std::vector<OracleCase> all_cases() {
  std::vector<OracleCase> cases;
  const std::vector<std::pair<std::size_t, int>> engines = {
      {0, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 2}};
  for (const auto& [shards, halo] : engines) {
    for (const GraphReorder reorder : {GraphReorder::kOff, GraphReorder::kRcm}) {
      for (const bool standardize : {false, true}) {
        cases.push_back({shards, halo, reorder, standardize});
      }
    }
  }
  return cases;
}

class EditableDesignOracle : public testing::TestWithParam<OracleCase> {
 protected:
  void TearDown() override { reset_graph_reorder(); }
};

TEST_P(EditableDesignOracle, RandomEditSequencesMatchFullInferBitwise) {
  const OracleCase& c = GetParam();
  set_graph_reorder(c.reorder);
  // A two-stage cascade of different depths: the dirty cone must cover
  // the deepest stage.
  const GcnModel shallow = make_model(2, 77);
  const GcnModel deep = make_model(3, 78);
  const std::vector<const GcnModel*> stages = {&shallow, &deep};

  std::size_t incremental_after_control = 0;
  for (const std::uint64_t seed : {3u, 17u, 51u}) {
    Netlist netlist = test_netlist(seed);
    EditableDesign design(netlist, c.standardize);
    design.set_models(stages, c.shards, c.halo);
    // Every schedule sees the same edit sequence for a given design.
    std::mt19937_64 rng(seed);

    const auto check = [&](const char* when) {
      const GraphTensors& tensors = design.tensors();
      ASSERT_EQ(tensors.reordered(), c.reorder == GraphReorder::kRcm);
      for (std::size_t k = 0; k < stages.size(); ++k) {
        ASSERT_TRUE(design.engine(k).logits() == stages[k]->infer(tensors))
            << "seed " << seed << " stage " << k << " " << when;
      }
    };
    design.predict();
    ASSERT_NO_FATAL_FAILURE(check("after the first predict"));

    for (int round = 0; round < 6; ++round) {
      // Odd rounds insert one lone control point, whose rebuild is most
      // likely to stay below the engines' full-pass fallback.
      bool controlled = false;
      const bool lone_control = round % 2 == 1;
      const int edits = lone_control ? 1 : 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < edits; ++e) {
        const bool control = lone_control || rng() % 3 == 0;
        NodeId target = static_cast<NodeId>(rng() % netlist.size());
        while (!(control ? netlist.can_control(target)
                         : netlist.can_observe(target)) ||
               !bounded_cones(netlist, target)) {
          target = static_cast<NodeId>(rng() % netlist.size());
        }
        if (control) {
          design.control(target, rng() % 2 == 0);
          controlled = true;
        } else {
          design.observe(target);
        }
      }
      ASSERT_TRUE(design.has_pending_edits());
      const EditableDesign::Prediction p = design.predict();
      EXPECT_FALSE(p.refreshed);
      EXPECT_FALSE(design.has_pending_edits());
      if (controlled && p.full_fallbacks == 0) ++incremental_after_control;
      ASSERT_NO_FATAL_FAILURE(check(controlled ? "after a control batch"
                                               : "after an observe batch"));
    }
  }
  // Standardization recenters every row on a control-point rebuild, so
  // only raw features exercise the incremental update after a CP.
  if (!c.standardize) {
    EXPECT_GT(incremental_after_control, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, EditableDesignOracle,
                         testing::ValuesIn(all_cases()), case_name);

TEST(EditableDesign, InvalidTargetsAreUsageErrors) {
  Netlist netlist = test_netlist(5, 200);
  EditableDesign design(netlist, false);
  const auto expect_usage = [](auto&& edit) {
    try {
      edit();
      FAIL() << "expected Error{kUsage}";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kUsage);
    }
  };
  const auto n = static_cast<NodeId>(netlist.size());
  expect_usage([&] { design.observe(n); });
  expect_usage([&] { design.control(n, true); });
  const NodeId input = netlist.primary_inputs().front();
  expect_usage([&] { design.observe(input); });
  expect_usage([&] { design.control(input, false); });
  // A node already feeding an OP cannot take a second one.
  NodeId target = 0;
  while (!netlist.can_observe(target)) ++target;
  design.observe(target);
  expect_usage([&] { design.observe(target); });
  EXPECT_EQ(netlist.size(), static_cast<std::size_t>(n) + 1);
}

TEST(EditableDesign, ObserveKeepsScoapAndLevelsExact) {
  // observe() repairs CO with its own cached levels instead of a full
  // relevelization; both must stay equal to a from-scratch recompute,
  // across nested cones and across the rebuild a control point forces.
  Netlist netlist = test_netlist(13);
  EditableDesign design(netlist, false);
  const auto expect_exact = [&](const char* when) {
    EXPECT_EQ(design.scoap().co, compute_scoap(netlist).co) << when;
    EXPECT_EQ(design.levels(), netlist.logic_levels()) << when;
  };
  const auto observe_some = [&](NodeId first, std::size_t count) {
    std::size_t done = 0;
    for (NodeId v = first; v < netlist.size() && done < count; v += 29) {
      if (!netlist.can_observe(v)) continue;
      design.observe(v);
      // A second OP inside the cone the first one just improved.
      for (const NodeId u : netlist.fanin_cone(v, 8)) {
        if (netlist.can_observe(u)) {
          design.observe(u);
          break;
        }
      }
      ++done;
    }
  };
  observe_some(netlist.size() / 3, 20);
  expect_exact("after observes");
  NodeId control_target = netlist.size() / 2;
  while (!netlist.can_control(control_target)) ++control_target;
  design.control(control_target, true);
  observe_some(netlist.size() / 4, 5);  // applied by the pending rebuild
  expect_exact("after a control point");
  observe_some(netlist.size() / 5, 20);
  expect_exact("after observes on the rebuilt design");
}

TEST(EditableDesign, PredictNeedsModels) {
  Netlist netlist = test_netlist(5, 200);
  EditableDesign design(netlist, false);
  EXPECT_THROW(design.predict(), std::logic_error);
}

}  // namespace
}  // namespace gcnt
