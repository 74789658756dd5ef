// OPI flows: baseline COP-greedy and the iterative GCN flow with impact
// evaluation. A small GCN is trained once and shared across tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "atpg/atpg.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "cop/cop.h"
#include "data/dataset.h"
#include "dft/baseline_opi.h"
#include "dft/gcn_opi.h"
#include "dft/impact.h"
#include "gcn/graph_tensors.h"
#include "gcn/trainer.h"
#include "gcn/vec_ops.h"
#include "gen/generator.h"

namespace gcnt {
namespace {

GeneratorConfig test_design(std::uint64_t seed) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = 1200;
  config.primary_inputs = 24;
  config.primary_outputs = 12;
  config.flip_flops = 48;
  config.trap_fraction = 0.04;
  config.trap_enable_width = 9;
  return config;
}

GcnConfig small_model_config() {
  GcnConfig config;
  config.depth = 2;
  config.embed_dims = {8, 16};
  config.fc_dims = {16, 16};
  config.seed = 4242;
  return config;
}

/// Shared trained models + dataset (training once keeps the suite fast).
class GcnOpiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LabelerOptions labeler;
    labeler.batches = 8;
    dataset_ = new Dataset(
        make_dataset(generate_circuit(test_design(501)), labeler));
    model_ = new GcnModel(small_model_config());
    TrainerOptions options;
    options.epochs = 150;
    options.learning_rate = 1e-2f;
    options.positive_class_weight = 8.0f;
    options.eval_interval = 100;
    Trainer trainer(*model_, options);
    const TrainGraph data{&dataset_->tensors, {}};
    trainer.train({data}, nullptr);

    // A deeper second cascade stage, trained on raw and standardized
    // features so that it predicts positives under either.
    GcnConfig config;
    config.depth = 3;
    config.embed_dims = {8, 8, 16};
    config.fc_dims = {16};
    config.seed = 77;
    second_stage_ = new GcnModel(config);
    GraphTensors standardized = dataset_->tensors;
    standardized.standardize_features();
    options.epochs = 60;
    Trainer second_trainer(*second_stage_, options);
    second_trainer.train(
        {TrainGraph{&dataset_->tensors, {}}, TrainGraph{&standardized, {}}},
        nullptr);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete model_;
    delete second_stage_;
    dataset_ = nullptr;
    model_ = nullptr;
    second_stage_ = nullptr;
  }

  static Dataset* dataset_;
  static GcnModel* model_;
  static GcnModel* second_stage_;
};

Dataset* GcnOpiTest::dataset_ = nullptr;
GcnModel* GcnOpiTest::model_ = nullptr;
GcnModel* GcnOpiTest::second_stage_ = nullptr;

/// The map-based recursive impact evaluation that ImpactEvaluator's flat
/// memo replaced, kept as the exactness reference: a hash-map memo of
/// per-embedding vectors, rebuilt for every candidate.
class ReferenceImpact {
 public:
  ReferenceImpact(std::vector<const GcnModel*> stages, const Netlist& netlist,
                  const GraphTensors& tensors, const ScoapMeasures& scoap,
                  const std::vector<std::uint32_t>& levels)
      : stages_(std::move(stages)),
        netlist_(netlist),
        tensors_(tensors),
        scoap_(scoap),
        levels_(levels) {}

  int impact_of(NodeId target, const std::vector<std::int32_t>& predictions,
                std::size_t cone_limit) const {
    std::vector<NodeId> cone = netlist_.fanin_cone(target, cone_limit);
    cone.push_back(target);
    int before = 0;
    for (NodeId v : cone) before += predictions[v] == 1 ? 1 : 0;
    if (before == 0) return 0;

    Overlay overlay;
    overlay.target = target;
    std::sort(cone.begin(), cone.end(), [&](NodeId a, NodeId b) {
      return levels_[a] > levels_[b];
    });
    std::unordered_map<NodeId, std::uint32_t> new_co;
    const auto co_of = [&](NodeId g) {
      const auto it = new_co.find(g);
      return it != new_co.end() ? it->second : scoap_.co[g];
    };
    for (NodeId v : cone) {
      if (v == target) {
        new_co[v] = 0;
        continue;
      }
      if (is_sink(netlist_.type(v))) continue;
      std::uint32_t best = kScoapInfinity;
      for (NodeId g : netlist_.fanouts(v)) {
        const auto& gf = netlist_.fanins(g);
        for (std::size_t slot = 0; slot < gf.size(); ++slot) {
          if (gf[slot] != v) continue;
          best = std::min(best, scoap_observe_through(netlist_, g, slot,
                                                      scoap_, co_of(g)));
        }
      }
      new_co[v] = best;
    }
    for (const auto& [v, co] : new_co) {
      if (co != scoap_.co[v]) {
        overlay.observability_feature[v] = tensors_.encode(3, co);
      }
    }
    int after = 0;
    for (NodeId v : cone) after += cascade_positive(v, overlay) ? 1 : 0;
    return before - after;
  }

 private:
  static constexpr NodeId kVirtualOp = kInvalidNode;

  struct Overlay {
    NodeId target = kInvalidNode;
    std::unordered_map<NodeId, float> observability_feature;
    std::unordered_map<std::uint64_t, std::vector<float>> memo;
  };

  std::vector<float> embed(std::size_t stage, NodeId v, int depth,
                           Overlay& overlay) const {
    const std::uint64_t key = static_cast<std::uint64_t>(v) |
                              (static_cast<std::uint64_t>(depth) << 32) |
                              (static_cast<std::uint64_t>(stage) << 40);
    if (const auto it = overlay.memo.find(key); it != overlay.memo.end()) {
      return it->second;
    }
    std::vector<float> result;
    if (depth == 0) {
      if (v == kVirtualOp) {
        result = {tensors_.encode(0, 0.0), tensors_.encode(1, 1.0),
                  tensors_.encode(2, 1.0), tensors_.encode(3, 0.0)};
      } else {
        const float* row = tensors_.features.row(v);
        result.assign(row, row + kNodeFeatureDim);
        const auto it = overlay.observability_feature.find(v);
        if (it != overlay.observability_feature.end()) result[3] = it->second;
      }
    } else {
      const GcnModel& model = *stages_[stage];
      const float wp = model.w_pr();
      const float ws = model.w_su();
      std::vector<float> aggregated = embed(stage, v, depth - 1, overlay);
      if (v == kVirtualOp) {
        axpy_row(aggregated, wp,
                 embed(stage, overlay.target, depth - 1, overlay));
      } else {
        for (NodeId u : netlist_.fanins(v)) {
          axpy_row(aggregated, wp, embed(stage, u, depth - 1, overlay));
        }
        for (NodeId w : netlist_.fanouts(v)) {
          axpy_row(aggregated, ws, embed(stage, w, depth - 1, overlay));
        }
        if (v == overlay.target) {
          axpy_row(aggregated, ws,
                   embed(stage, kVirtualOp, depth - 1, overlay));
        }
      }
      result = apply_linear_row(
          model.encoders()[static_cast<std::size_t>(depth - 1)], aggregated);
      relu_row(result);
    }
    overlay.memo.emplace(key, result);
    return result;
  }

  bool cascade_positive(NodeId v, Overlay& overlay) const {
    for (std::size_t stage = 0; stage < stages_.size(); ++stage) {
      const GcnModel& model = *stages_[stage];
      const std::vector<float> h = fc_head_row(
          model.fc_layers(), embed(stage, v, model.config().depth, overlay));
      if (h[1] <= h[0]) return false;
    }
    return true;
  }

  std::vector<const GcnModel*> stages_;
  const Netlist& netlist_;
  const GraphTensors& tensors_;
  const ScoapMeasures& scoap_;
  const std::vector<std::uint32_t>& levels_;
};

/// Cascade prediction: 1 where every stage's positive probability >= 0.5.
std::vector<std::int32_t> cascade_predictions(
    const std::vector<const GcnModel*>& stages, const GraphTensors& tensors) {
  std::vector<std::int32_t> positive(tensors.node_count(), 1);
  for (const GcnModel* stage : stages) {
    const auto probability = stage->predict_positive_probability(tensors);
    for (std::size_t v = 0; v < positive.size(); ++v) {
      if (probability[v] < 0.5f) positive[v] = 0;
    }
  }
  return positive;
}

TEST(BaselineOpi, ClearsBelowThresholdNodes) {
  Netlist n = generate_circuit(test_design(301));
  BaselineOpiOptions options;
  options.observability_threshold = 0.01;
  const auto result = run_baseline_opi(n, options);
  EXPECT_GT(result.inserted.size(), 0u);
  EXPECT_EQ(result.remaining_below_threshold, 0u);

  // Post-condition: nothing (insertable) is below the threshold anymore.
  const auto cop = compute_cop(n);
  for (NodeId v = 0; v < n.size(); ++v) {
    if (is_sink(n.type(v)) || n.type(v) == CellType::kInput) continue;
    bool has_op = false;
    for (NodeId g : n.fanouts(v)) {
      has_op |= n.type(g) == CellType::kObserve;
    }
    if (!has_op) {
      EXPECT_GE(cop.observability[v], options.observability_threshold)
          << "node " << v;
    }
  }
}

TEST(BaselineOpi, NoCandidatesMeansNoInsertions) {
  // A shallow, fully observable circuit needs nothing.
  GeneratorConfig config;
  config.seed = 11;
  config.target_gates = 150;
  config.trap_fraction = 0.0;
  config.target_depth = 6;
  Netlist n = generate_circuit(config);
  BaselineOpiOptions options;
  options.observability_threshold = 1e-6;
  const auto result = run_baseline_opi(n, options);
  EXPECT_TRUE(result.inserted.empty());
  EXPECT_EQ(result.rounds, 0u);
}

TEST(BaselineOpi, ImprovesFaultCoverage) {
  Netlist n = generate_circuit(test_design(303));
  AtpgOptions atpg;
  atpg.max_random_batches = 8;
  atpg.podem.backtrack_limit = 8;
  atpg.podem.implication_limit = 64;
  const auto before = run_atpg(n, atpg);
  run_baseline_opi(n, BaselineOpiOptions{});
  const auto after = run_atpg(n, atpg);
  EXPECT_GE(after.fault_coverage(), before.fault_coverage());
}

TEST_F(GcnOpiTest, TrainedModelBeatsChanceOnItsDesign) {
  const auto probabilities =
      model_->predict_positive_probability(dataset_->tensors);
  std::vector<std::int32_t> predictions(probabilities.size());
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    predictions[i] = probabilities[i] >= 0.5f ? 1 : 0;
  }
  const auto cm = evaluate_binary(predictions, dataset_->tensors.labels);
  EXPECT_GT(cm.recall(), 0.5);
  EXPECT_GT(cm.precision(), 0.2);
}

TEST_F(GcnOpiTest, ImpactEvaluatorRanksConeCoverage) {
  const Netlist& n = dataset_->netlist;
  const auto predictions_prob =
      model_->predict_positive_probability(dataset_->tensors);
  std::vector<std::int32_t> predictions(predictions_prob.size());
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    predictions[i] = predictions_prob[i] >= 0.5f ? 1 : 0;
  }
  ImpactEvaluator evaluator({model_}, n, dataset_->tensors, dataset_->scoap,
                            dataset_->levels);
  // Impact of a positive node is at least 0 in the common case and at
  // most the cone positive count.
  int evaluated = 0;
  for (NodeId v = 0; v < n.size() && evaluated < 12; ++v) {
    if (predictions[v] != 1 || is_sink(n.type(v))) continue;
    const int impact = evaluator.impact_of(v, predictions, 64);
    auto cone = n.fanin_cone(v, 64);
    cone.push_back(v);
    int cone_positives = 0;
    for (NodeId u : cone) cone_positives += predictions[u];
    EXPECT_LE(impact, cone_positives);
    ++evaluated;
  }
  EXPECT_GT(evaluated, 0);
}

TEST_F(GcnOpiTest, FlatMemoImpactsMatchRecursiveReference) {
  Dataset second = make_dataset(generate_circuit(test_design(502)));
  const std::vector<std::vector<const GcnModel*>> cascades = {
      {model_}, {model_, second_stage_}};
  std::size_t evaluated = 0;
  std::size_t improved = 0;
  for (const Dataset* design : {dataset_, &second}) {
    const Netlist& n = design->netlist;
    std::vector<NodeId> observable;
    for (NodeId v = 0; v < n.size(); ++v) {
      if (n.can_observe(v)) observable.push_back(v);
    }
    for (const bool standardize : {false, true}) {
      GraphTensors tensors = design->tensors;
      if (standardize) tensors.standardize_features();
      for (const auto& stages : cascades) {
        const auto predictions = cascade_predictions(stages, tensors);
        const ImpactEvaluator evaluator(stages, n, tensors, design->scoap,
                                        design->levels);
        const ReferenceImpact reference(stages, n, tensors, design->scoap,
                                        design->levels);
        for (const std::size_t limit : {1u, 16u, 128u}) {
          for (const NodeId v : observable) {
            const int expected = reference.impact_of(v, predictions, limit);
            ASSERT_EQ(evaluator.impact_of(v, predictions, limit), expected)
                << "node " << v << " limit " << limit << " stages "
                << stages.size() << " standardized " << standardize;
            evaluated += 1;
            improved += expected > 0 ? 1 : 0;
          }
        }
      }
    }
  }
  // The cases must exercise real re-predictions, not only empty cones.
  EXPECT_GT(evaluated, 0u);
  EXPECT_GT(improved, 100u);
}

TEST_F(GcnOpiTest, BatchImpactsMatchPerCandidateAtAnyThreadCount) {
  const Netlist& n = dataset_->netlist;
  const std::vector<const GcnModel*> stages = {model_, second_stage_};
  const auto predictions = cascade_predictions(stages, dataset_->tensors);
  const ImpactEvaluator evaluator(stages, n, dataset_->tensors,
                                  dataset_->scoap, dataset_->levels);
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.can_observe(v)) candidates.push_back(v);
  }
  std::vector<int> expected;
  for (const NodeId v : candidates) {
    expected.push_back(evaluator.impact_of(v, predictions, 64));
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    set_kernel_threads(threads);
    EXPECT_EQ(evaluator.impacts(candidates, predictions, 64), expected)
        << threads << " threads";
  }
  set_kernel_threads(0);
}

TEST_F(GcnOpiTest, FlowInsertsSameOpsAcrossThreadsReorderAndShards) {
  GcnOpiOptions options;
  options.max_iterations = 4;
  const auto sweep = [&](std::size_t threads, GraphReorder reorder,
                         std::size_t shards) {
    set_kernel_threads(threads);
    set_graph_reorder(reorder);
    options.shards = shards;
    Netlist working = dataset_->netlist;
    const auto inserted = run_gcn_opi(working, {model_}, options).inserted;
    set_kernel_threads(0);
    reset_graph_reorder();
    return inserted;
  };
  const std::vector<NodeId> reference = sweep(1, GraphReorder::kOff, 0);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(sweep(4, GraphReorder::kOff, 0), reference);
  EXPECT_EQ(sweep(1, GraphReorder::kRcm, 0), reference);
  EXPECT_EQ(sweep(4, GraphReorder::kRcm, 0), reference);
  EXPECT_EQ(sweep(4, GraphReorder::kOff, 2), reference);
}

TEST_F(GcnOpiTest, IterativeFlowReducesPositivePredictions) {
  Netlist working = dataset_->netlist;  // copy; flow mutates
  GcnOpiOptions options;
  options.max_iterations = 6;
  options.insert_fraction = 0.4;
  const auto result = run_gcn_opi(working, {model_}, options);
  EXPECT_GT(result.inserted.size(), 0u);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_EQ(working.observe_points().size(), result.inserted.size());
  // The flow either converged (no positives) or at least shrank the
  // positive population substantially versus the start.
  const auto start_positives = dataset_->positives();
  EXPECT_LT(result.final_positive_predictions, start_positives * 2);
  EXPECT_TRUE(working.validate().empty());
}

TEST_F(GcnOpiTest, FlowImprovesObservabilityOfLabeledPositives) {
  Netlist working = dataset_->netlist;
  GcnOpiOptions options;
  options.max_iterations = 6;
  options.insert_fraction = 0.5;
  run_gcn_opi(working, {model_}, options);

  const auto cop_before = compute_cop(dataset_->netlist);
  const auto cop_after = compute_cop(working);
  double before = 0.0, after = 0.0;
  for (std::uint32_t v : dataset_->positive_rows) {
    before += cop_before.observability[v];
    after += cop_after.observability[v];
  }
  EXPECT_GT(after, before);  // mean observability of true positives rose
}

}  // namespace
}  // namespace gcnt
