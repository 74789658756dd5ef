// OPI flows: baseline COP-greedy and the iterative GCN flow with impact
// evaluation. A small GCN is trained once and shared across tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "atpg/atpg.h"
#include "common/error.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "cop/cop.h"
#include "data/dataset.h"
#include "dft/baseline_opi.h"
#include "dft/gcn_opi.h"
#include "dft/impact.h"
#include "gcn/editable_design.h"
#include "gcn/graph_tensors.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "nn/loss.h"

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

/// The whole-graph oracle of ImpactEvaluator: the same capped-cone CO
/// overlay, applied with the OP to copies of the netlist and tensors
/// (insert_observe_point, append_observe_point, rebuild_csr), then
/// GcnModel::infer per stage over the whole edited graph.
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

    Netlist netlist = netlist_;
    const NodeId op = netlist.insert_observe_point(target);
    ScoapMeasures scoap = scoap_;
    for (const auto& [v, co] : new_co) scoap.co[v] = co;
    GraphTensors tensors = tensors_;
    append_observe_point(tensors, netlist, target, op, scoap, cone);
    tensors.rebuild_csr();
    std::vector<bool> positive(cone.size(), true);
    for (const GcnModel* stage : stages_) {
      const Matrix logits = stage->infer(tensors);
      for (std::size_t i = 0; i < cone.size(); ++i) {
        if (!predicts_positive(logits.row(cone[i]), logits.cols())) {
          positive[i] = false;
        }
      }
    }
    return before -
           static_cast<int>(std::count(positive.begin(), positive.end(), true));
  }

 private:
  std::vector<const GcnModel*> stages_;
  const Netlist& netlist_;
  const GraphTensors& tensors_;
  const ScoapMeasures& scoap_;
  const std::vector<std::uint32_t>& levels_;
};

/// Cascade prediction: 1 where every stage's logits pass
/// predicts_positive(), as in EditableDesign::predictions().
std::vector<std::int32_t> cascade_predictions(
    const std::vector<const GcnModel*>& stages, const GraphTensors& tensors) {
  std::vector<std::int32_t> positive(tensors.node_count(), 1);
  for (const GcnModel* stage : stages) {
    const Matrix logits = stage->infer(tensors);
    for (std::size_t v = 0; v < positive.size(); ++v) {
      if (!predicts_positive(logits.row(v), logits.cols())) positive[v] = 0;
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

TEST_F(GcnOpiTest, ImpactsMatchWholeGraphOracle) {
  // Each arm checks every kStride-th observable node, from a rotating
  // offset: a whole-graph forward per candidate is the oracle's cost.
  constexpr std::size_t kStride = 16;
  Dataset second = make_dataset(generate_circuit(test_design(502)));
  const std::vector<std::vector<const GcnModel*>> cascades = {
      {model_}, {model_, second_stage_}};
  std::size_t arm = 0;
  std::size_t evaluated = 0;
  std::size_t improved = 0;
  for (const Dataset* design : {dataset_, &second}) {
    const Netlist& n = design->netlist;
    std::vector<NodeId> observable;
    for (NodeId v = 0; v < n.size(); ++v) {
      if (n.can_observe(v)) observable.push_back(v);
    }
    for (const GraphReorder reorder : {GraphReorder::kOff, GraphReorder::kRcm}) {
      set_graph_reorder(reorder);
      const GraphTensors built =
          build_graph_tensors(n, design->scoap, design->levels);
      reset_graph_reorder();
      for (const bool standardize : {false, true}) {
        GraphTensors tensors = built;
        if (standardize) tensors.standardize_features();
        for (const auto& stages : cascades) {
          const auto predictions = cascade_predictions(stages, tensors);
          const ImpactEvaluator evaluator(stages, n, tensors, design->scoap,
                                          design->levels);
          const ReferenceImpact reference(stages, n, tensors, design->scoap,
                                          design->levels);
          for (std::size_t i = arm++ % kStride; i < observable.size();
               i += kStride) {
            const NodeId v = observable[i];
            // Limits ascend, and a capped cone as large as the previous
            // one is the same cone: the same edit, so the same oracle.
            std::size_t previous_cone = ~std::size_t{0};
            int expected = 0;
            for (const std::size_t limit : {1u, 16u, 128u}) {
              const std::size_t cone = n.fanin_cone(v, limit).size();
              if (cone != previous_cone) {
                expected = reference.impact_of(v, predictions, limit);
              }
              previous_cone = cone;
              ASSERT_EQ(evaluator.impact_of(v, predictions, limit), expected)
                  << "node " << v << " limit " << limit << " stages "
                  << stages.size() << " standardized " << standardize
                  << " reorder " << static_cast<int>(reorder);
              evaluated += 1;
              improved += expected > 0 ? 1 : 0;
            }
          }
        }
      }
    }
  }
  // The cases must exercise real re-predictions, not only empty cones.
  EXPECT_GT(evaluated, 0u);
  EXPECT_GT(improved, 100u);
}

// End to end: where the whole fan-in cone fits under the limit, the
// impact is the cone's positives before minus its positives after
// EditableDesign::observe and predict() on a copy of the design.
TEST_F(GcnOpiTest, ImpactsMatchEditableDesignObserve) {
  constexpr std::size_t kLimit = 128;
  // Each arm edits every kStride-th candidate, from a rotating offset.
  constexpr std::size_t kStride = 4;
  std::size_t arm = 0;
  const std::vector<std::vector<const GcnModel*>> cascades = {
      {model_}, {model_, second_stage_}};
  std::size_t checked = 0;
  std::size_t improved = 0;
  for (const bool standardize : {false, true}) {
    for (const auto& stages : cascades) {
      Netlist netlist = dataset_->netlist;
      EditableDesign design(netlist, standardize);
      design.set_models(stages);
      design.predict();
      const std::vector<std::int32_t> predictions = design.predictions();
      const ImpactEvaluator evaluator(stages, netlist, design.tensors(),
                                      design.scoap(), design.levels());
      for (NodeId v = arm++ % kStride; v < netlist.size(); v += kStride) {
        if (!netlist.can_observe(v)) continue;
        std::vector<NodeId> cone = netlist.fanin_cone(v);
        if (cone.size() >= kLimit) continue;
        cone.push_back(v);
        int before = 0;
        for (const NodeId u : cone) before += predictions[u];
        const int impact = evaluator.impact_of(v, predictions, kLimit);
        if (before == 0) {
          EXPECT_EQ(impact, 0) << "node " << v;
          continue;
        }
        Netlist copy = dataset_->netlist;
        EditableDesign edited(copy, standardize);
        edited.set_models(stages);
        edited.predict();
        edited.observe(v);
        edited.predict();
        const std::vector<std::int32_t> after = edited.predictions();
        int positives = 0;
        for (const NodeId u : cone) positives += after[u];
        ASSERT_EQ(impact, before - positives)
            << "node " << v << " stages " << stages.size()
            << " standardized " << standardize;
        checked += 1;
        improved += impact > 0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(improved, 0u);
}

std::vector<NodeId> observable_nodes(const Netlist& netlist) {
  std::vector<NodeId> observable;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (netlist.can_observe(v)) observable.push_back(v);
  }
  return observable;
}

// Ranking against a design's engines reads their cached E_d and logits
// for every row a tentative OP cannot change. Whatever wrote the caches
// (a refresh, a dirty update after an OP, a fallback update after many),
// it must give the impacts of the evaluator that recomputes every row,
// for every observable candidate, and of the whole-graph oracle.
TEST_F(GcnOpiTest, CachedImpactsMatchUncached) {
  constexpr std::size_t kLimit = 128;
  // The oracle checks every kStride-th candidate, from a rotating offset.
  constexpr std::size_t kStride = 16;
  enum class Caches { kRefresh, kDirty, kFallback };
  const std::vector<std::vector<const GcnModel*>> cascades = {
      {model_}, {model_, second_stage_}};
  std::size_t arm = 0;
  std::size_t improved = 0;
  for (const GraphReorder reorder : {GraphReorder::kOff, GraphReorder::kRcm}) {
    for (const bool standardize : {false, true}) {
      for (const auto& stages : cascades) {
        for (const Caches caches :
             {Caches::kRefresh, Caches::kDirty, Caches::kFallback}) {
          set_graph_reorder(reorder);
          Netlist netlist = dataset_->netlist;
          EditableDesign design(netlist, standardize);
          design.set_models(stages);
          ASSERT_TRUE(design.predict().refreshed);
          const std::vector<NodeId> before = observable_nodes(netlist);
          if (caches == Caches::kDirty) {
            // An OP on a node with a small cone keeps the update dirty.
            const auto small = std::find_if(
                before.begin(), before.end(),
                [&](NodeId v) { return netlist.fanin_cone(v, 4).size() < 4; });
            ASSERT_NE(small, before.end());
            design.observe(*small);
          } else if (caches == Caches::kFallback) {
            for (std::size_t i = 0; i < before.size(); i += 5) {
              design.observe(before[i]);
            }
          }
          if (caches != Caches::kRefresh) {
            const EditableDesign::Prediction p = design.predict();
            ASSERT_FALSE(p.refreshed);
            ASSERT_EQ(p.full_fallbacks,
                      caches == Caches::kFallback ? stages.size() : 0u);
          }
          reset_graph_reorder();
          const std::vector<std::int32_t> predictions = design.predictions();
          const std::vector<NodeId> candidates = observable_nodes(netlist);
          const ImpactEvaluator cached(design);
          const ImpactEvaluator uncached(stages, netlist, design.tensors(),
                                         design.scoap(), design.levels());
          std::vector<int> expected;
          for (const std::size_t threads : {1u, 4u}) {
            set_kernel_threads(threads);
            expected = uncached.impacts(candidates, predictions, kLimit);
            ASSERT_EQ(cached.impacts(candidates, predictions, kLimit),
                      expected)
                << threads << " threads, stages " << stages.size()
                << " standardized " << standardize << " reorder "
                << static_cast<int>(reorder) << " caches "
                << static_cast<int>(caches);
          }
          set_kernel_threads(0);
          const ReferenceImpact reference(stages, netlist, design.tensors(),
                                          design.scoap(), design.levels());
          for (std::size_t i = arm++ % kStride; i < candidates.size();
               i += kStride) {
            ASSERT_EQ(reference.impact_of(candidates[i], predictions, kLimit),
                      expected[i])
                << "node " << candidates[i];
          }
          improved += static_cast<std::size_t>(std::count_if(
              expected.begin(), expected.end(), [](int i) { return i > 0; }));
        }
      }
    }
  }
  EXPECT_GT(improved, 100u);
}

// The caches stand in for rows only while they describe the design's
// tensors: a design without models, not yet predicted or with an edit no
// predict() has seen is refused.
TEST_F(GcnOpiTest, CachedImpactsRefuseStaleCaches) {
  Netlist netlist = dataset_->netlist;
  EditableDesign design(netlist, false);
  const auto refused = [&] {
    try {
      const ImpactEvaluator evaluator(design);
    } catch (const Error& e) {
      return e.kind() == ErrorKind::kUsage;
    }
    return false;
  };
  EXPECT_TRUE(refused());  // no models
  design.set_models({model_});
  EXPECT_TRUE(refused());  // no predict() yet
  design.predict();
  EXPECT_FALSE(refused());
  const std::vector<NodeId> observable = observable_nodes(netlist);
  design.observe(observable.front());
  EXPECT_TRUE(refused());  // a pending OP
  design.predict();
  EXPECT_FALSE(refused());
  NodeId controllable = 0;
  while (!netlist.can_control(controllable)) ++controllable;
  design.control(controllable, true);
  EXPECT_TRUE(refused());  // a pending CP
  design.predict();
  EXPECT_FALSE(refused());
  design.set_models({model_, second_stage_});
  EXPECT_TRUE(refused());  // new engines, no predict() yet
}

// The cached evaluator must do less work, not only the same arithmetic:
// on the fixture it recomputes strictly fewer rows than the uncached one
// and reads some from the caches. The sharded engine keeps no whole-graph
// E_d, so ranking against it recomputes every row.
TEST_F(GcnOpiTest, CachedImpactsRecomputeFewerRows) {
  const bool stats_were_enabled = stats_enabled();
  set_stats_enabled(true);
  StatsRegistry& registry = StatsRegistry::instance();
  Counter& recomputed = registry.counter("dft.impact_rows_recomputed");
  Counter& cached_rows = registry.counter("dft.impact_rows_cached");
  const std::vector<const GcnModel*> stages = {model_, second_stage_};
  struct Work {
    std::vector<int> impacts;
    std::uint64_t recomputed = 0, cached = 0;
  };
  const auto rank = [&](const ImpactEvaluator& evaluator,
                        const std::vector<NodeId>& candidates,
                        const std::vector<std::int32_t>& predictions) {
    const std::uint64_t r0 = recomputed.value();
    const std::uint64_t c0 = cached_rows.value();
    Work work{evaluator.impacts(candidates, predictions, 128)};
    work.recomputed = recomputed.value() - r0;
    work.cached = cached_rows.value() - c0;
    return work;
  };

  Netlist netlist = dataset_->netlist;
  EditableDesign design(netlist, false);
  design.set_models(stages);
  design.predict();
  const std::vector<std::int32_t> predictions = design.predictions();
  std::vector<NodeId> candidates;
  for (const NodeId v : observable_nodes(netlist)) {
    if (predictions[v] == 1) candidates.push_back(v);
  }
  ASSERT_FALSE(candidates.empty());
  const Work all = rank(ImpactEvaluator(stages, netlist, design.tensors(),
                                        design.scoap(), design.levels()),
                        candidates, predictions);
  const Work cached = rank(ImpactEvaluator(design), candidates, predictions);
  EXPECT_EQ(cached.impacts, all.impacts);
  EXPECT_GT(all.recomputed, 0u);
  EXPECT_EQ(all.cached, 0u);
  EXPECT_LT(cached.recomputed, all.recomputed);
  EXPECT_GT(cached.cached, 0u);

  Netlist sharded_netlist = dataset_->netlist;
  EditableDesign sharded(sharded_netlist, false);
  sharded.set_models(stages, 2);
  sharded.predict();
  ASSERT_EQ(sharded.predictions(), predictions);
  const Work uncached = rank(ImpactEvaluator(sharded), candidates, predictions);
  EXPECT_EQ(uncached.impacts, all.impacts);
  EXPECT_EQ(uncached.recomputed, all.recomputed);
  EXPECT_EQ(uncached.cached, 0u);
  set_stats_enabled(stats_were_enabled);
}

TEST_F(GcnOpiTest, ImpactEvaluatorRejectsMismatchedInputs) {
  const Netlist& n = dataset_->netlist;
  const std::vector<const GcnModel*> stages = {model_};
  const auto predictions = cascade_predictions(stages, dataset_->tensors);
  const ImpactEvaluator evaluator(stages, n, dataset_->tensors,
                                  dataset_->scoap, dataset_->levels);
  NodeId target = 0;
  while (!n.can_observe(target)) ++target;
  const std::vector<std::int32_t> short_predictions(predictions.begin(),
                                                    predictions.end() - 1);
  EXPECT_THROW(evaluator.impact_of(target, short_predictions, 16),
               std::invalid_argument);
  EXPECT_THROW(evaluator.impacts({target}, short_predictions, 16),
               std::invalid_argument);
  const auto past_end = static_cast<NodeId>(n.size());
  EXPECT_THROW(evaluator.impact_of(past_end, predictions, 16),
               std::out_of_range);
  EXPECT_THROW(evaluator.impacts({target, past_end}, predictions, 16),
               std::out_of_range);
}

// One impacts() call records one dft.impact_rank span with its three
// args; the layer steps inside it record nothing.
TEST_F(GcnOpiTest, ImpactRankTracesOneSpanWithoutLayerSpans) {
  const Netlist& n = dataset_->netlist;
  const std::vector<const GcnModel*> stages = {model_, second_stage_};
  const auto predictions = cascade_predictions(stages, dataset_->tensors);
  const ImpactEvaluator evaluator(stages, n, dataset_->tensors,
                                  dataset_->scoap, dataset_->levels);
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (predictions[v] == 1 && n.can_observe(v)) candidates.push_back(v);
  }
  ASSERT_FALSE(candidates.empty());
  const std::string path = "dft_impact_rank_trace.json";
  trace_reset();
  trace_start();
  evaluator.impacts(candidates, predictions, 64);
  ASSERT_TRUE(trace_stop(path));

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::parse(text.str(), root, error)) << error;
  std::vector<const json::Value*> ranks;
  std::size_t layers = 0;
  for (const json::Value& event : root.find("traceEvents")->array) {
    const json::Value* name = event.find("name");
    if (name == nullptr) continue;
    if (name->text == "dft.impact_rank") ranks.push_back(&event);
    if (name->text == "gcn.layer") ++layers;
  }
  EXPECT_EQ(layers, 0u);
  ASSERT_EQ(ranks.size(), 1u);
  const json::Value* args = ranks.front()->find("args");
  ASSERT_NE(args, nullptr);
  const json::Value* count = args->find("candidates");
  const json::Value* cone_nodes = args->find("cone_nodes");
  const json::Value* rows = args->find("rows");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(cone_nodes, nullptr);
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(count->number, static_cast<double>(candidates.size()));
  EXPECT_GE(cone_nodes->number, static_cast<double>(candidates.size()));
  // The first stage alone re-predicts every cone row at each layer.
  EXPECT_GE(rows->number, 2 * cone_nodes->number);
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

TEST_F(GcnOpiTest, ImpactsRefillLocalCsrsWithoutGrowing) {
  // Each candidate refills its scratch's per-layer CSRs in place, so once
  // one call has met the largest closure, no later call over the same
  // candidates (or any one of them) grows CsrMatrix::capacity(), with or
  // without caches. CSRs built per candidate would be sized to each
  // closure instead.
  const std::vector<const GcnModel*> stages = {model_, second_stage_};
  Netlist netlist = dataset_->netlist;
  EditableDesign design(netlist, false);
  design.set_models(stages);
  design.predict();
  const std::vector<std::int32_t> predictions = design.predictions();
  std::vector<NodeId> candidates;
  for (const NodeId v : observable_nodes(netlist)) {
    if (predictions[v] == 1) candidates.push_back(v);
  }
  ASSERT_FALSE(candidates.empty());
  for (const std::size_t threads : {1u, 4u}) {
    set_kernel_threads(threads);
    for (const bool use_caches : {false, true}) {
      const auto evaluator =
          use_caches ? std::make_unique<ImpactEvaluator>(design)
                     : std::make_unique<ImpactEvaluator>(
                           stages, netlist, design.tensors(), design.scoap(),
                           design.levels());
      EXPECT_EQ(evaluator->csr_capacity(), 0u);
      const std::vector<int> first =
          evaluator->impacts(candidates, predictions, 128);
      const std::size_t capacity = evaluator->csr_capacity();
      EXPECT_GT(capacity, 0u) << threads << " threads";
      EXPECT_EQ(evaluator->impacts(candidates, predictions, 128), first);
      EXPECT_EQ(evaluator->csr_capacity(), capacity)
          << threads << " threads, caches " << use_caches;
      if (threads != 1) continue;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        EXPECT_EQ(evaluator->impacts({candidates[i]}, predictions, 128),
                  std::vector<int>{first[i]});
        ASSERT_EQ(evaluator->csr_capacity(), capacity)
            << "after " << i << ", caches " << use_caches;
      }
    }
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
