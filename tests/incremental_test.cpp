// Incremental dirty-cone inference (gcn/incremental.h): the equivalence
// suite pinning the bit-identity claim — incremental logits must equal a
// full GcnModel::infer after 1, 2, and 64 OP insertions, across thread
// counts — plus DirtyConeTracker unit tests and end-to-end checks of the
// OPI/CPI loops' dirty-cone re-prediction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "cop/cop.h"
#include "data/labeler.h"
#include "dft/gcn_cpi.h"
#include "dft/gcn_opi.h"
#include "gcn/graph_tensors.h"
#include "gcn/incremental.h"
#include "gcn/model.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "netlist/netlist.h"
#include "scoap/scoap.h"
#include "tensor/sparse.h"

namespace gcnt {
namespace {

Netlist test_netlist(std::uint64_t seed, std::size_t gates = 2000) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = gates;
  config.primary_inputs = 30;
  config.primary_outputs = 12;
  config.flip_flops = 32;
  return generate_circuit(config);
}

GcnConfig small_config(int depth = 3) {
  GcnConfig config;
  config.depth = depth;
  config.embed_dims = {8, 12, 16};
  config.embed_dims.resize(depth);
  config.fc_dims = {16};
  config.seed = 77;
  return config;
}

/// Valid OP targets in the OPI sense: drive a real signal and do not
/// already feed an observation point.
std::vector<NodeId> op_targets(const Netlist& netlist, std::size_t count) {
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < netlist.size() && targets.size() < count; ++v) {
    const CellType t = netlist.type(v);
    if (is_sink(t) || t == CellType::kInput) continue;
    targets.push_back(v);
  }
  return targets;
}

/// Applies `count` OP insertions exactly as run_gcn_opi does (netlist
/// mutation, SCOAP repair, append_observe_point, tracker records) and
/// returns the rebuilt tensors ready for prediction.
void insert_ops(Netlist& netlist, GraphTensors& tensors, ScoapMeasures& scoap,
                std::vector<std::uint32_t>& levels,
                const std::vector<NodeId>& targets, DirtyConeTracker& tracker) {
  for (const NodeId target : targets) {
    const NodeId op = netlist.insert_observe_point(target);
    update_observability_after_observe(netlist, target, scoap);
    levels.resize(netlist.size(), 0);
    levels[op] = levels[target] + 1;
    const std::vector<NodeId> cone = netlist.fanin_cone(target);
    std::vector<NodeId> changed_rows;
    append_observe_point(tensors, netlist, target, op, scoap, cone,
                         &changed_rows);
    tracker.record_new_node(op);
    tracker.record_edge(target, op);
    for (NodeId v : changed_rows) tracker.record_feature(v);
  }
  tensors.rebuild_csr();
}

TEST(DirtyCone, AffectedIsSortedClosureOverBothDirections) {
  const Netlist netlist = test_netlist(11, 300);
  const GraphTensors tensors = build_graph_tensors(netlist);
  // Pick a gate with both fanins and fanouts as the seed.
  NodeId seed = kInvalidNode;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (!netlist.fanins(v).empty() && !netlist.fanouts(v).empty()) {
      seed = v;
      break;
    }
  }
  ASSERT_NE(seed, kInvalidNode);

  DirtyConeTracker tracker;
  tracker.record_feature(seed);
  const auto zero_hop = tracker.affected(tensors, 0);
  EXPECT_EQ(zero_hop, std::vector<NodeId>{seed});

  const auto one_hop = tracker.affected(tensors, 1);
  EXPECT_TRUE(std::is_sorted(one_hop.begin(), one_hop.end()));
  // Exactly the seed plus its immediate fanins and fanouts.
  std::vector<NodeId> expected{seed};
  for (NodeId u : netlist.fanins(seed)) expected.push_back(u);
  for (NodeId w : netlist.fanouts(seed)) expected.push_back(w);
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(one_hop, expected);

  // Deeper closures are supersets and monotone in depth.
  const auto two_hop = tracker.affected(tensors, 2);
  EXPECT_GE(two_hop.size(), one_hop.size());
  EXPECT_TRUE(std::includes(two_hop.begin(), two_hop.end(), one_hop.begin(),
                            one_hop.end()));
}

TEST(DirtyCone, SeedOutOfRangeThrows) {
  const Netlist netlist = test_netlist(12, 100);
  const GraphTensors tensors = build_graph_tensors(netlist);
  DirtyConeTracker tracker;
  tracker.record_feature(static_cast<NodeId>(netlist.size()));
  EXPECT_THROW(tracker.affected(tensors, 2), std::out_of_range);
}

TEST(DirtyCone, StaleCsrThrows) {
  const Netlist netlist = test_netlist(13, 100);
  GraphTensors tensors = build_graph_tensors(netlist);
  // Grow the COO beyond the built CSR without rebuilding.
  tensors.features.resize(netlist.size() + 1, kNodeFeatureDim);
  DirtyConeTracker tracker;
  tracker.record_feature(0);
  EXPECT_THROW(tracker.affected(tensors, 1), std::invalid_argument);
}

TEST(DirtyCone, ClearForgetsSeeds) {
  DirtyConeTracker tracker;
  tracker.record_edge(1, 2);
  EXPECT_FALSE(tracker.empty());
  EXPECT_EQ(tracker.seed_count(), 2u);
  tracker.clear();
  EXPECT_TRUE(tracker.empty());
}

TEST(Incremental, RefreshMatchesInferBitwise) {
  const Netlist netlist = test_netlist(21);
  const GraphTensors tensors = build_graph_tensors(netlist);
  const GcnModel model(small_config());
  IncrementalGcnEngine engine(model);
  const Matrix& logits = engine.refresh(tensors);
  EXPECT_EQ(logits, model.infer(tensors));  // bitwise, not approximate
  EXPECT_EQ(engine.positive_probability(),
            model.predict_positive_probability(tensors));
}

/// The core equivalence matrix: incremental logits == full-infer logits
/// after 1, 2, and 64 OP insertions, for GCNT_THREADS in {1, 8}, on
/// whichever path the fallback rule picks.
TEST(Incremental, UpdateMatchesFullInferAcrossThreads) {
  for (const std::size_t insertions : {1u, 2u, 64u}) {
    for (const int threads : {1, 8}) {
      set_kernel_threads(threads);

      Netlist netlist = test_netlist(31);
      ScoapMeasures scoap = compute_scoap(netlist);
      std::vector<std::uint32_t> levels = netlist.logic_levels();
      GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
      const GcnModel model(small_config());
      IncrementalGcnEngine engine(model);
      engine.refresh(tensors);

      DirtyConeTracker tracker;
      const auto targets = op_targets(netlist, insertions);
      ASSERT_EQ(targets.size(), insertions);
      insert_ops(netlist, tensors, scoap, levels, targets, tracker);

      const auto dirty = tracker.affected(tensors, model.config().depth);
      engine.update(tensors, dirty);
      // The subset kernels run for 1 and 2 insertions. From 8 on, the
      // dirty cone on this design is past kFullFallbackFraction, so the
      // update of 64 is a full pass.
      const bool over = static_cast<double>(dirty.size()) >
                        kFullFallbackFraction *
                            static_cast<double>(tensors.node_count());
      EXPECT_EQ(over, insertions == 64) << "dirty=" << dirty.size();
      EXPECT_EQ(engine.last_was_full(), over);
      if (!over) {
        EXPECT_EQ(engine.last_dirty_rows(), dirty.size());
      }
      EXPECT_EQ(engine.logits(), model.infer(tensors))
          << "insertions=" << insertions << " threads=" << threads;

      set_kernel_threads(0);
    }
  }
}

TEST(Incremental, RepeatedUpdateBatchesStayIdentical) {
  // Several update() rounds in sequence (as the OPI loop performs) must
  // keep the cache exact: compare against a full infer after each batch.
  Netlist netlist = test_netlist(41);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model);
  engine.refresh(tensors);

  auto all_targets = op_targets(netlist, 24);
  ASSERT_EQ(all_targets.size(), 24u);
  for (int round = 0; round < 3; ++round) {
    DirtyConeTracker tracker;
    const std::vector<NodeId> batch(all_targets.begin() + round * 8,
                                    all_targets.begin() + (round + 1) * 8);
    insert_ops(netlist, tensors, scoap, levels, batch, tracker);
    engine.update(tensors, tracker.affected(tensors, model.config().depth));
    EXPECT_FALSE(engine.last_was_full());
    EXPECT_EQ(engine.logits(), model.infer(tensors)) << "round=" << round;
  }
}

TEST(Incremental, FallsBackAboveDirtyFractionThreshold) {
  const Netlist netlist = test_netlist(51, 400);
  const GraphTensors tensors = build_graph_tensors(netlist);
  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model);
  engine.refresh(tensors);
  // One row past kFullFallbackFraction of the nodes -> full fallback.
  const auto over = static_cast<std::size_t>(
      kFullFallbackFraction * static_cast<double>(tensors.node_count()));
  std::vector<NodeId> dirty(over + 1);
  for (NodeId v = 0; v < dirty.size(); ++v) dirty[v] = v;
  engine.update(tensors, dirty);
  EXPECT_TRUE(engine.last_was_full());
  EXPECT_EQ(engine.logits(), model.infer(tensors));
  // At the fraction itself the dirty rows are re-propagated.
  dirty.pop_back();
  engine.update(tensors, dirty);
  EXPECT_FALSE(engine.last_was_full());
  EXPECT_EQ(engine.last_dirty_rows(), dirty.size());
  EXPECT_EQ(engine.logits(), model.infer(tensors));
}

TEST(Incremental, UpdateWithoutCacheRunsFullForward) {
  const Netlist netlist = test_netlist(52, 300);
  const GraphTensors tensors = build_graph_tensors(netlist);
  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model);
  engine.update(tensors, {1, 2, 3});
  EXPECT_TRUE(engine.last_was_full());
  EXPECT_EQ(engine.logits(), model.infer(tensors));
}

TEST(Incremental, UpdateValidatesInputs) {
  const Netlist netlist = test_netlist(53, 300);
  GraphTensors tensors = build_graph_tensors(netlist);
  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model);
  engine.refresh(tensors);
  EXPECT_THROW(
      engine.update(tensors, {static_cast<NodeId>(netlist.size())}),
      std::out_of_range);
  // Grown features without rebuild_csr -> stale CSR must be rejected.
  Matrix grown(tensors.features.rows() + 1, kNodeFeatureDim);
  for (std::size_t r = 0; r < tensors.features.rows(); ++r) {
    for (std::size_t c = 0; c < kNodeFeatureDim; ++c) {
      grown.at(r, c) = tensors.features.at(r, c);
    }
  }
  tensors.features = std::move(grown);
  EXPECT_THROW(engine.update(tensors, {0}), std::invalid_argument);
}

TEST(Incremental, OpiFlowIdenticalWithAndWithoutIncremental) {
  // End-to-end pin: the OPI loop makes exactly the same decisions whether
  // predictions come from dirty-cone updates or from scratch. Chained
  // single-iteration runs predict from scratch: each builds a new design,
  // whose first predict() is a full forward.
  const GcnModel model(small_config());
  GcnOpiOptions options;
  options.max_iterations = 3;
  options.insert_fraction = 0.2;

  Netlist full_netlist = test_netlist(61, 600);
  Netlist incremental_netlist = full_netlist;
  GcnOpiOptions single = options;
  single.max_iterations = 1;
  std::vector<NodeId> full_inserted;
  OpiResult full;
  for (std::size_t i = 0; i < options.max_iterations; ++i) {
    full = run_gcn_opi(full_netlist, {&model}, single);
    full_inserted.insert(full_inserted.end(), full.inserted.begin(),
                         full.inserted.end());
  }
  const OpiResult incremental =
      run_gcn_opi(incremental_netlist, {&model}, options);

  EXPECT_EQ(full_inserted, incremental.inserted);
  EXPECT_EQ(incremental.iterations, options.max_iterations);
  EXPECT_EQ(full.final_positive_predictions,
            incremental.final_positive_predictions);
  EXPECT_GT(incremental.inserted.size(), 0u);

  // The sharded engine predicts the same bits, so the flow must insert
  // exactly the same OPs for every shard count and halo depth.
  const Netlist original = test_netlist(61, 600);
  const auto run = [&](const std::vector<const GcnModel*>& stages,
                       std::size_t shards, int halo) {
    Netlist netlist = original;
    GcnOpiOptions sharded = options;
    sharded.shards = shards;
    sharded.shard_halo = halo;
    return run_gcn_opi(netlist, stages, sharded).inserted;
  };
  for (const std::size_t shards : {2u, 4u}) {
    for (const int halo : {1, 2}) {
      EXPECT_EQ(run({&model}, shards, halo), incremental.inserted)
          << "shards=" << shards << " halo=" << halo;
    }
  }

  // A two-stage cascade runs one sharded engine per stage.
  GcnConfig second_config = small_config(2);
  second_config.seed = 78;
  const GcnModel second(second_config);
  const std::vector<NodeId> cascade = run({&model, &second}, 0, 1);
  EXPECT_GT(cascade.size(), 0u);
  EXPECT_EQ(run({&model, &second}, 3, 1), cascade);
}

TEST(Incremental, CpiFlowRepredictsDirtyCone) {
  Netlist first_netlist = test_netlist(62, 500);
  Netlist second_netlist = first_netlist;

  // A briefly trained difficult-to-control classifier: an untrained model
  // may predict no positives at all, which would make this test vacuous.
  GraphTensors train_tensors = build_graph_tensors(first_netlist);
  train_tensors.labels = label_difficult_to_control(
      first_netlist, compute_cop(first_netlist), 0.02);
  GcnModel model(small_config(2));
  TrainerOptions trainer_options;
  trainer_options.epochs = 60;
  trainer_options.learning_rate = 1e-2f;
  trainer_options.positive_class_weight = 6.0f;
  trainer_options.eval_interval = trainer_options.epochs;
  Trainer trainer(model, trainer_options);
  const TrainGraph data{&train_tensors, {}};
  trainer.train({data}, nullptr);

  // The second iteration re-predicts through the dirty cone of the first
  // batch's rebuild; its logits equal a full forward (pinned for random
  // control edits by EditableDesignOracle), and the loop's counters say
  // what it did.
  GcnCpiOptions options;
  options.max_iterations = 2;
  options.insert_fraction = 0.2;
  const bool stats_were_on = stats_enabled();
  set_stats_enabled(true);
  StatsRegistry& stats = StatsRegistry::instance();
  const std::uint64_t iterations_before =
      stats.counter("cpi.iterations").value();
  const std::uint64_t inserted_before =
      stats.counter("cpi.inserted_points").value();
  const std::uint64_t dirty_before = stats.counter("cpi.dirty_nodes").value();
  const GcnCpiResult first = run_gcn_cpi(first_netlist, {&model}, options);
  EXPECT_EQ(stats.counter("cpi.iterations").value() - iterations_before,
            options.max_iterations);
  EXPECT_EQ(stats.counter("cpi.inserted_points").value() - inserted_before,
            first.inserted.size());
  EXPECT_GT(stats.counter("cpi.dirty_nodes").value() - dirty_before, 0u);
  set_stats_enabled(stats_were_on);

  const GcnCpiResult second = run_gcn_cpi(second_netlist, {&model}, options);
  EXPECT_GT(first.inserted.size(), 0u);
  ASSERT_EQ(first.inserted.size(), second.inserted.size());
  for (std::size_t i = 0; i < first.inserted.size(); ++i) {
    EXPECT_EQ(first.inserted[i].control, second.inserted[i].control);
    EXPECT_EQ(first.inserted[i].gate, second.inserted[i].gate);
    EXPECT_EQ(first.inserted[i].inverter, second.inserted[i].inverter);
  }
  EXPECT_EQ(first.iterations, options.max_iterations);
  EXPECT_EQ(first.iterations, second.iterations);
  EXPECT_EQ(first.final_positive_predictions,
            second.final_positive_predictions);
}

TEST(Incremental, RcmReorderingKeepsIncrementalBitIdentical) {
  // Under RCM reordering the cached embeddings live in compute row order
  // and appended nodes extend the permutation with an identity tail; the
  // incremental path must stay bit-identical to a full infer, which in
  // turn must match a never-reordered run.
  set_graph_reorder(GraphReorder::kRcm);
  Netlist netlist = test_netlist(51, 1200);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  reset_graph_reorder();
  ASSERT_TRUE(tensors.reordered());

  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model);
  engine.refresh(tensors);
  EXPECT_EQ(engine.logits(), model.infer(tensors));

  DirtyConeTracker tracker;
  const auto targets = op_targets(netlist, 12);
  ASSERT_EQ(targets.size(), 12u);
  insert_ops(netlist, tensors, scoap, levels, targets, tracker);
  ASSERT_TRUE(tensors.reordered());  // identity-tail extension survived

  const auto dirty = tracker.affected(tensors, model.config().depth);
  engine.update(tensors, dirty);
  EXPECT_FALSE(engine.last_was_full());
  EXPECT_EQ(engine.logits(), model.infer(tensors));

  // Same graph rebuilt without any reordering: logits agree bitwise.
  set_graph_reorder(GraphReorder::kOff);
  const GraphTensors plain = build_graph_tensors(netlist, scoap, levels);
  reset_graph_reorder();
  ASSERT_FALSE(plain.reordered());
  EXPECT_EQ(plain.features, tensors.features);
  EXPECT_EQ(engine.logits(), model.infer(plain));
}

// A traced refresh and its updates: one gcn.incremental.* span per pass,
// each over the model's D gcn.layer steps, of which only the last carries
// fc_head = 1. The engine runs its FC head inside that step, so no pass
// records a separate gcn.fc_head span.
TEST(Incremental, TracedUpdatesRecordOneSpanEach) {
  const Netlist netlist = test_netlist(13, 600);
  const GraphTensors tensors = build_graph_tensors(netlist);
  constexpr int kDepth = 2;
  const GcnModel model(small_config(kDepth));
  IncrementalGcnEngine engine(model);

  const bool stats_were_on = stats_enabled();
  set_stats_enabled(true);
  KernelStats& stats = kernel_stats("gcn.incremental.update");
  const std::uint64_t calls_before = stats.calls.value();
  const std::string path = "incremental_update_trace.json";
  constexpr std::size_t kUpdates = 5;
  trace_reset();
  trace_start();
  engine.refresh(tensors);
  for (std::size_t i = 0; i < kUpdates; ++i) {
    engine.update(tensors, {static_cast<NodeId>(i)});
    ASSERT_FALSE(engine.last_was_full());
  }
  ASSERT_TRUE(trace_stop(path));
  EXPECT_EQ(stats.calls.value() - calls_before, kUpdates);
  set_stats_enabled(stats_were_on);

  const TraceValidation validation = validate_trace_file(path);
  EXPECT_TRUE(validation.ok) << validation.error;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::parse(text.str(), root, error)) << error;
  const auto number = [](const json::Value& event, const char* key) {
    const json::Value* field = event.find(key);
    return field != nullptr ? field->number : -1.0;
  };
  std::vector<const json::Value*> passes;
  std::vector<const json::Value*> layers;
  std::size_t updates = 0;
  std::size_t heads = 0;
  for (const json::Value& event : root.find("traceEvents")->array) {
    const json::Value* name = event.find("name");
    if (name == nullptr) continue;
    if (name->text == "gcn.fc_head") ++heads;
    if (name->text == "gcn.layer") layers.push_back(&event);
    if (name->text != "gcn.incremental.update" &&
        name->text != "gcn.incremental.refresh") {
      continue;
    }
    passes.push_back(&event);
    if (name->text != "gcn.incremental.update") continue;
    ++updates;
    const json::Value* args = event.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->find("nodes"), nullptr);
    EXPECT_NE(args->find("dirty"), nullptr);
  }
  EXPECT_EQ(updates, kUpdates);
  EXPECT_EQ(passes.size(), kUpdates + 1);
  EXPECT_EQ(heads, 0u) << "the engine ran a separate FC head";
  for (const json::Value* pass : passes) {
    SCOPED_TRACE(pass->find("name")->text + " at " +
                 std::to_string(number(*pass, "ts")));
    const double begin = number(*pass, "ts");
    const double end = begin + number(*pass, "dur");
    std::vector<const json::Value*> steps;
    for (const json::Value* layer : layers) {
      const double ts = number(*layer, "ts");
      if (number(*layer, "tid") == number(*pass, "tid") && ts >= begin &&
          ts <= end) {
        steps.push_back(layer);
      }
    }
    std::sort(steps.begin(), steps.end(), [&](const auto* a, const auto* b) {
      return number(*a, "ts") < number(*b, "ts");
    });
    ASSERT_EQ(steps.size(), static_cast<std::size_t>(kDepth));
    for (std::size_t d = 0; d < steps.size(); ++d) {
      const json::Value* args = steps[d]->find("args");
      ASSERT_NE(args, nullptr);
      const json::Value* head = args->find("fc_head");
      if (d + 1 < steps.size()) {
        EXPECT_EQ(head, nullptr) << "layer " << d;
      } else {
        ASSERT_NE(head, nullptr) << "the last layer skipped the FC head";
        EXPECT_EQ(head->number, 1.0);
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcnt
