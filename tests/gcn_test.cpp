// GCN core: tensors, model numerics (finite-difference gradients), the
// sparse/recursive inference equivalence, training, and the cascade.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/parallel.h"
#include "data/dataset.h"
#include "gcn/editable_design.h"
#include "gcn/engine.h"
#include "gcn/model.h"
#include "gcn/multistage.h"
#include "gcn/graphsage_inference.h"
#include "gcn/recursive_inference.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "nn/optimizer.h"
#include "tensor/simd/simd.h"

namespace gcnt {
namespace {

/// Small reconvergent circuit used across tests.
Netlist tiny_circuit() {
  return read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
g1 = AND(a, b)
g2 = OR(b, c)
g3 = XOR(g1, g2)
y = NAND(g3, a)
)",
                           "tiny");
}

GcnConfig tiny_config(int depth = 2) {
  GcnConfig config;
  config.depth = depth;
  config.embed_dims = {8, 12, 16};
  config.fc_dims = {10, 10};
  config.seed = 99;
  return config;
}

TEST(GraphTensors, FeatureContents) {
  const Netlist n = tiny_circuit();
  const auto scoap = compute_scoap(n);
  const auto levels = n.logic_levels();
  const auto tensors = build_graph_tensors(n, scoap, levels);
  ASSERT_EQ(tensors.features.rows(), n.size());
  ASSERT_EQ(tensors.features.cols(), kNodeFeatureDim);
  for (NodeId v = 0; v < n.size(); ++v) {
    EXPECT_FLOAT_EQ(tensors.features.at(v, 0), transform_feature(levels[v]));
    EXPECT_FLOAT_EQ(tensors.features.at(v, 1), transform_feature(scoap.cc0[v]));
    EXPECT_FLOAT_EQ(tensors.features.at(v, 2), transform_feature(scoap.cc1[v]));
    EXPECT_FLOAT_EQ(tensors.features.at(v, 3), transform_feature(scoap.co[v]));
  }
}

TEST(GraphTensors, AdjacencyMirrorsNetlist) {
  const Netlist n = tiny_circuit();
  const auto tensors = build_graph_tensors(n);
  // Each edge counts once in each direction (a repeated driver merges
  // into one nonzero whose value counts its slots).
  const auto value_sum = [](const CsrMatrix& m) {
    double sum = 0.0;
    for (const float v : m.values()) sum += v;
    return sum;
  };
  EXPECT_EQ(value_sum(tensors.pred), static_cast<double>(n.edge_count()));
  EXPECT_EQ(value_sum(tensors.succ), static_cast<double>(n.edge_count()));
  // (P * ones)[row_of(v)] = fanin count (the CSR forms are in compute
  // order, which is node order unless the graph is reordered).
  Matrix ones(n.size(), 1, 1.0f);
  Matrix fanin_counts;
  tensors.pred.spmm(ones, fanin_counts);
  for (NodeId v = 0; v < n.size(); ++v) {
    EXPECT_FLOAT_EQ(fanin_counts.at(tensors.row_of(v), 0),
                    static_cast<float>(n.fanins(v).size()));
  }
  Matrix fanout_counts;
  tensors.succ.spmm(ones, fanout_counts);
  for (NodeId v = 0; v < n.size(); ++v) {
    EXPECT_FLOAT_EQ(fanout_counts.at(tensors.row_of(v), 0),
                    static_cast<float>(n.fanouts(v).size()));
  }
}

TEST(GraphTensors, SparsityIsHigh) {
  const Netlist n = generate_benchmark_design(0, 2000);
  const auto tensors = build_graph_tensors(n);
  // The paper reports > 99.95% for its designs; ours are smaller but the
  // merged adjacency must still be extremely sparse.
  const auto merged = build_merged_adjacency(tensors, 0.5f, 0.5f);
  EXPECT_GT(merged.sparsity(), 0.995);
}

TEST(GraphTensors, MergedAdjacencyMatchesDecomposedAggregation) {
  const Netlist n = tiny_circuit();
  const auto tensors = build_graph_tensors(n);
  const float wp = 0.3f, ws = 0.7f;
  // Decomposed: E + wp*P*E + ws*S*E, over the CSR forms in compute order.
  Matrix features;
  gather_compute_rows(tensors, tensors.features, features);
  Matrix want = features;
  Matrix tmp;
  tensors.pred.spmm(features, tmp);
  want.axpy(wp, tmp);
  tensors.succ.spmm(features, tmp);
  want.axpy(ws, tmp);
  // Merged (Eq. 2): A * E, in node order.
  const CsrMatrix a = CsrMatrix::from_coo(build_merged_adjacency(tensors, wp, ws));
  Matrix got;
  a.spmm(tensors.features, got);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (NodeId v = 0; v < n.size(); ++v) {
    for (std::size_t c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got.at(v, c), want.at(tensors.row_of(v), c), 1e-4f);
    }
  }
}

/// A generated design plus a gate fed twice by one driver, AND(a, a), so
/// both CSRs hold a merged nonzero of value 2.
Netlist design_with_repeated_fanin(std::uint64_t seed,
                                   std::size_t gates = 400) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = gates;
  config.primary_inputs = 12;
  config.primary_outputs = 8;
  Netlist n = generate_circuit(config);
  NodeId a = kInvalidNode;
  for (NodeId v = 30; v < n.size() && a == kInvalidNode; ++v) {
    if (is_logic(n.type(v))) a = v;
  }
  const NodeId twice = n.add_node(CellType::kAnd, "and_aa");
  n.connect(a, twice);
  n.connect(a, twice);
  n.connect(twice, n.add_node(CellType::kOutput, "and_aa_out"));
  return n;
}

void expect_same_csr(const CsrMatrix& want, const CsrMatrix& got) {
  EXPECT_EQ(want.rows(), got.rows());
  EXPECT_EQ(want.cols(), got.cols());
  EXPECT_EQ(want.row_ptr(), got.row_ptr());
  EXPECT_EQ(want.col_index(), got.col_index());
  EXPECT_EQ(want.values(), got.values());
}

TEST(GraphTensors, IncrementalObservePointMatchesRebuild) {
  for (const GraphReorder reorder : {GraphReorder::kOff, GraphReorder::kRcm}) {
    SCOPED_TRACE(reorder == GraphReorder::kRcm ? "rcm" : "off");
    set_graph_reorder(reorder);
    Netlist n = design_with_repeated_fanin(5);
    auto scoap = compute_scoap(n);
    auto levels = n.logic_levels();
    auto tensors = build_graph_tensors(n, scoap, levels);
    ASSERT_EQ(tensors.reordered(), reorder == GraphReorder::kRcm);
    bool merged = false;
    for (const float v : tensors.pred.values()) merged |= v == 2.0f;
    EXPECT_TRUE(merged) << "AND(a, a) holds one nonzero of value 2";

    // Insert three OPs through the incremental path, one of them on the
    // driver of AND(a, a).
    std::vector<NodeId> targets = {n.fanins(n.size() - 2).front()};
    for (NodeId v = 40; v < n.size() && targets.size() < 3; v += 111) {
      if (is_logic(n.type(v))) targets.push_back(v);
    }
    ASSERT_EQ(targets.size(), 3u);
    for (const NodeId v : targets) {
      const NodeId op = n.insert_observe_point(v);
      update_observability_after_observe(n, v, scoap);
      append_observe_point(tensors, n, v, op, scoap, n.fanin_cone(v));
    }
    tensors.rebuild_csr();
    EXPECT_TRUE(tensors.pending_edges.empty());

    // Rebuild everything from scratch (in the same locality order) and
    // compare: the appended edges land exactly where the builder puts them.
    const auto fresh = build_graph_tensors(n, compute_scoap(n),
                                           n.logic_levels(), &tensors);
    ASSERT_EQ(fresh.features.rows(), tensors.features.rows());
    for (std::size_t i = 0; i < fresh.features.size(); ++i) {
      EXPECT_NEAR(fresh.features.data()[i], tensors.features.data()[i], 1e-5f)
          << "feature index " << i;
    }
    expect_same_csr(fresh.pred, tensors.pred);
    expect_same_csr(fresh.succ, tensors.succ);
  }
  reset_graph_reorder();
}

TEST(GraphTensors, AppendObservePointRejectsBadIdsWithoutChange) {
  Netlist n = tiny_circuit();
  const auto scoap = compute_scoap(n);
  auto tensors = build_graph_tensors(n);
  const NodeId target = 3;  // g1
  const NodeId op = n.insert_observe_point(target);
  const Matrix before = tensors.features;
  // The OP must be the next row, driven by an earlier node.
  EXPECT_THROW(append_observe_point(tensors, n, target, op + 1, scoap, {}),
               std::out_of_range);
  EXPECT_THROW(append_observe_point(tensors, n, target, op - 1, scoap, {}),
               std::out_of_range);
  EXPECT_THROW(append_observe_point(tensors, n, op, op, scoap, {}),
               std::out_of_range);
  EXPECT_EQ(tensors.features, before);
  EXPECT_TRUE(tensors.pending_edges.empty());
  append_observe_point(tensors, n, target, op, scoap, {});
  ASSERT_EQ(tensors.pending_edges.size(), 1u);
  EXPECT_EQ(tensors.pending_edges[0].target, target);
  EXPECT_EQ(tensors.pending_edges[0].op, op);
  // A second append of the same OP is no longer the next row.
  EXPECT_THROW(append_observe_point(tensors, n, target, op, scoap, {}),
               std::out_of_range);
}

/// The adjacency builder that preceded the direct netlist fill, kept as
/// the reference: COO tuples in node order (pred row v gets each fanin,
/// succ row v each fanout, in slot order), mapped through the compute
/// permutation, then CsrMatrix::from_coo, which merges repeated
/// coordinates by summing into the first.
std::pair<CsrMatrix, CsrMatrix> coo_oracle_csr(const Netlist& netlist,
                                               const GraphTensors& order) {
  const std::size_t n = netlist.size();
  CooMatrix pred(n, n);
  CooMatrix succ(n, n);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : netlist.fanins(v)) {
      pred.add(order.row_of(v), order.row_of(u), 1.0f);
    }
    for (const NodeId w : netlist.fanouts(v)) {
      succ.add(order.row_of(v), order.row_of(w), 1.0f);
    }
  }
  return {CsrMatrix::from_coo(pred), CsrMatrix::from_coo(succ)};
}

TEST(GraphTensorsDiff, CsrMatchesCooOracleThroughEdits) {
  for (const GraphReorder reorder : {GraphReorder::kOff, GraphReorder::kRcm}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(reorder == GraphReorder::kRcm ? "rcm" : "off") +
                   " seed " + std::to_string(seed));
      set_graph_reorder(reorder);
      Netlist netlist = design_with_repeated_fanin(seed);
      EditableDesign design(netlist, /*standardize_features=*/true);
      const auto check = [&](const char* stage) {
        SCOPED_TRACE(stage);
        const GraphTensors& tensors = design.tensors();
        ASSERT_EQ(tensors.node_count(), netlist.size());
        const auto [pred, succ] = coo_oracle_csr(netlist, tensors);
        expect_same_csr(pred, tensors.pred);
        expect_same_csr(succ, tensors.succ);
      };
      check("built");

      // OPs append to the CSRs; a CP rebuilds them from the netlist in
      // the kept order; more OPs append again.
      std::size_t observed = 0;
      NodeId v = 20;
      const auto observe_some = [&](std::size_t count) {
        for (std::size_t k = 0; k < count; ++v) {
          ASSERT_LT(v, netlist.size());
          if (netlist.can_observe(v)) {
            design.observe(v);
            ++k;
            ++observed;
          }
        }
      };
      observe_some(4);
      check("ops appended");
      NodeId cp_target = v + 7;
      while (!netlist.can_control(cp_target)) ++cp_target;
      design.control(cp_target, seed % 2 == 0);
      check("cp rebuilt");
      observe_some(3);
      check("ops after cp");
      EXPECT_EQ(observed, 7u);
    }
  }
  reset_graph_reorder();
}

/// Every bit of two tensor sets: features, both CSRs and the locality
/// permutation.
void expect_identical_tensors(const GraphTensors& want,
                              const GraphTensors& got) {
  ASSERT_EQ(want.features.rows(), got.features.rows());
  ASSERT_EQ(want.features.cols(), got.features.cols());
  EXPECT_EQ(std::memcmp(want.features.data(), got.features.data(),
                        want.features.rows() * want.features.cols() *
                            sizeof(float)),
            0);
  for (const auto csr : {&GraphTensors::pred, &GraphTensors::succ}) {
    const CsrMatrix& a = want.*csr;
    const CsrMatrix& b = got.*csr;
    EXPECT_EQ(a.row_ptr(), b.row_ptr());
    EXPECT_EQ(a.col_index(), b.col_index());
    ASSERT_EQ(a.values().size(), b.values().size());
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          a.values().size() * sizeof(float)),
              0);
  }
  EXPECT_EQ(want.compute_row, got.compute_row);
  EXPECT_EQ(want.compute_node, got.compute_node);
}

// The tensor build runs its feature rows and CSR passes as kernel-pool
// blocks above a minimum row count; at 1, 4 and 16 threads, below and
// above that minimum, with and without RCM, and after OP appends and a
// control point, the tensors must be the same bits.
TEST(GraphTensors, SameBitsAtAnyThreadCount) {
  for (const GraphReorder reorder : {GraphReorder::kOff, GraphReorder::kRcm}) {
    set_graph_reorder(reorder);
    for (const std::size_t gates : {400u, 20000u}) {
      SCOPED_TRACE(std::string(reorder == GraphReorder::kRcm ? "rcm" : "off") +
                   ", gates " + std::to_string(gates));
      const Netlist netlist = design_with_repeated_fanin(7, gates);
      const auto built = [&](std::size_t threads) {
        set_kernel_threads(threads);
        return build_graph_tensors(netlist);
      };
      const GraphTensors one = built(1);
      bool merged = false;
      for (const float v : one.pred.values()) merged |= v == 2.0f;
      EXPECT_TRUE(merged) << "AND(a, a) holds one nonzero of value 2";
      expect_identical_tensors(one, built(4));
      expect_identical_tensors(one, built(16));  // more blocks than the cap

      // OPs append to the CSRs, a CP rebuilds them, more OPs append.
      const auto edited = [&](std::size_t threads) {
        set_kernel_threads(threads);
        Netlist copy = netlist;
        EditableDesign design(copy, /*standardize_features=*/true);
        const auto observe_from = [&](NodeId v, std::size_t count) {
          for (; count > 0; ++v) {
            if (copy.can_observe(v)) {
              design.observe(v);
              --count;
            }
          }
          return v;
        };
        NodeId v = observe_from(20, 4);
        (void)design.tensors();
        while (!copy.can_control(v)) ++v;
        design.control(v, true);
        observe_from(v + 9, 3);
        return design.tensors();
      };
      expect_identical_tensors(edited(1), edited(4));
    }
  }
  set_kernel_threads(0);
  reset_graph_reorder();
}

TEST(GcnModel, ForwardShapeAndDeterminism) {
  const Netlist n = tiny_circuit();
  const auto tensors = build_graph_tensors(n);
  GcnModel model(tiny_config());
  const Matrix logits = model.infer(tensors);
  EXPECT_EQ(logits.rows(), n.size());
  EXPECT_EQ(logits.cols(), 2u);

  GcnModel model2(tiny_config());
  const Matrix logits2 = model2.infer(tensors);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    EXPECT_FLOAT_EQ(logits.data()[i], logits2.data()[i]);
  }
}

TEST(GcnModel, DepthOutOfRangeThrows) {
  GcnConfig config = tiny_config();
  config.depth = 5;  // only 3 embed dims configured
  EXPECT_THROW(GcnModel{config}, std::invalid_argument);
}

TEST(GcnModel, ForwardMatchesInfer) {
  const Netlist n = tiny_circuit();
  const auto tensors = build_graph_tensors(n);
  GcnModel model(tiny_config(3));
  const Matrix a = model.forward(tensors);
  const Matrix b = model.infer(tensors);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

/// Loss of the model on the tiny graph (for finite differences).
double model_loss(GcnModel& model, const GraphTensors& tensors,
                  const std::vector<std::int32_t>& labels) {
  const Matrix logits = model.infer(tensors);
  Matrix scratch;
  return softmax_cross_entropy(logits, labels, {1.0f, 2.0f}, nullptr,
                               scratch);
}

TEST(GcnModel, GradientsMatchFiniteDifferences) {
  const Netlist n = tiny_circuit();
  const auto tensors = build_graph_tensors(n);
  std::vector<std::int32_t> labels(n.size(), 0);
  labels[3] = 1;
  labels[5] = 1;

  GcnModel model(tiny_config(2));
  const Matrix logits = model.forward(tensors);
  Matrix dlogits;
  softmax_cross_entropy(logits, labels, {1.0f, 2.0f}, nullptr, dlogits);
  model.backward(tensors, dlogits);

  // Spot-check several parameters across every module type, including the
  // aggregation scalars w_pr / w_su (params 0 and 1).
  const auto params = model.params();
  const double eps = 1e-3;
  for (std::size_t p : {0u, 1u, 2u, 3u, 4u, 6u, 8u, 10u}) {
    ASSERT_LT(p, params.size());
    Param& param = *params[p];
    const std::size_t checks = std::min<std::size_t>(3, param.value.size());
    for (std::size_t k = 0; k < checks; ++k) {
      const float saved = param.value.data()[k];
      param.value.data()[k] = saved + static_cast<float>(eps);
      const double up = model_loss(model, tensors, labels);
      param.value.data()[k] = saved - static_cast<float>(eps);
      const double down = model_loss(model, tensors, labels);
      param.value.data()[k] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(param.grad.data()[k], numeric, 5e-3)
          << "param " << p << " entry " << k;
    }
  }
}

TEST(GcnModel, RecursiveInferenceMatchesSparse) {
  GeneratorConfig config;
  config.seed = 21;
  config.target_gates = 120;
  config.primary_inputs = 8;
  config.primary_outputs = 4;
  const Netlist n = generate_circuit(config);
  const auto tensors = build_graph_tensors(n);
  GcnModel model(tiny_config(3));

  const Matrix sparse_logits = model.infer(tensors);
  RecursiveInference recursive(model, n, tensors.features);
  const Matrix recursive_logits = recursive.infer_all();

  ASSERT_EQ(recursive_logits.rows(), sparse_logits.rows());
  for (std::size_t r = 0; r < sparse_logits.rows(); ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(recursive_logits.at(r, c), sparse_logits.at(r, c), 2e-2f)
          << "node " << r;
    }
  }
}

TEST(GcnModel, CopyParamsProducesIdenticalOutputs) {
  const Netlist n = tiny_circuit();
  const auto tensors = build_graph_tensors(n);
  GcnModel a(tiny_config());
  GcnConfig other = tiny_config();
  other.seed = 1234567;
  GcnModel b(other);
  b.copy_params_from(a);
  const Matrix la = a.infer(tensors);
  const Matrix lb = b.infer(tensors);
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_FLOAT_EQ(la.data()[i], lb.data()[i]);
  }
}

/// Synthetic learnable task: label = (node observability feature is bad).
GraphTensors labeled_tensors(const Netlist& n) {
  GraphTensors tensors = build_graph_tensors(n);
  tensors.labels.assign(n.size(), 0);
  for (NodeId v = 0; v < n.size(); ++v) {
    if (tensors.features.at(v, 3) > transform_feature(60.0)) {
      tensors.labels[v] = 1;
    }
  }
  return tensors;
}

TEST(Trainer, LearnsObservabilityRule) {
  GeneratorConfig config;
  config.seed = 61;
  config.target_gates = 700;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.trap_fraction = 0.06;
  const Netlist n = generate_circuit(config);
  const GraphTensors tensors = labeled_tensors(n);

  std::size_t positives = 0;
  for (auto l : tensors.labels) positives += l;
  ASSERT_GT(positives, 10u);
  ASSERT_LT(positives, n.size() / 2);

  GcnModel model(tiny_config(2));
  TrainerOptions options;
  options.epochs = 200;
  options.learning_rate = 1e-2f;
  options.positive_class_weight = 2.0f;
  options.eval_interval = 50;
  Trainer trainer(model, options);
  const TrainGraph data{&tensors, {}};
  const auto history = trainer.train({data}, &data);

  ASSERT_EQ(history.size(), options.epochs);
  EXPECT_GT(history.back().train_accuracy, 0.93);
  EXPECT_LT(history.back().loss, history.front().loss);
}

TEST(Trainer, SgdPathAlsoLearns) {
  GeneratorConfig config;
  config.seed = 63;
  config.target_gates = 400;
  config.primary_inputs = 12;
  config.primary_outputs = 6;
  config.trap_fraction = 0.06;
  const Netlist n = generate_circuit(config);
  const GraphTensors tensors = labeled_tensors(n);
  GcnModel model(tiny_config(2));
  TrainerOptions options;
  options.epochs = 150;
  options.use_adam = false;
  options.learning_rate = 5e-3f;
  options.eval_interval = 150;
  Trainer trainer(model, options);
  const TrainGraph data{&tensors, {}};
  const auto history = trainer.train({data}, &data);
  EXPECT_LT(history.back().loss, history.front().loss * 0.9);
}

TEST(Trainer, EvalIntervalCarriesLastAccuracy) {
  const Netlist n = tiny_circuit();
  GraphTensors tensors = build_graph_tensors(n);
  tensors.labels.assign(n.size(), 0);
  tensors.labels[2] = 1;
  GcnModel model(tiny_config(1));
  TrainerOptions options;
  options.epochs = 10;
  options.eval_interval = 5;
  Trainer trainer(model, options);
  const TrainGraph data{&tensors, {}};
  const auto history = trainer.train({data}, &data);
  ASSERT_EQ(history.size(), 10u);
  // Non-eval epochs carry the previous measurement forward.
  EXPECT_EQ(history[1].train_accuracy, history[0].train_accuracy);
}

TEST(Trainer, RecordsTestAccuracy) {
  const Netlist n = tiny_circuit();
  GraphTensors tensors = build_graph_tensors(n);
  tensors.labels.assign(n.size(), 0);
  tensors.labels[2] = 1;
  GcnModel model(tiny_config(1));
  TrainerOptions options;
  options.epochs = 3;
  Trainer trainer(model, options);
  const TrainGraph data{&tensors, {}};
  const auto history = trainer.train({data}, &data);
  EXPECT_GT(history.back().test_accuracy, 0.0);
}

TEST(Trainer, UnlabeledGraphThrows) {
  const Netlist n = tiny_circuit();
  const GraphTensors tensors = build_graph_tensors(n);  // no labels
  GcnModel model(tiny_config(1));
  Trainer trainer(model, TrainerOptions{});
  const TrainGraph data{&tensors, {}};
  EXPECT_THROW(trainer.train({data}, nullptr), std::invalid_argument);
}

TEST(Trainer, MultiGraphReplicasMatchSingleGraphGradients) {
  // Two identical graphs trained data-parallel must take exactly the step
  // a single graph would (averaged gradients over identical replicas).
  GeneratorConfig config;
  config.seed = 81;
  config.target_gates = 150;
  config.primary_inputs = 8;
  config.primary_outputs = 4;
  const Netlist n = generate_circuit(config);
  const GraphTensors tensors = labeled_tensors(n);

  TrainerOptions options;
  options.epochs = 2;
  options.use_adam = false;
  options.learning_rate = 1e-2f;
  options.eval_interval = 100;

  GcnModel single(tiny_config(2));
  Trainer single_trainer(single, options);
  const TrainGraph data{&tensors, {}};
  single_trainer.train({data}, nullptr);

  GcnModel dual(tiny_config(2));
  Trainer dual_trainer(dual, options);
  dual_trainer.train({data, data}, nullptr);  // one wave of two replicas

  // After averaging two identical gradients the step matches... only if the
  // single run also stepped once per epoch. It does (one wave per epoch).
  const auto ps = single.params();
  const auto pd = dual.params();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t k = 0; k < ps[i]->value.size(); ++k) {
      EXPECT_NEAR(ps[i]->value.data()[k], pd[i]->value.data()[k], 1e-5f);
    }
  }
}

TEST(MultiStage, ImprovesF1OnImbalancedData) {
  GeneratorConfig config;
  config.seed = 71;
  config.target_gates = 900;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.trap_fraction = 0.05;
  const Netlist n = generate_circuit(config);
  const GraphTensors tensors = labeled_tensors(n);

  MultiStageOptions options;
  options.stages = 3;
  options.model = tiny_config(2);
  options.trainer.epochs = 40;
  options.trainer.learning_rate = 5e-3f;
  options.trainer.eval_interval = 100;

  MultiStageClassifier cascade(options);
  cascade.fit({&tensors});
  const auto multi_predictions = cascade.predict(tensors);
  const auto multi =
      evaluate_binary(multi_predictions, tensors.labels);

  // Single unweighted GCN on the same budget.
  MultiStageOptions single_options = options;
  single_options.stages = 1;
  MultiStageClassifier single(single_options);
  single.fit({&tensors});
  const auto single_predictions = single.predict(tensors);
  const auto single_cm =
      evaluate_binary(single_predictions, tensors.labels);

  EXPECT_GE(multi.f1(), single_cm.f1() - 0.02);
  EXPECT_GT(multi.f1(), 0.5);
  EXPECT_EQ(cascade.stage_models().size(), 3u);
  EXPECT_EQ(cascade.survivors_per_stage().size(), 3u);
}

TEST(GcnModel, TiedAggregationSharesWeight) {
  const Netlist n = tiny_circuit();
  const auto tensors = build_graph_tensors(n);
  GcnConfig config = tiny_config(2);
  config.tied_aggregation = true;
  GcnModel model(config);
  EXPECT_FLOAT_EQ(model.w_pr(), model.w_su());
  // One optimizer step keeps them equal.
  std::vector<std::int32_t> labels(n.size(), 0);
  labels[2] = 1;
  const Matrix logits = model.forward(tensors);
  Matrix dlogits;
  softmax_cross_entropy(logits, labels, {1.0f, 1.0f}, nullptr, dlogits);
  model.backward(tensors, dlogits);
  SgdOptimizer sgd(0.1f);
  sgd.step(model.params());
  EXPECT_FLOAT_EQ(model.w_pr(), model.w_su());
}

TEST(GcnModel, FrozenAggregationWeightsDoNotTrain) {
  const Netlist n = tiny_circuit();
  const auto tensors = build_graph_tensors(n);
  GcnConfig config = tiny_config(2);
  config.frozen_aggregation = true;
  config.initial_w_pr = 0.25f;
  config.initial_w_su = 0.75f;
  GcnModel model(config);
  std::vector<std::int32_t> labels(n.size(), 0);
  labels[2] = 1;
  const Matrix logits = model.forward(tensors);
  Matrix dlogits;
  softmax_cross_entropy(logits, labels, {1.0f, 1.0f}, nullptr, dlogits);
  model.backward(tensors, dlogits);
  SgdOptimizer sgd(0.5f);
  sgd.step(model.params());
  EXPECT_FLOAT_EQ(model.w_pr(), 0.25f);
  EXPECT_FLOAT_EQ(model.w_su(), 0.75f);
}

TEST(GcnModel, ZeroFrozenAggregationIgnoresNeighbors) {
  // With w_pr = w_su = 0 frozen, predictions depend only on a node's own
  // features: two nodes with identical features must get identical logits.
  const Netlist n = tiny_circuit();
  auto tensors = build_graph_tensors(n);
  // Force identical features everywhere.
  tensors.features.fill(0.3f);
  GcnConfig config = tiny_config(2);
  config.frozen_aggregation = true;
  config.initial_w_pr = 0.0f;
  config.initial_w_su = 0.0f;
  GcnModel model(config);
  const Matrix logits = model.infer(tensors);
  for (std::size_t r = 1; r < logits.rows(); ++r) {
    EXPECT_FLOAT_EQ(logits.at(r, 0), logits.at(0, 0));
    EXPECT_FLOAT_EQ(logits.at(r, 1), logits.at(0, 1));
  }
}

TEST(GraphTensors, StandardizeFeaturesZeroMeanUnitVariance) {
  const Netlist n = generate_benchmark_design(0, 800);
  GraphTensors tensors = build_graph_tensors(n);
  tensors.standardize_features();
  for (std::size_t c = 0; c < kNodeFeatureDim; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t r = 0; r < tensors.features.rows(); ++r) {
      mean += tensors.features.at(r, c);
    }
    mean /= tensors.features.rows();
    for (std::size_t r = 0; r < tensors.features.rows(); ++r) {
      const double d = tensors.features.at(r, c) - mean;
      var += d * d;
    }
    var /= tensors.features.rows();
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(GraphTensors, EncodeConsistentAfterStandardize) {
  const Netlist n = generate_benchmark_design(1, 600);
  const auto scoap = compute_scoap(n);
  const auto levels = n.logic_levels();
  GraphTensors tensors = build_graph_tensors(n, scoap, levels);
  tensors.standardize_features();
  // encode(raw) must match the standardized stored rows.
  for (NodeId v = 0; v < n.size(); v += 37) {
    if (n.type(v) == CellType::kObserve) continue;
    EXPECT_NEAR(tensors.encode(0, levels[v]), tensors.features.at(v, 0), 1e-4f);
    EXPECT_NEAR(tensors.encode(3, scoap.co[v]), tensors.features.at(v, 3), 1e-4f);
  }
}

TEST(GraphTensors, IncrementalUpdateConsistentUnderStandardization) {
  GeneratorConfig config;
  config.seed = 15;
  config.target_gates = 300;
  Netlist n = generate_circuit(config);
  auto scoap = compute_scoap(n);
  auto levels = n.logic_levels();
  GraphTensors tensors = build_graph_tensors(n, scoap, levels);
  tensors.standardize_features();
  const auto mean = tensors.feature_mean;
  const auto scale = tensors.feature_scale;

  NodeId target = kInvalidNode;
  for (NodeId v = 50; v < n.size(); ++v) {
    if (is_logic(n.type(v))) {
      target = v;
      break;
    }
  }
  const NodeId op = n.insert_observe_point(target);
  update_observability_after_observe(n, target, scoap);
  append_observe_point(tensors, n, target, op, scoap, n.fanin_cone(target));
  // The affine must be unchanged, and the new rows must be expressed in it.
  EXPECT_EQ(tensors.feature_mean, mean);
  EXPECT_EQ(tensors.feature_scale, scale);
  EXPECT_FLOAT_EQ(tensors.features.at(op, 3), tensors.encode(3, 0.0));
  EXPECT_FLOAT_EQ(tensors.features.at(target, 3),
                  tensors.encode(3, scoap.co[target]));
}

TEST(GraphSage, ExactOnChainGraphs) {
  // On a pure chain every node has at most one predecessor/successor, so
  // fixed-fanout sampling with replacement always picks that neighbor and
  // the importance scale collapses to w — the sampled estimate must equal
  // the exact sparse inference.
  Netlist n("chain");
  NodeId prev = n.add_node(CellType::kInput, "a");
  for (int i = 0; i < 6; ++i) {
    const NodeId g = n.add_node(i % 2 ? CellType::kNot : CellType::kBuf);
    n.connect(prev, g);
    prev = g;
  }
  const NodeId po = n.add_node(CellType::kOutput, "po");
  n.connect(prev, po);

  const auto tensors = build_graph_tensors(n);
  GcnModel model(tiny_config(3));
  const Matrix exact = model.infer(tensors);
  GraphSageInference sage(model, n, tensors.features);
  const Matrix sampled = sage.infer_all();
  ASSERT_EQ(sampled.rows(), exact.rows());
  for (std::size_t r = 0; r < exact.rows(); ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(sampled.at(r, c), exact.at(r, c), 2e-2f) << "node " << r;
    }
  }
}

TEST(GraphSage, DeterministicForSeed) {
  GeneratorConfig config;
  config.seed = 23;
  config.target_gates = 60;
  config.primary_inputs = 6;
  config.primary_outputs = 3;
  const Netlist n = generate_circuit(config);
  const auto tensors = build_graph_tensors(n);
  GcnModel model(tiny_config(2));
  SampleFanouts fanouts;
  fanouts.per_hop = {6, 4};
  GraphSageInference a(model, n, tensors.features, fanouts, 5);
  GraphSageInference b(model, n, tensors.features, fanouts, 5);
  const Matrix la = a.infer_all();
  const Matrix lb = b.infer_all();
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_FLOAT_EQ(la.data()[i], lb.data()[i]);
  }
}

TEST(GraphSage, SampledEstimateIsUnbiasedPreNonlinearity) {
  // A depth-1 model on a star graph: average many sampled runs and the
  // mean aggregation must approach the exact weighted sum.
  Netlist n("star");
  std::vector<NodeId> leaves;
  for (int i = 0; i < 5; ++i) {
    leaves.push_back(n.add_node(CellType::kInput));
  }
  const NodeId hub = n.add_node(CellType::kOr);
  for (NodeId leaf : leaves) n.connect(leaf, hub);
  const NodeId po = n.add_node(CellType::kOutput);
  n.connect(hub, po);

  auto tensors = build_graph_tensors(n);
  GcnConfig config = tiny_config(1);
  GcnModel model(config);
  const Matrix exact = model.infer(tensors);

  double mean0 = 0.0;
  const int runs = 400;
  for (int run = 0; run < runs; ++run) {
    SampleFanouts fanouts;
    fanouts.per_hop = {4};
    GraphSageInference sage(model, n, tensors.features, fanouts,
                            static_cast<std::uint64_t>(run + 1));
    mean0 += sage.infer_node(hub)[0];
  }
  mean0 /= runs;
  // ReLU introduces some bias; the estimate must still be close.
  EXPECT_NEAR(mean0, exact.at(hub, 0), 0.25);
}

TEST(MultiStage, ZeroStagesThrows) {
  MultiStageOptions options;
  options.stages = 0;
  EXPECT_THROW(MultiStageClassifier{options}, std::invalid_argument);
}

TEST(MultiStage, AllNegativeGraphDoesNotCrash) {
  // A graph with no positive labels: stages must still train and predict
  // (everything filtered out early).
  const Netlist n = tiny_circuit();
  GraphTensors tensors = build_graph_tensors(n);
  tensors.labels.assign(n.size(), 0);
  MultiStageOptions options;
  options.stages = 2;
  options.model = tiny_config(1);
  options.trainer.epochs = 5;
  options.trainer.eval_interval = 5;
  MultiStageClassifier cascade(options);
  cascade.fit({&tensors});
  const auto predictions = cascade.predict(tensors);
  std::size_t positives = 0;
  for (auto p : predictions) positives += p;
  EXPECT_LE(positives, n.size());  // well-defined output
}

TEST(MultiStage, SurvivorsShrinkAcrossStages) {
  GeneratorConfig config;
  config.seed = 73;
  config.target_gates = 500;
  config.primary_inputs = 12;
  config.primary_outputs = 6;
  config.trap_fraction = 0.05;
  const Netlist n = generate_circuit(config);
  const GraphTensors tensors = labeled_tensors(n);

  MultiStageOptions options;
  options.stages = 2;
  options.model = tiny_config(2);
  options.trainer.epochs = 30;
  options.trainer.eval_interval = 100;
  MultiStageClassifier cascade(options);
  cascade.fit({&tensors});
  const auto& survivors = cascade.survivors_per_stage();
  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_LT(survivors[0], n.size());  // stage 1 filtered something
  EXPECT_LE(survivors[1], survivors[0]);
}

TEST(ForwardWorkspace, SteadyStateInferAllocatesNothing) {
  GeneratorConfig config;
  config.seed = 19;
  config.target_gates = 800;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  const Netlist n = generate_circuit(config);
  const auto tensors = build_graph_tensors(n);
  const std::size_t rows = tensors.node_count();
  ASSERT_NE(rows % kGemmRowBlock, 0u) << "want a partial last row block";
  const GcnModel model(tiny_config(2));

  // Row lists around the row-block size, in descending (unsorted) order.
  std::vector<std::vector<std::uint32_t>> lists;
  for (const std::size_t size : {1u, 31u, 32u, 33u}) {
    std::vector<std::uint32_t> list;
    for (std::size_t i = 0; i < size; ++i) {
      list.push_back(static_cast<std::uint32_t>(rows - 1 - 7 * i));
    }
    lists.push_back(std::move(list));
  }

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    set_kernel_threads(threads);
    ForwardWorkspace ws;
    // The block scratch is one of the polled buffers: an FC head on a
    // fresh workspace grows it and nothing else.
    {
      Matrix e(rows, model.fc_layers().front().in_features(), 0.5f);
      Matrix logits;
      model.fc_head(e, Precision::kFp32, ws, logits);
      EXPECT_GT(ws.blocks.capacity(), 0u);
      EXPECT_EQ(ws.poll_allocations(), 1u);
    }

    // Every pass runs plain inference and the caching forward, which
    // hands back E_0 and E_1 only. No inference forward stores E_D, so an
    // unfused all-rows last layer step builds it here, and fc_head over
    // it must give the fused forward's logits. Then, at each list size,
    // the row-list last step must give those rows of E_D unfused, their
    // logits through fc_head, and the same logits through the head (the
    // incremental engine's dirty pass). All through `ws`.
    Matrix out;
    Matrix cached_out;
    std::vector<Matrix> embeddings;
    Matrix last;
    Matrix step_out;
    Matrix head_out;
    Matrix compact_head_out;
    Matrix fused_out;
    Matrix reference;
    const auto run_pass = [&] {
      model.infer(tensors, ws, out);
      model.infer(tensors, ws, cached_out, &embeddings);
      ASSERT_EQ(embeddings.size(), 2u);
      model.layer_step(1, tensors.pred, tensors.succ, embeddings[1], nullptr,
                       Precision::kFp32, ws, last);
      model.fc_head(last, Precision::kFp32, ws, head_out);
      for (std::size_t p = 0; p < rows; ++p) {
        for (std::size_t c = 0; c < out.cols(); ++c) {
          ASSERT_EQ(head_out.at(p, c), out.at(tensors.node_of(p), c));
        }
      }
      for (const auto& list : lists) {
        model.layer_step(1, tensors.pred, tensors.succ, embeddings[1], &list,
                         Precision::kFp32, ws, step_out);
        ASSERT_EQ(step_out.rows(), list.size());
        for (std::size_t i = 0; i < list.size(); ++i) {
          for (std::size_t c = 0; c < step_out.cols(); ++c) {
            ASSERT_EQ(step_out.at(i, c), last.at(list[i], c))
                << "list of " << list.size() << ", row " << i;
          }
        }
        model.fc_head(step_out, Precision::kFp32, ws, compact_head_out);
        model.layer_step(1, tensors.pred, tensors.succ, embeddings[1], &list,
                         Precision::kFp32, ws, fused_out, nullptr,
                         /*through_head=*/true);
        ASSERT_EQ(fused_out.rows(), list.size());
        ASSERT_EQ(fused_out.cols(), out.cols());
        for (std::size_t i = 0; i < list.size(); ++i) {
          for (std::size_t c = 0; c < out.cols(); ++c) {
            ASSERT_EQ(compact_head_out.at(i, c), head_out.at(list[i], c));
            ASSERT_EQ(fused_out.at(i, c),
                      out.at(tensors.node_of(list[i]), c))
                << "list of " << list.size() << ", row " << i;
          }
        }
      }
    };

    // First pass per graph grows the workspace buffers; every pass after
    // that must reuse their capacity — zero heap allocations.
    run_pass();
    reference = out;
    EXPECT_EQ(reference, model.infer(tensors)) << "overloads must agree";
    EXPECT_EQ(cached_out, reference) << "caching forward must agree";
    (void)ws.poll_allocations();  // drain the warm-up growth events
    const std::size_t logits_capacity = out.capacity();
    std::vector<std::size_t> embedding_capacity;
    for (const Matrix& e : embeddings) {
      embedding_capacity.push_back(e.capacity());
    }
    const std::size_t step_capacity = step_out.capacity();
    const std::size_t last_capacity = last.capacity();
    const std::size_t fused_capacity = fused_out.capacity();
    for (int pass = 0; pass < 3; ++pass) {
      run_pass();
      EXPECT_EQ(ws.poll_allocations(), 0u) << "pass " << pass;
      EXPECT_EQ(out.capacity(), logits_capacity) << "pass " << pass;
      EXPECT_EQ(step_out.capacity(), step_capacity) << "pass " << pass;
      EXPECT_EQ(last.capacity(), last_capacity) << "pass " << pass;
      EXPECT_EQ(fused_out.capacity(), fused_capacity) << "pass " << pass;
      for (std::size_t d = 0; d < embeddings.size(); ++d) {
        EXPECT_EQ(embeddings[d].capacity(), embedding_capacity[d]);
      }
      EXPECT_EQ(out, reference) << "pass " << pass;
      EXPECT_EQ(cached_out, reference) << "pass " << pass;
    }
  }
  set_kernel_threads(0);
}

// The fused row-block layer step and FC head against the unfused kernel
// sequence they replace, rebuilt here from public calls: spmm x2, copy,
// axpy x2 and gemm_bias_act per layer, then one Linear per FC layer.
// Bitwise, for the whole graph (a row count that is no multiple of the
// row block), for row lists (with a repeated row), and for the training
// cache; at 1 and 4 threads. Non-dyadic aggregation weights make any
// reordering of the Eq. 1 sum show up in the last bit. Aliased outputs,
// row ids past the graph and a mis-sized input are refused.
TEST(GcnModel, LayerStepMatchesUnfusedKernelsBitwise) {
  GeneratorConfig generator;
  generator.seed = 23;
  generator.target_gates = 900;
  generator.primary_inputs = 16;
  generator.primary_outputs = 8;
  const auto tensors = build_graph_tensors(generate_circuit(generator));
  ASSERT_NE(tensors.node_count() % kGemmRowBlock, 0u);
  GcnConfig config = tiny_config(3);
  config.initial_w_pr = 0.3f;
  config.initial_w_su = 0.7f;
  const GcnModel model(config);
  std::vector<std::uint32_t> rows = {7};
  for (std::uint32_t r = 5; r < tensors.node_count(); r += 11) {
    rows.push_back(r);
  }

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    set_kernel_threads(threads);
    ForwardWorkspace ws;
    Matrix e;
    gather_compute_rows(tensors, tensors.features, e);
    for (std::size_t d = 0; d < model.encoders().size(); ++d) {
      Matrix pred_sum, succ_sum, aggregated, expected;
      tensors.pred.spmm(e, pred_sum);
      tensors.succ.spmm(e, succ_sum);
      aggregated.copy_from(e);
      aggregated.axpy(model.w_pr(), pred_sum);
      aggregated.axpy(model.w_su(), succ_sum);
      model.encoders()[d].forward_relu(aggregated, expected);

      Matrix out;
      LayerSums sums;
      model.layer_step(d, tensors.pred, tensors.succ, e, nullptr,
                       Precision::kFp32, ws, out, &sums);
      EXPECT_EQ(out, expected) << "layer " << d;
      EXPECT_EQ(sums.pred_sum, pred_sum) << "layer " << d;
      EXPECT_EQ(sums.succ_sum, succ_sum) << "layer " << d;
      EXPECT_EQ(sums.aggregated, aggregated) << "layer " << d;
      model.layer_step(d, tensors.pred, tensors.succ, e, nullptr,
                       Precision::kFp32, ws, out);
      EXPECT_EQ(out, expected) << "layer " << d << " without sums";

      Matrix compact;
      model.layer_step(d, tensors.pred, tensors.succ, e, &rows,
                       Precision::kFp32, ws, compact);
      Matrix expected_rows;
      gather_rows(expected, rows, expected_rows);
      EXPECT_EQ(compact, expected_rows) << "layer " << d;
      e = std::move(expected);
    }

    Matrix x = e;
    Matrix expected;
    std::vector<Matrix> expected_hidden;
    const auto& fc = model.fc_layers();
    for (std::size_t i = 0; i < fc.size(); ++i) {
      if (i > 0) expected_hidden.push_back(x);
      if (i + 1 < fc.size()) {
        fc[i].forward_relu(x, expected);
      } else {
        fc[i].forward(x, expected);
      }
      x = expected;
    }
    Matrix logits;
    std::vector<Matrix> hidden;
    model.fc_head(e, Precision::kFp32, ws, logits, &hidden);
    EXPECT_EQ(logits, expected);
    EXPECT_EQ(hidden, expected_hidden);
    model.fc_head(e, Precision::kFp32, ws, logits);
    EXPECT_EQ(logits, expected) << "without hidden outputs";

    Matrix aliased;
    gather_compute_rows(tensors, tensors.features, aliased);
    EXPECT_THROW(model.layer_step(0, tensors.pred, tensors.succ, aliased,
                                  nullptr, Precision::kFp32, ws, aliased),
                 std::invalid_argument);
    const std::vector<std::uint32_t> past_end = {
        0, static_cast<std::uint32_t>(tensors.node_count())};
    Matrix unused;
    EXPECT_THROW(model.layer_step(0, tensors.pred, tensors.succ, aliased,
                                  &past_end, Precision::kFp32, ws, unused),
                 std::out_of_range);
    const Matrix short_in(tensors.node_count() - 1, kNodeFeatureDim);
    EXPECT_THROW(model.layer_step(0, tensors.pred, tensors.succ, short_in,
                                  nullptr, Precision::kFp32, ws, unused),
                 std::invalid_argument);
    aliased = e;
    EXPECT_THROW(model.fc_head(aliased, Precision::kFp32, ws, aliased),
                 std::invalid_argument);
  }
  set_kernel_threads(0);
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

class FusedForward : public ::testing::Test {
 protected:
  void TearDown() override {
    reset_simd_target();
    reset_graph_reorder();
    set_kernel_threads(0);
  }

  /// A row count that is no multiple of the row block, and one below
  /// the parallel threshold (a single serial block).
  static std::vector<Netlist> designs() {
    GeneratorConfig config;
    config.seed = 29;
    config.target_gates = 900;
    config.primary_inputs = 16;
    config.primary_outputs = 8;
    std::vector<Netlist> out;
    out.push_back(generate_circuit(config));
    out.push_back(tiny_circuit());
    return out;
  }
};

// fp32 inference runs the last layer's blocks through the FC head and
// never stores E_D. Its logits must be bitwise those of the training
// forward(), which keeps E_D and runs fc_head over it; a sink for
// E_0..E_{D-1} (the incremental engine's refresh) must not change them
// and must hold the training forward's E_0..E_{D-1}.
// On every SIMD target, at 1 and 4 threads, with and without RCM
// reordering, for the paper's dims and a small non-dyadic model.
TEST_F(FusedForward, LogitsMatchCachingForwardsBitwise) {
  const std::vector<Netlist> netlists = designs();
  ASSERT_NE(netlists[0].size() % kGemmRowBlock, 0u);
  ASSERT_LT(netlists[1].size(), 64u);
  GcnConfig tiny = tiny_config(3);
  tiny.initial_w_pr = 0.3f;
  tiny.initial_w_su = 0.7f;
  for (const GcnConfig& config : {tiny, GcnConfig{}}) {
    GcnModel model(config);
    for (const SimdTarget target :
         {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
      if (!simd_target_available(target)) continue;
      ASSERT_TRUE(set_simd_target(target));
      for (const GraphReorder reorder :
           {GraphReorder::kOff, GraphReorder::kRcm}) {
        set_graph_reorder(reorder);
        for (const Netlist& netlist : netlists) {
          const GraphTensors tensors = build_graph_tensors(netlist);
          ASSERT_EQ(tensors.reordered(), reorder == GraphReorder::kRcm);
          for (const std::size_t threads : {1u, 4u}) {
            set_kernel_threads(threads);
            SCOPED_TRACE(std::string(simd_target_name()) + " " +
                         (tensors.reordered() ? "rcm" : "off") + " " +
                         std::to_string(tensors.node_count()) + " nodes, " +
                         std::to_string(threads) + " threads, K_D " +
                         std::to_string(config.embed_dims.back()));
            ForwardWorkspace ws;
            Matrix fused;
            model.infer(tensors, ws, fused);
            Matrix cached;
            std::vector<Matrix> embeddings;
            model.infer(tensors, ws, cached, &embeddings);
            const Matrix trained = model.forward(tensors);
            ASSERT_EQ(fused.rows(), tensors.node_count());
            EXPECT_TRUE(same_bits(fused, cached));
            EXPECT_TRUE(same_bits(fused, trained));
            // The sink holds E_0..E_{D-1}, the training cache's first D.
            const std::vector<Matrix>& kept =
                model.train_workspace().embeddings;
            ASSERT_EQ(embeddings.size(), model.encoders().size());
            ASSERT_EQ(kept.size(), embeddings.size() + 1);
            for (std::size_t d = 0; d < embeddings.size(); ++d) {
              EXPECT_TRUE(same_bits(embeddings[d], kept[d])) << "E_" << d;
            }
            EXPECT_TRUE(same_bits(fused, model.infer(tensors)));
          }
        }
      }
    }
  }
}

// The memory contract of the fused forward: after a no-cache fp32
// forward on an N-node graph, the two graph-sized activation buffers
// hold at most E_{D-2} and E_{D-1}. An N x K_D buffer would not fit.
TEST_F(FusedForward, NoCacheForwardAllocatesNoEdBuffer) {
  const GcnModel model{GcnConfig{}};
  const std::vector<std::size_t>& dims = model.config().embed_dims;
  ASSERT_EQ(dims.size(), 3u);
  const Netlist netlist = designs().front();
  for (const GraphReorder reorder : {GraphReorder::kOff, GraphReorder::kRcm}) {
    set_graph_reorder(reorder);
    const GraphTensors tensors = build_graph_tensors(netlist);
    const std::size_t n = tensors.node_count();
    for (const std::size_t threads : {1u, 4u}) {
      set_kernel_threads(threads);
      ForwardWorkspace ws;
      Matrix logits;
      model.infer(tensors, ws, logits);
      EXPECT_LE(ws.ping.capacity() + ws.pong.capacity(),
                n * (dims[1] + dims[0]))
          << (tensors.reordered() ? "rcm" : "off") << ", " << threads
          << " threads";
      EXPECT_LT(ws.blocks.capacity(), n * dims[2]);
      EXPECT_EQ(logits.capacity(), n * model.config().num_classes);
    }
  }
}

TEST_F(FusedForward, LayerStepRefusesHeadOffTheLastFp32Layer) {
  const auto tensors = build_graph_tensors(designs().back());
  GcnModel model(tiny_config(2));
  ForwardWorkspace ws;
  Matrix e;
  gather_compute_rows(tensors, tensors.features, e);
  Matrix out;
  EXPECT_THROW(model.layer_step(0, tensors.pred, tensors.succ, e, nullptr,
                                Precision::kFp32, ws, out, nullptr, true),
               std::invalid_argument);
  model.set_precision(Precision::kInt8);
  Matrix e1;
  model.layer_step(0, tensors.pred, tensors.succ, e, nullptr,
                   Precision::kFp32, ws, e1);
  EXPECT_THROW(model.layer_step(1, tensors.pred, tensors.succ, e1, nullptr,
                                Precision::kInt8, ws, out, nullptr, true),
               std::invalid_argument);
}

// Eq. 1 by hand on a 3-node chain 0 -> 1 -> 2 (one encoder, one hidden FC
// layer). Every weight and feature is a small dyadic rational, so each
// product and partial sum is exact in fp32 and the logits are the same on
// every SIMD target, thread count and engine.
TEST(GcnModel, TinyEq1GraphMatchesHandComputedLogits) {
  Netlist chain;
  chain.add_node(CellType::kInput, "n0");
  chain.add_node(CellType::kBuf, "n1");
  chain.add_node(CellType::kBuf, "n2");
  chain.connect(0, 1);
  chain.connect(1, 2);
  GraphTensors tiny = build_graph_tensors(chain);
  const float features[3][kNodeFeatureDim] = {
      {1, 0, 2, 0}, {0, 1, 1, 0}, {2, 1, 0, 1}};
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t c = 0; c < kNodeFeatureDim; ++c) {
      tiny.features.at(v, c) = features[v][c];
    }
  }

  GcnConfig config;
  config.depth = 1;
  config.embed_dims = {2};
  config.fc_dims = {2};
  config.num_classes = 2;
  config.initial_w_pr = 0.5f;
  config.initial_w_su = 0.25f;
  GcnModel model(config);
  const auto set = [](Param* param, std::initializer_list<float> values) {
    ASSERT_EQ(param->value.size(), values.size());
    std::copy(values.begin(), values.end(), param->value.data());
  };
  const std::vector<Param*> params = model.params();
  ASSERT_EQ(params.size(), 8u);  // w_pr, w_su, then (W, b) x 3
  set(params[2], {1, -1, 2, 0, 0, 1, -1, 0.5f});  // encoder W, 4 x 2
  set(params[3], {0.5f, -1});
  set(params[4], {1, 0.5f, -2, 1});  // hidden FC W, 2 x 2
  set(params[5], {0, 0.25f});
  set(params[6], {1, -1, -1, 0.5f});  // output W, 2 x 2
  set(params[7], {0.5f, 0});

  // G = E + 0.5 P E + 0.25 S E   = [1 .25 2.25 0; 1 1.25 2 .25; 2 1.5 .5 1]
  // E1 = ReLU(G W + b)           = [2 .25; 3.75 .125; 4.5 0]
  // H = ReLU(E1 Wf + bf)         = [1.5 1.5; 3.5 2.25; 4.5 2.5]
  // logits = H Wo + bo
  Matrix expected(3, 2);
  const float logits[3][2] = {{0.5f, -0.75f}, {1.75f, -2.375f}, {2.5f, -3.25f}};
  for (std::size_t v = 0; v < 3; ++v) {
    expected.at(v, 0) = logits[v][0];
    expected.at(v, 1) = logits[v][1];
  }

  EXPECT_EQ(model.infer(tiny), expected);
  const std::unique_ptr<GcnEngine> incremental = make_gcn_engine(model);
  incremental->refresh(tiny);
  EXPECT_EQ(incremental->logits(), expected);
  const std::unique_ptr<GcnEngine> sharded =
      make_gcn_engine(model, /*shards=*/2, /*halo=*/1);
  sharded->refresh(tiny);
  EXPECT_EQ(sharded->logits(), expected);
}

TEST(GraphReorder, RcmInferenceBitwiseMatchesUnordered) {
  GeneratorConfig config;
  config.seed = 57;
  config.target_gates = 1500;
  config.primary_inputs = 24;
  config.primary_outputs = 10;
  config.flip_flops = 16;
  const Netlist n = generate_circuit(config);

  set_graph_reorder(GraphReorder::kOff);
  const auto plain = build_graph_tensors(n);
  set_graph_reorder(GraphReorder::kRcm);
  const auto reordered = build_graph_tensors(n);
  reset_graph_reorder();

  ASSERT_FALSE(plain.reordered());
  ASSERT_TRUE(reordered.reordered());
  // The RCM permutation is a genuine (non-identity) bijection.
  const std::size_t nodes = reordered.node_count();
  ASSERT_EQ(reordered.compute_row.size(), nodes);
  ASSERT_EQ(reordered.compute_node.size(), nodes);
  bool nontrivial = false;
  for (std::uint32_t p = 0; p < nodes; ++p) {
    ASSERT_EQ(reordered.compute_row[reordered.compute_node[p]], p);
    nontrivial |= reordered.compute_node[p] != p;
  }
  EXPECT_TRUE(nontrivial);
  // Every API boundary stays node-ordered — only the CSR forms permute.
  EXPECT_EQ(plain.features, reordered.features);
  EXPECT_EQ(plain.labels, reordered.labels);

  // Reordering is invisible bit-for-bit: the permuted CSR preserves each
  // row's accumulation order, and the logits scatter back to node order.
  const GcnModel model(tiny_config(2));
  const Matrix baseline = model.infer(plain);
  EXPECT_EQ(baseline, model.infer(reordered));

  set_kernel_threads(8);
  EXPECT_EQ(baseline, model.infer(reordered)) << "thread invariance";
  set_kernel_threads(0);
}

TEST(GraphReorder, GatherScatterRoundTrip) {
  set_graph_reorder(GraphReorder::kRcm);
  const auto tensors = build_graph_tensors(tiny_circuit());
  reset_graph_reorder();
  ASSERT_TRUE(tensors.reordered());

  Matrix compute_major, node_major;
  gather_compute_rows(tensors, tensors.features, compute_major);
  scatter_compute_rows(tensors, compute_major, node_major);
  EXPECT_EQ(tensors.features, node_major);
}

}  // namespace
}  // namespace gcnt
