// GcnModel::backward runs as row-block passes in a TrainWorkspace. These
// tests hold it to the layer-by-layer sequence it replaced — whole-matrix
// Linear and ReLU backward passes, two transposed SpMMs and Matrix::dot
// per layer — rebuilt here from public pieces only (layer_step with
// LayerSums, fc_head with its hidden outputs, gemm, spmm, dot): every parameter
// gradient must match it bit for bit on every SIMD target, at any thread
// count, through sequences of optimizer steps.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gen/generator.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "scoap/scoap.h"
#include "tensor/simd/simd.h"

namespace gcnt {
namespace {

/// The replaced Linear::backward: dW += x^T dy (gemm), db += the column
/// sums of dy one row at a time, and dx = dy W^T as gemm's transpose-b
/// variant forms it, 0 + 1 * dot() per element.
void oracle_linear_backward(const Linear& layer, Param& weight, Param& bias,
                            const Matrix& x, const Matrix& dy, Matrix& dx) {
  gemm(x, dy, weight.grad, true, false, 1.0f, 1.0f);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    for (std::size_t c = 0; c < dy.cols(); ++c) {
      bias.grad.at(0, c) += dy.at(r, c);
    }
  }
  const SimdOps& ops = simd_ops();
  dx.resize(dy.rows(), layer.in_features(), 0.0f);
  for (std::size_t i = 0; i < dy.rows(); ++i) {
    for (std::size_t j = 0; j < layer.in_features(); ++j) {
      dx.at(i, j) +=
          1.0f * ops.dot(dy.row(i), layer.weight.value.row(j), dy.cols());
    }
  }
}

/// The replaced Relu::backward: dy where y > 0, into a fresh matrix.
Matrix oracle_relu_backward(const Matrix& y, const Matrix& dy) {
  Matrix dx(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i) {
    dx.data()[i] = y.data()[i] > 0.0f ? dy.data()[i] : 0.0f;
  }
  return dx;
}

/// CSR transpose through COO: entries appended in row-major order land
/// in each transposed row in ascending column order.
CsrMatrix oracle_transpose(const CsrMatrix& m) {
  CooMatrix coo(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      coo.add(m.col_index()[k], static_cast<std::uint32_t>(r),
              m.values()[k]);
    }
  }
  return CsrMatrix::from_coo(coo);
}

/// The training forward's cache, built through the public layer step and
/// FC head.
struct OracleCache {
  std::vector<Matrix> embeddings;
  std::vector<LayerSums> layers;
  std::vector<Matrix> fc_inputs;  ///< E_D, then each hidden FC output
  Matrix logits;
};

OracleCache oracle_forward(const GcnModel& model, const GraphTensors& graph) {
  OracleCache cache;
  ForwardWorkspace ws;
  const std::size_t depth = model.encoders().size();
  cache.embeddings.resize(depth + 1);
  cache.layers.resize(depth);
  cache.embeddings[0] = graph.features;
  for (std::size_t d = 0; d < depth; ++d) {
    model.layer_step(d, graph.pred, graph.succ, cache.embeddings[d], nullptr,
                     Precision::kFp32, ws, cache.embeddings[d + 1],
                     &cache.layers[d]);
  }
  std::vector<Matrix> hidden;
  model.fc_head(cache.embeddings[depth], Precision::kFp32, ws, cache.logits,
                &hidden);
  cache.fc_inputs.push_back(cache.embeddings[depth]);
  for (Matrix& m : hidden) cache.fc_inputs.push_back(std::move(m));
  return cache;
}

/// The replaced GcnModel::backward, accumulating into `model`'s params().
void oracle_backward(GcnModel& model, const GraphTensors& graph,
                     const OracleCache& cache, const Matrix& dlogits) {
  const GcnConfig& config = model.config();
  const std::vector<Param*> params = model.params();
  const std::size_t scalars = config.frozen_aggregation   ? 0
                              : config.tied_aggregation ? 1
                                                        : 2;
  const std::size_t depth = model.encoders().size();
  const auto encoder_param = [&](std::size_t d, std::size_t which) {
    return params[scalars + 2 * d + which];
  };
  const auto fc_param = [&](std::size_t i, std::size_t which) {
    return params[scalars + 2 * depth + 2 * i + which];
  };

  Matrix grad = dlogits;
  for (std::size_t i = model.fc_layers().size(); i-- > 0;) {
    Matrix dinput;
    oracle_linear_backward(model.fc_layers()[i], *fc_param(i, 0),
                           *fc_param(i, 1), cache.fc_inputs[i], grad, dinput);
    grad = i > 0 ? oracle_relu_backward(cache.fc_inputs[i], dinput) : dinput;
  }
  const float wp = model.w_pr();
  const float ws = model.w_su();
  const CsrMatrix pred_t = oracle_transpose(graph.pred);
  const CsrMatrix succ_t = oracle_transpose(graph.succ);
  for (std::size_t d = depth; d-- > 0;) {
    const Matrix dz = oracle_relu_backward(cache.embeddings[d + 1], grad);
    Matrix dg;
    oracle_linear_backward(model.encoders()[d], *encoder_param(d, 0),
                           *encoder_param(d, 1), cache.layers[d].aggregated,
                           dz, dg);
    if (scalars > 0) {
      params[0]->grad.at(0, 0) += cache.layers[d].pred_sum.dot(dg);
      params[scalars - 1]->grad.at(0, 0) += cache.layers[d].succ_sum.dot(dg);
    }
    Matrix dprev = dg;
    pred_t.spmm(dg, dprev, wp, 1.0f);
    succ_t.spmm(dg, dprev, ws, 1.0f);
    grad = std::move(dprev);
  }
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

GraphTensors make_graph(std::size_t gates, std::size_t io, std::uint64_t seed,
                        std::size_t observe_points) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.target_gates = gates;
  gen.primary_inputs = io;
  gen.primary_outputs = io / 2;
  gen.flip_flops = io / 2;
  gen.target_depth = 6;
  Netlist netlist = generate_circuit(gen);
  ScoapMeasures scoap = compute_scoap(netlist);
  GraphTensors tensors =
      build_graph_tensors(netlist, scoap, netlist.logic_levels());
  tensors.standardize_features();
  for (NodeId v = 3; observe_points > 0 && v < netlist.size(); v += 17) {
    if (!is_logic(netlist.type(v))) continue;
    const NodeId op = netlist.insert_observe_point(v);
    update_observability_after_observe(netlist, v, scoap);
    append_observe_point(tensors, netlist, v, op, scoap,
                         netlist.fanin_cone(v));
    --observe_points;
  }
  tensors.rebuild_csr();
  tensors.labels.assign(tensors.node_count(), 0);
  for (std::size_t v = 0; v < tensors.labels.size(); v += 5) {
    tensors.labels[v] = 1;
  }
  return tensors;
}

struct Case {
  std::string name;
  GcnConfig config;
};

std::vector<Case> model_cases() {
  std::vector<Case> cases;
  for (int depth = 1; depth <= 3; ++depth) {
    GcnConfig config;
    config.depth = depth;
    cases.push_back({"depth" + std::to_string(depth), config});
  }
  GcnConfig tied;
  tied.tied_aggregation = true;
  cases.push_back({"tied", tied});
  GcnConfig frozen;
  frozen.frozen_aggregation = true;
  frozen.initial_w_pr = 0.25f;
  cases.push_back({"frozen", frozen});
  return cases;
}

/// `steps` optimizer steps of the model and of an oracle copy in
/// lockstep: gradients and then weights must agree bitwise every step.
void expect_steps_match(const Case& c, const GraphTensors& graph,
                        bool adam, std::size_t steps,
                        const std::string& where) {
  GcnModel model(c.config);
  GcnModel oracle(c.config);
  const auto make = [adam]() -> std::unique_ptr<Optimizer> {
    if (adam) return std::make_unique<AdamOptimizer>(1e-2f);
    return std::make_unique<SgdOptimizer>(5e-2f, 0.9f);
  };
  const auto opt = make();
  const auto oracle_opt = make();
  const std::vector<float> weights{1.0f, 3.0f};
  for (std::size_t step = 0; step < steps; ++step) {
    const Matrix logits = model.forward(graph);
    Matrix dlogits;
    softmax_cross_entropy(logits, graph.labels, weights, nullptr, dlogits);
    model.backward(graph, dlogits);

    const OracleCache cache = oracle_forward(oracle, graph);
    ASSERT_TRUE(same_bits(cache.logits, logits)) << where;
    Matrix oracle_dlogits;
    softmax_cross_entropy(cache.logits, graph.labels, weights, nullptr,
                          oracle_dlogits);
    oracle_backward(oracle, graph, cache, oracle_dlogits);

    const auto mine = model.params();
    const auto theirs = oracle.params();
    ASSERT_EQ(mine.size(), theirs.size());
    for (std::size_t p = 0; p < mine.size(); ++p) {
      ASSERT_TRUE(same_bits(mine[p]->grad, theirs[p]->grad))
          << where << " step " << step << " param " << p << " gradient";
    }
    opt->step(mine);
    oracle_opt->step(theirs);
    for (std::size_t p = 0; p < mine.size(); ++p) {
      ASSERT_TRUE(same_bits(mine[p]->value, theirs[p]->value))
          << where << " step " << step << " param " << p << " value";
    }
  }
}

class GcnBackwardOracle : public ::testing::Test {
 protected:
  void TearDown() override {
    reset_simd_target();
    set_kernel_threads(0);
  }
};

TEST_F(GcnBackwardOracle, EveryGradientMatchesLayerByLayerBackwardBitwise) {
  // Under 64 rows (one serial block), a few hundred rows that are not a
  // multiple of kGemmRowBlock, and the same design with observation
  // points appended through rebuild_csr().
  struct Graph {
    std::string name;
    GraphTensors tensors;
  };
  std::vector<Graph> graphs;
  graphs.push_back({"small", make_graph(20, 8, 3, 0)});
  graphs.push_back({"medium", make_graph(240, 16, 5, 0)});
  graphs.push_back({"observed", make_graph(240, 16, 5, 3)});
  ASSERT_FALSE(graphs[0].tensors.reordered());
  ASSERT_LT(graphs[0].tensors.node_count(), 64u);
  ASSERT_NE(graphs[1].tensors.node_count() % kGemmRowBlock, 0u);
  ASSERT_GT(graphs[2].tensors.node_count(), graphs[1].tensors.node_count());

  const std::vector<Case> cases = model_cases();
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    for (const std::size_t threads : {1u, 3u, 8u}) {
      set_kernel_threads(threads);
      for (const Graph& graph : graphs) {
        for (const Case& c : cases) {
          for (const bool adam : {false, true}) {
            const std::string where =
                std::string(simd_target_name()) + " threads " +
                std::to_string(threads) + " " + graph.name + " " + c.name +
                (adam ? " adam" : " sgd");
            expect_steps_match(c, graph.tensors, adam, 3, where);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

// The training contract of gcn/workspace.h: after one warm-up step, more
// forward/backward/optimizer steps on the same graph grow no buffer of
// the train workspace.
TEST_F(GcnBackwardOracle, SteadyStateStepsAllocateNoTrainWorkspace) {
  const GraphTensors graph = make_graph(240, 16, 9, 2);
  for (const std::size_t threads : {1u, 4u}) {
    set_kernel_threads(threads);
    for (const Case& c : model_cases()) {
      GcnModel model(c.config);
      AdamOptimizer adam(1e-2f);
      Matrix dlogits;
      const auto step = [&] {
        const Matrix logits = model.forward(graph);
        softmax_cross_entropy(logits, graph.labels, {1.0f, 3.0f}, nullptr,
                              dlogits);
        model.backward(graph, dlogits);
        adam.step(model.params());
      };
      step();
      TrainWorkspace& ws = model.train_workspace();
      EXPECT_GT(ws.poll_allocations(), 0u) << "warm-up fills the workspace";
      for (int i = 0; i < 3; ++i) step();
      EXPECT_EQ(ws.poll_allocations(), 0u)
          << c.name << " at " << threads << " threads";
    }
  }
}

// backward() reads the forward's cache through the adjacency of the
// graph it is given, so a graph of another size is refused, before any
// gradient is touched, instead of being indexed past its end.
TEST_F(GcnBackwardOracle, RejectsGraphOtherThanTheForwards) {
  const GraphTensors graph = make_graph(240, 16, 5, 0);
  const GraphTensors smaller = make_graph(20, 8, 3, 0);
  const GraphTensors larger = make_graph(240, 16, 5, 3);
  for (const Case& c : model_cases()) {
    GcnModel model(c.config);
    const Matrix logits = model.forward(graph);
    Matrix dlogits;
    softmax_cross_entropy(logits, graph.labels, {1.0f, 3.0f}, nullptr,
                          dlogits);
    EXPECT_THROW(model.backward(smaller, dlogits), std::invalid_argument)
        << c.name;
    EXPECT_THROW(model.backward(larger, dlogits), std::invalid_argument)
        << c.name;
    for (Param* p : model.params()) {
      for (std::size_t i = 0; i < p->grad.size(); ++i) {
        ASSERT_EQ(p->grad.data()[i], 0.0f) << c.name;
      }
    }
    EXPECT_NO_THROW(model.backward(graph, dlogits)) << c.name;
  }
}

}  // namespace
}  // namespace gcnt
