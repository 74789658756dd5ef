// Thread-count invariance: every parallel kernel must produce bitwise
// identical results for GCNT_THREADS=1 and GCNT_THREADS=8 (deterministic
// static partitioning preserves per-element accumulation order; see
// common/parallel.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "gcn/graph_tensors.h"
#include "gcn/graphsage_inference.h"
#include "gcn/model.h"
#include "gcn/recursive_inference.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "tensor/matrix.h"
#include "tensor/simd/simd.h"
#include "tensor/sparse.h"

namespace gcnt {
namespace {

/// ~5k-gate netlist shared by the kernel-level checks.
const Netlist& big_netlist() {
  static const Netlist netlist = [] {
    GeneratorConfig config;
    config.seed = 2024;
    config.target_gates = 5000;
    config.primary_inputs = 40;
    config.primary_outputs = 20;
    config.flip_flops = 64;
    return generate_circuit(config);
  }();
  return netlist;
}

Matrix random_dense(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

/// Runs `fn` once per thread count and checks all results are identical.
template <typename Fn>
void expect_thread_invariant(Fn&& fn) {
  set_kernel_threads(1);
  const auto reference = fn();
  set_kernel_threads(8);
  const auto parallel = fn();
  set_kernel_threads(0);
  EXPECT_EQ(reference, parallel);
}

TEST(Determinism, SpmmThreadCountInvariant) {
  const GraphTensors tensors = build_graph_tensors(big_netlist());
  const Matrix x = random_dense(tensors.pred.cols(), 64, 7);
  expect_thread_invariant([&] {
    Matrix out;
    tensors.pred.spmm(x, out);
    return out;
  });
  // beta != 0 accumulation path.
  expect_thread_invariant([&] {
    Matrix out = random_dense(tensors.pred.rows(), 64, 8);
    tensors.pred.spmm(x, out, 0.5f, 2.0f);
    return out;
  });
}

TEST(Determinism, CsrBuildAndTransposeThreadCountInvariant) {
  const Netlist netlist = big_netlist();
  CooMatrix pred(netlist.size(), netlist.size());
  for (NodeId v = 0; v < netlist.size(); ++v) {
    for (const NodeId u : netlist.fanins(v)) pred.add(v, u, 1.0f);
  }
  expect_thread_invariant([&] {
    const CsrMatrix csr = CsrMatrix::from_coo(pred);
    CsrMatrix t;
    csr.transpose_into(t);
    return std::make_tuple(csr.row_ptr(), csr.col_index(), csr.values(),
                           t.row_ptr(), t.col_index(), t.values());
  });
}

TEST(Determinism, GemmThreadCountInvariant) {
  const Matrix a = random_dense(300, 200, 11);
  const Matrix b = random_dense(200, 150, 13);
  const Matrix at = random_dense(200, 300, 17);
  const Matrix bt = random_dense(150, 200, 19);
  expect_thread_invariant([&] {
    Matrix nn, tn, nt;
    gemm(a, b, nn, false, false);
    gemm(at, b, tn, true, false);
    gemm(a, bt, nt, false, true);
    return std::make_tuple(std::move(nn), std::move(tn), std::move(nt));
  });
}

// Trained weights are part of the contract: the backward GEMMs give each
// gradient element one owner with a fixed accumulation order, so three
// epochs of training land on the same bits at 1, 3 and 8 threads, on
// every dispatch target.
TEST(Determinism, TrainingThreadCountInvariant) {
  GeneratorConfig generator;
  generator.seed = 2025;
  generator.target_gates = 1200;
  GraphTensors tensors = build_graph_tensors(generate_circuit(generator));
  tensors.labels.assign(tensors.features.rows(), 0);
  for (std::size_t r = 0; r < tensors.labels.size(); r += 5) {
    tensors.labels[r] = 1;
  }
  tensors.standardize_features();
  const TrainGraph graph{&tensors, {}};
  TrainerOptions options;
  options.epochs = 3;
  options.positive_class_weight = 4.0f;
  // Restores the process-wide target and thread count on every exit,
  // including an ASSERT returning early, so later tests run unpinned.
  struct RestoreDispatch {
    ~RestoreDispatch() {
      reset_simd_target();
      set_kernel_threads(0);
    }
  } restore;

  auto train_weights = [&](std::size_t threads) {
    set_kernel_threads(threads);
    GcnModel model(GcnConfig{});
    Trainer trainer(model, options);
    trainer.train({graph}, nullptr);
    std::vector<Matrix> weights;
    for (const Param* param : std::as_const(model).params()) {
      weights.push_back(param->value);
    }
    return weights;
  };
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    const std::vector<Matrix> reference = train_weights(1);
    for (const std::size_t threads : {std::size_t{3}, std::size_t{8}}) {
      const std::vector<Matrix> weights = train_weights(threads);
      ASSERT_EQ(reference.size(), weights.size());
      for (std::size_t i = 0; i < weights.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(reference[i].data(), weights[i].data(),
                                 weights[i].size() * sizeof(float)))
            << simd_target_name() << " param " << i << " threads "
            << threads;
      }
    }
  }
}

TEST(Determinism, ModelInferenceThreadCountInvariant) {
  GraphTensors tensors = build_graph_tensors(big_netlist());
  tensors.standardize_features();
  GcnConfig config;
  config.seed = 99;
  const GcnModel model(config);
  expect_thread_invariant([&] { return model.infer(tensors); });
}

TEST(Determinism, FaultSimThreadCountInvariant) {
  const Netlist& netlist = big_netlist();
  LogicSimulator sim(netlist);
  const auto faults = sample_faults(netlist, 2000, 3);
  expect_thread_invariant([&] {
    ParallelFaultSimulator fsim(sim);
    Rng rng(31);
    std::vector<bool> detected(faults.size(), false);
    std::vector<std::uint64_t> words;
    std::vector<std::size_t> newly;
    std::vector<std::vector<std::uint64_t>> all_words;
    for (int trial = 0; trial < 4; ++trial) {
      const PatternBatch batch = sim.random_batch(rng);
      newly.push_back(fsim.run_batch(batch, faults, detected, words));
      all_words.push_back(words);
    }
    return std::make_tuple(std::move(newly), std::move(all_words), detected);
  });
}

TEST(Determinism, RecursiveInferAllThreadCountInvariant) {
  // Small circuit: the recursion is exponential in depth.
  GeneratorConfig config;
  config.seed = 7;
  config.target_gates = 200;
  const Netlist netlist = generate_circuit(config);
  const GraphTensors tensors = build_graph_tensors(netlist);
  GcnConfig model_config;
  model_config.depth = 2;
  model_config.embed_dims = {8, 16};
  model_config.fc_dims = {16};
  const GcnModel model(model_config);
  const RecursiveInference engine(model, netlist, tensors.features);
  expect_thread_invariant([&] { return engine.infer_all(); });
}

TEST(Determinism, GraphSageInferAllThreadCountInvariant) {
  GeneratorConfig config;
  config.seed = 8;
  config.target_gates = 150;
  const Netlist netlist = generate_circuit(config);
  const GraphTensors tensors = build_graph_tensors(netlist);
  GcnConfig model_config;
  model_config.depth = 2;
  model_config.embed_dims = {8, 16};
  model_config.fc_dims = {16};
  const GcnModel model(model_config);
  SampleFanouts fanouts;
  fanouts.per_hop = {4, 3};
  // Per-node sampling streams are derived from (seed, node), so infer_all
  // is reproducible across runs AND thread counts.
  expect_thread_invariant([&] {
    GraphSageInference engine(model, netlist, tensors.features, fanouts,
                              /*seed=*/42);
    return engine.infer_all();
  });
}

}  // namespace
}  // namespace gcnt
