// Int8 quantized inference tier (gcn/quant.h): calibration and round-trip
// bounds, the integer GEMM/SpMM kernels against naive references, the
// model-level bitwise determinism contract across threads and dispatch
// targets, the fp32 fallback rules of
// the incremental and sharded engines, and the ForwardWorkspace reuse
// regression across graph-dimension changes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gcn/incremental.h"
#include "gcn/model.h"
#include "gcn/quant.h"
#include "gcn/shard.h"
#include "gcn/workspace.h"
#include "gen/generator.h"
#include "tensor/simd/simd.h"

namespace gcnt {
namespace {

/// Restores process-wide kernel knobs after every test.
class QuantTest : public ::testing::Test {
 protected:
  void TearDown() override {
    reset_simd_target();
    set_kernel_threads(0);
  }
};

Matrix random_dense(std::size_t rows, std::size_t cols, std::uint64_t seed,
                    float spread = 1.0f) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = static_cast<float>(rng.normal()) * spread;
  }
  return m;
}

GraphTensors generated_tensors(std::size_t gates, std::uint64_t seed) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = gates;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.trap_fraction = 0.1;
  GraphTensors tensors = build_graph_tensors(generate_circuit(config));
  tensors.standardize_features();
  return tensors;
}

GcnConfig small_config() {
  GcnConfig config;
  config.depth = 2;
  config.embed_dims = {12, 16};
  config.fc_dims = {10};
  config.seed = 7;
  return config;
}

TEST_F(QuantTest, TensorRoundTripErrorBoundedByHalfScalePerRow) {
  Matrix x = random_dense(60, 33, 5, 4.0f);
  // A row with huge dynamic range, an all-zero row, and scattered exact
  // zeros: the per-row scheme must keep each row's error within its own
  // half-step and reproduce zeros exactly.
  for (std::size_t c = 0; c < x.cols(); ++c) x.at(1, c) = 0.0f;
  x.at(2, 0) = 900.0f;
  x.at(2, 1) = 0.001f;
  x.at(3, 5) = 0.0f;

  QuantizedTensor q;
  quantize_tensor(x, q);
  ASSERT_EQ(q.rows, x.rows());
  ASSERT_EQ(q.cols, x.cols());
  ASSERT_EQ(q.scales.size(), x.rows());
  ASSERT_EQ(q.zero_points.size(), x.rows());

  Matrix back;
  dequantize_tensor(q, back);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_GE(q.zero_points[r], 0);
    EXPECT_LE(q.zero_points[r], 127);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      EXPECT_LE(std::fabs(back.at(r, c) - x.at(r, c)),
                q.scales[r] * 0.5f + 1e-6f)
          << "row " << r << " col " << c;
      if (x.at(r, c) == 0.0f) {
        EXPECT_EQ(back.at(r, c), 0.0f) << "exact zero must survive";
      }
    }
  }
}

TEST_F(QuantTest, QuantizeLinearUsesPerColumnScales) {
  Rng rng(1);
  Linear layer(3, 2, rng);
  // Column 0 spans [-2, 2], column 1 spans [-0.01, 0.01]: a per-layer
  // scale would leave column 1 with codes in {-1, 0, 1}.
  layer.weight.value.at(0, 0) = 2.0f;
  layer.weight.value.at(1, 0) = -1.0f;
  layer.weight.value.at(2, 0) = 0.5f;
  layer.weight.value.at(0, 1) = 0.01f;
  layer.weight.value.at(1, 1) = -0.005f;
  layer.weight.value.at(2, 1) = 0.0025f;

  const QuantizedLinear q = quantize_linear(layer);
  ASSERT_EQ(q.in, 3u);
  ASSERT_EQ(q.out, 2u);
  ASSERT_EQ(q.scales.size(), 2u);
  EXPECT_FLOAT_EQ(q.scales[0], 2.0f / 127.0f);
  EXPECT_FLOAT_EQ(q.scales[1], 0.01f / 127.0f);
  // Transposed storage: row j holds column j's codes at full resolution.
  EXPECT_EQ(q.row(0)[0], 127);
  EXPECT_EQ(q.row(0)[1], -64);  // round(-1 / (2/127)) = round(-63.5)
  EXPECT_EQ(q.row(1)[0], 127);
  EXPECT_EQ(q.row(1)[1], -64);  // small column keeps 8-bit resolution
  for (std::size_t j = 0; j < q.out; ++j) {
    std::int32_t sum = 0;
    for (std::size_t k = 0; k < q.in; ++k) sum += q.row(j)[k];
    EXPECT_EQ(q.col_sums[j], sum);
  }
}

TEST_F(QuantTest, QuantizedLinearForwardMatchesIntegerReference) {
  const std::size_t rows = 40, in = 24, out = 18;
  Rng rng(3);
  Linear layer(in, out, rng);
  const Matrix x = random_dense(rows, in, 17, 2.0f);
  const QuantizedLinear qw = quantize_linear(layer);
  QuantizedTensor qx;
  quantize_tensor(x, qx);

  Matrix got;
  quantized_linear_forward(qx, qw, layer.bias.value, got, /*relu=*/true);

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < out; ++j) {
      std::int64_t acc = 0;
      for (std::size_t k = 0; k < in; ++k) {
        acc += static_cast<std::int32_t>(qx.row(r)[k]) * qw.row(j)[k];
      }
      acc -= static_cast<std::int64_t>(qx.zero_points[r]) * qw.col_sums[j];
      const float v = std::fmaf(static_cast<float>(acc),
                                qx.scales[r] * qw.scales[j],
                                layer.bias.value.at(0, j));
      const float expected = v > 0.0f ? v : 0.0f;
      ASSERT_EQ(expected, got.at(r, j)) << "row " << r << " col " << j;
    }
  }
}

TEST_F(QuantTest, SpmmQ8MatchesDequantizedSpmmAndIsInvariant) {
  const GraphTensors tensors = generated_tensors(600, 0xA1);
  const Matrix dense = random_dense(tensors.node_count(), 48, 29, 2.0f);
  QuantizedTensor q;
  quantize_tensor(dense, q);

  // Reference semantics: spmm over the dequantized operand, within
  // tolerance (accumulation order differs in the epilogue coefficient).
  Matrix dq;
  dequantize_tensor(q, dq);
  Matrix reference;
  tensors.pred.spmm(dq, reference);
  Matrix out;
  spmm_q8(tensors.pred, q, out);
  ASSERT_EQ(reference.rows(), out.rows());
  ASSERT_EQ(reference.cols(), out.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(reference.data()[i], out.data()[i],
                1e-4f * (1.0f + std::fabs(reference.data()[i])));
  }

  // Bitwise invariance across thread counts.
  for (const int threads : {1, 8}) {
    set_kernel_threads(threads);
    Matrix rerun;
    spmm_q8(tensors.pred, q, rerun);
    EXPECT_EQ(out, rerun) << "threads " << threads;
  }
}

// The tier's headline contract: int8 logits are bitwise identical across
// thread counts AND dispatch targets (fp32 is only
// per-target deterministic — FMA contraction differs across targets).
TEST_F(QuantTest, ModelInt8BitwiseAcrossThreadsTilesAndTargets) {
  const GraphTensors tensors = generated_tensors(800, 0xB2);
  GcnModel model(small_config());
  model.set_precision(Precision::kInt8);

  ASSERT_TRUE(set_simd_target(SimdTarget::kScalar));
  const Matrix reference = model.infer(tensors);

  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    for (const int threads : {1, 8}) {
      set_kernel_threads(threads);
      const Matrix logits = model.infer(tensors);
      EXPECT_EQ(reference, logits)
          << simd_target_name() << " threads " << threads;
    }
  }
}

TEST_F(QuantTest, Int8TracksFp32WithinTolerance) {
  const GraphTensors tensors = generated_tensors(800, 0xC3);
  GcnModel model(small_config());
  const Matrix fp32 = model.infer(tensors);
  model.set_precision(Precision::kInt8);
  const Matrix int8 = model.infer(tensors);
  ASSERT_EQ(fp32.rows(), int8.rows());
  ASSERT_EQ(fp32.cols(), int8.cols());
  // Coarse sanity bound on a random-init model (its logits are near zero,
  // so the relative part barely helps). The trained-model accuracy
  // contract is the bench/quant_agreement.cpp gate, not this test.
  for (std::size_t i = 0; i < fp32.size(); ++i) {
    EXPECT_NEAR(fp32.data()[i], int8.data()[i],
                0.2f * (1.0f + std::fabs(fp32.data()[i])));
  }
}

// GCNT_PRECISION unset leaves everything bitwise unchanged: the fp32 path
// must not be perturbed by the int8 machinery existing, or by a model
// that visited the int8 tier and came back.
TEST_F(QuantTest, Fp32PathUnchangedByPrecisionRoundTrip) {
  EXPECT_EQ(resolve_precision(), Precision::kFp32) << "default tier";
  EXPECT_EQ(resolve_precision("int8"), Precision::kInt8);
  EXPECT_EQ(resolve_precision("bogus"), Precision::kFp32)
      << "unknown value falls back to fp32";

  const GraphTensors tensors = generated_tensors(500, 0xD4);
  GcnModel model(small_config());
  const Matrix before = model.infer(tensors);
  model.set_precision(Precision::kInt8);
  (void)model.infer(tensors);
  model.set_precision(Precision::kFp32);
  const Matrix after = model.infer(tensors);
  EXPECT_EQ(before, after);
}

// Incremental engine contract: it always computes fp32 (bit-identical to
// its own cache) and counts the downgrade when the model asked for int8.
TEST_F(QuantTest, IncrementalEngineFallsBackToFp32AndCounts) {
  const bool stats_were_enabled = stats_enabled();
  set_stats_enabled(true);
  const GraphTensors tensors = generated_tensors(500, 0xF6);
  GcnModel model(small_config());
  const Matrix fp32_logits = model.infer(tensors);

  model.set_precision(Precision::kInt8);
  Counter& fallbacks = StatsRegistry::instance().counter("quant.fallback");
  const std::uint64_t before = fallbacks.value();
  IncrementalGcnEngine engine(model);
  const Matrix& logits = engine.refresh(tensors);
  EXPECT_EQ(logits, fp32_logits)
      << "incremental path stays fp32 regardless of the model tier";
  EXPECT_EQ(fallbacks.value(), before + 1);
  set_stats_enabled(stats_were_enabled);
}

TEST_F(QuantTest, ShardedEngineFallsBackToFp32AndCounts) {
  const bool stats_were_enabled = stats_enabled();
  set_stats_enabled(true);
  const GraphTensors tensors = generated_tensors(500, 0xA7);
  GcnModel model(small_config());
  const Matrix fp32_logits = model.infer(tensors);

  model.set_precision(Precision::kInt8);
  Counter& fallbacks = StatsRegistry::instance().counter("quant.fallback");
  const std::uint64_t before = fallbacks.value();
  ShardedGcnOptions options;
  options.shards = 3;
  ShardedGcnEngine engine(model, options);
  const Matrix& logits = engine.refresh(tensors);
  EXPECT_EQ(logits, fp32_logits)
      << "sharded path stays fp32 regardless of the model tier";
  EXPECT_GT(fallbacks.value(), before);
  set_stats_enabled(stats_were_enabled);
}

// Regression: a workspace reused across graphs of different sizes /
// dimensions must produce the same bits as a fresh workspace, in both
// precision tiers, and settle into zero allocations per steady-state
// graph.
TEST_F(QuantTest, ForwardWorkspaceReuseAcrossDimChange) {
  const GraphTensors small = generated_tensors(300, 0xC9);
  const GraphTensors large = generated_tensors(900, 0xDA);
  GcnModel model(small_config());

  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    model.set_precision(precision);
    ForwardWorkspace fresh_small, fresh_large, reused;
    Matrix expected_small, expected_large, out;
    model.infer(small, fresh_small, expected_small);
    model.infer(large, fresh_large, expected_large);

    // Grow, shrink, grow again through one workspace.
    model.infer(small, reused, out);
    EXPECT_EQ(expected_small, out) << precision_name(precision);
    model.infer(large, reused, out);
    EXPECT_EQ(expected_large, out) << precision_name(precision);
    model.infer(small, reused, out);
    EXPECT_EQ(expected_small, out) << precision_name(precision);

    // After revisiting the larger graph once, further passes over either
    // graph fit in capacity: zero new allocations.
    model.infer(large, reused, out);
    (void)reused.poll_allocations();
    model.infer(large, reused, out);
    model.infer(small, reused, out);
    EXPECT_EQ(reused.poll_allocations(), 0u)
        << precision_name(precision) << ": steady state must not allocate";
  }
}

}  // namespace
}  // namespace gcnt
