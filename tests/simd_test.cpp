// SIMD backend contract: runtime dispatch overrides, the unified GEMM
// accumulation policy, per-target bitwise determinism across thread
// counts, cross-target tolerance, and the fused
// bias/ReLU epilogues (see src/tensor/simd/simd.h and docs/API.md).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "tensor/matrix.h"
#include "tensor/simd/simd.h"
#include "tensor/sparse.h"

namespace gcnt {
namespace {

/// Restores process-wide kernel knobs after every test.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override {
    reset_simd_target();
    set_kernel_threads(0);
  }
};

Matrix random_dense(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

/// Strictly positive entries: no zero-skip shortcuts, no -0.0 edge cases,
/// so bitwise comparisons isolate pure accumulation-order effects.
Matrix random_positive(std::size_t rows, std::size_t cols,
                       std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = 0.25f + static_cast<float>(rng.uniform());
  }
  return m;
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

/// Random sparse matrix with ~nnz entries (duplicates merge in from_coo).
CsrMatrix random_csr(std::size_t rows, std::size_t cols, std::size_t nnz,
                     std::uint64_t seed) {
  CooMatrix coo(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < nnz; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.uniform(0.0, rows));
    const auto c = static_cast<std::uint32_t>(rng.uniform(0.0, cols));
    coo.add(r, c, static_cast<float>(rng.normal()));
  }
  return CsrMatrix::from_coo(coo);
}

void expect_close(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    ASSERT_NEAR(x, y, tol * (1.0f + std::max(std::fabs(x), std::fabs(y))))
        << "element " << i;
  }
}

/// Runs `fn` once per available dispatch target, appending one result per
/// target to `results` (scalar always first). Leaves the override reset.
template <typename Fn>
void run_per_target(Fn&& fn, std::vector<Matrix>& results) {
  ASSERT_TRUE(set_simd_target(SimdTarget::kScalar)) << "scalar always runs";
  results.push_back(fn());
  for (const SimdTarget target : {SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (simd_target_available(target)) {
      ASSERT_TRUE(set_simd_target(target));
      results.push_back(fn());
    }
  }
  reset_simd_target();
}

TEST_F(SimdTest, DispatchOverrideAndIntrospection) {
  // Gauge writes are dropped while collection is off; the dispatcher
  // publishes "simd.target" on every (re)resolution, so enable stats
  // before switching targets.
  const bool stats_were_enabled = stats_enabled();
  set_stats_enabled(true);
  ASSERT_TRUE(simd_target_available(SimdTarget::kScalar));
  ASSERT_TRUE(set_simd_target(SimdTarget::kScalar));
  EXPECT_EQ(simd_target(), SimdTarget::kScalar);
  EXPECT_STREQ(simd_target_name(), "scalar");
  EXPECT_STREQ(simd_ops().name, "scalar");
  EXPECT_EQ(StatsRegistry::instance().gauge("simd.target").value(), 0);

  if (simd_target_available(SimdTarget::kAvx2)) {
    ASSERT_TRUE(set_simd_target(SimdTarget::kAvx2));
    EXPECT_EQ(simd_target(), SimdTarget::kAvx2);
    EXPECT_STREQ(simd_target_name(), "avx2");
    EXPECT_EQ(StatsRegistry::instance().gauge("simd.target").value(), 1);
  } else {
    EXPECT_FALSE(set_simd_target(SimdTarget::kAvx2));
    EXPECT_EQ(simd_target(), SimdTarget::kScalar) << "failed set is a no-op";
  }

  reset_simd_target();
  // After reset the resolved target must be one this host can execute.
  EXPECT_TRUE(simd_target_available(simd_target()));
  set_stats_enabled(stats_were_enabled);
}

TEST_F(SimdTest, EnvOverrideRespectedAfterReset) {
  ASSERT_EQ(setenv("GCNT_SIMD", "scalar", 1), 0);
  reset_simd_target();
  EXPECT_EQ(simd_target(), SimdTarget::kScalar);
  EXPECT_STREQ(simd_target_name(), "scalar");
  ASSERT_EQ(unsetenv("GCNT_SIMD"), 0);
  reset_simd_target();
  EXPECT_TRUE(simd_target_available(simd_target()));
}

// The unified accumulation policy (matrix.h): all four transpose variants
// accumulate in fp32 ascending-p order. With alpha == 1 and strictly
// positive operands every variant performs the identical sequence of
// float operations per output element on the scalar target.
TEST_F(SimdTest, GemmTransposeVariantsAgreeBitwiseOnScalar) {
  ASSERT_TRUE(set_simd_target(SimdTarget::kScalar));
  const std::size_t m = 70, k = 50, n = 90;
  const Matrix a = random_positive(m, k, 11);
  const Matrix b = random_positive(k, n, 22);
  const Matrix at = transpose(a);
  const Matrix bt = transpose(b);

  Matrix nn, tn, nt;
  gemm(a, b, nn, false, false);
  gemm(at, b, tn, true, false);
  gemm(a, bt, nt, false, true);

  EXPECT_EQ(nn, tn);
  EXPECT_EQ(nn, nt);
}

// On AVX2 the row-update variants (nn / tn) still run the identical
// per-element fmaf sequence; nt (lane-blocked dot) agrees within
// tolerance.
TEST_F(SimdTest, GemmTransposeVariantsAgreeAcrossTargets) {
  const std::size_t m = 70, k = 50, n = 90;
  const Matrix a = random_positive(m, k, 33);
  const Matrix b = random_positive(k, n, 44);
  const Matrix at = transpose(a);
  const Matrix bt = transpose(b);

  if (simd_target_available(SimdTarget::kAvx2)) {
    ASSERT_TRUE(set_simd_target(SimdTarget::kAvx2));
    Matrix nn, tn, nt;
    gemm(a, b, nn, false, false);
    gemm(at, b, tn, true, false);
    gemm(a, bt, nt, false, true);
    EXPECT_EQ(nn, tn) << "both are axpy row updates with one fmaf per term";
    expect_close(nn, nt, 1e-5f);
  }

  // Scalar vs AVX2: FMA contraction only, stays within tight tolerance.
  std::vector<Matrix> across;
  run_per_target(
      [&] {
        Matrix out;
        gemm(a, b, out, false, false, 0.75f);
        return out;
      },
      across);
  for (std::size_t i = 1; i < across.size(); ++i) {
    expect_close(across[0], across[i], 1e-5f);
  }
}

// For a fixed target, GEMM must be bitwise identical across thread
// counts (deterministic static row partitioning, per-row order intact).
TEST_F(SimdTest, GemmBitwiseInvariantAcrossThreadsPerTarget) {
  const Matrix a = random_dense(300, 96, 55);
  const Matrix b = random_dense(96, 160, 66);
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    Matrix single, eight;
    set_kernel_threads(1);
    gemm(a, b, single, false, false);
    set_kernel_threads(8);
    gemm(a, b, eight, false, false);
    set_kernel_threads(0);
    EXPECT_EQ(single, eight) << "target " << simd_target_name();
  }
}

/// Bitwise equality (NaN-safe, unlike Matrix::operator==).
bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// The transpose-a loop gemm ran before the register-tiled gemm_tn
/// kernel, kept verbatim (one block spanning every column) as the
/// oracle for it: per p, one axpy row update per nonzero alpha * a term.
void reference_gemm_tn(const Matrix& a, const Matrix& b, Matrix& out,
                       float alpha, float beta) {
  const SimdOps& ops = simd_ops();
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (beta == 0.0f) {
    out.resize(m, n, 0.0f);
  } else {
    out.scale(beta);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (std::size_t i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      ops.axpy(out.row(i), brow, av, n);
    }
  }
}

/// The transpose-b loop: one dot() per output element.
void reference_gemm_nt(const Matrix& a, const Matrix& b, Matrix& out,
                       float alpha, float beta) {
  const SimdOps& ops = simd_ops();
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (beta == 0.0f) {
    out.resize(m, n, 0.0f);
  } else {
    out.scale(beta);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.at(i, j) += alpha * ops.dot(a.row(i), b.row(j), k);
    }
  }
}

// Bitwise oracle for the backward GEMM variants: on every target and
// thread count, gemm TN / NT must reproduce the loops above bit for bit
// over shapes straddling every register-tile, output-tile and p-slab
// edge. The (alpha, beta) pairs rotate through all six combinations
// across shapes. a is about half zeros (some -0.0), and every b row
// whose a row is entirely zero carries Inf/NaN: only skipped products
// read it, so any product the zero-skip fails to drop poisons the result.
TEST_F(SimdTest, BackwardGemmMatchesReferenceLoopsBitwise) {
  const std::size_t dims[] = {1, 2, 3, 4, 5, 15, 16, 17, 33, 64, 65, 130};
  const std::size_t depths[] = {1, 7, 1000};
  const float alphas[] = {1.0f, 0.75f};
  const float betas[] = {0.0f, 0.5f, 1.0f};
  const float poison[] = {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()};
  std::vector<SimdTarget> targets;
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (simd_target_available(target)) targets.push_back(target);
  }

  std::size_t case_id = 0;
  for (const std::size_t k : depths) {
    for (const std::size_t m : dims) {
      for (const std::size_t n : dims) {
        const float alpha = alphas[case_id % 2];
        const float beta = betas[case_id / 2 % 3];
        Rng rng(1000003 * k + 1009 * m + n);
        Matrix a(k, m);  // TN: out (m x n) += alpha * a^T * b
        Matrix b(k, n);
        for (std::size_t p = 0; p < k; ++p) {
          const bool zero_row = p % 4 == 3;
          for (std::size_t i = 0; i < m; ++i) {
            const double u = rng.uniform();
            a.at(p, i) = zero_row || u < 0.45 ? 0.0f
                         : u < 0.5           ? -0.0f
                                             : static_cast<float>(rng.normal());
          }
          for (std::size_t j = 0; j < n; ++j) {
            b.at(p, j) = static_cast<float>(rng.normal());
          }
        }
        // NT operands: out (m x n) += alpha * a_nt * b_nt^T.
        const Matrix a_nt = transpose(a);
        const Matrix b_nt = transpose(b);
        for (std::size_t p = 3; p < k; p += 4) {
          for (std::size_t j = 0; j < n; ++j) b.at(p, j) = poison[j % 3];
        }
        const Matrix c = random_dense(m, n, case_id);

        for (const SimdTarget target : targets) {
          ASSERT_TRUE(set_simd_target(target));
          Matrix tn_expected = c, nt_expected = c;
          reference_gemm_tn(a, b, tn_expected, alpha, beta);
          reference_gemm_nt(a_nt, b_nt, nt_expected, alpha, beta);
          for (const int threads : {1, 3, 8}) {
            set_kernel_threads(threads);
            Matrix tn = c, nt = c;
            gemm(a, b, tn, true, false, alpha, beta);
            gemm(a_nt, b_nt, nt, false, true, alpha, beta);
            ASSERT_TRUE(same_bits(tn_expected, tn))
                << "TN " << simd_target_name() << " m=" << m << " n=" << n
                << " k=" << k << " alpha=" << alpha << " beta=" << beta
                << " threads=" << threads;
            ASSERT_TRUE(same_bits(nt_expected, nt))
                << "NT " << simd_target_name() << " m=" << m << " n=" << n
                << " k=" << k << " alpha=" << alpha << " beta=" << beta
                << " threads=" << threads;
          }
          set_kernel_threads(0);
        }
        ++case_id;
      }
    }
  }
}

// SpMM: bitwise identical per target across thread counts; within
// tolerance across targets.
TEST_F(SimdTest, SpmmBitwiseInvariantAcrossThreadsPerTarget) {
  const CsrMatrix csr = random_csr(400, 300, 4000, 77);
  const Matrix dense = random_dense(300, 96, 88);

  std::vector<Matrix> per_target;
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));

    Matrix reference;
    set_kernel_threads(1);
    csr.spmm(dense, reference);
    for (const int threads : {1, 3, 8}) {
      set_kernel_threads(threads);
      Matrix out;
      csr.spmm(dense, out);
      EXPECT_EQ(reference, out)
          << simd_target_name() << " threads " << threads;
    }
    set_kernel_threads(0);
    per_target.push_back(std::move(reference));
  }
  for (std::size_t i = 1; i < per_target.size(); ++i) {
    expect_close(per_target[0], per_target[i], 1e-5f);
  }
}

/// Naive no-transpose oracle, independent of gemm(): out = beta * c0 +
/// alpha * a * b (c0 == nullptr: from zero), then optionally + bias and
/// ReLU. Every element runs p in ascending order with alpha folded into
/// the a term and an exact zero skip; the multiply-add is a separate
/// multiply and add on scalar and one std::fmaf on avx2/avx512.
Matrix naive_nn(const Matrix& a, const Matrix& b, float alpha,
                const Matrix* c0, float beta, const Matrix* bias, bool relu,
                bool fused) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = c0 ? c0->at(i, j) * beta : 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        const float av = alpha * a.at(i, p);
        if (av == 0.0f) continue;
        if (fused) {
          acc = std::fmaf(av, b.at(p, j), acc);
        } else {
          const float product = av * b.at(p, j);
          acc = acc + product;
        }
      }
      if (bias) {
        acc = acc + bias->at(0, j);
        if (relu) acc = acc > 0.0f ? acc : 0.0f;
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

// gemm's no-transpose branch and gemm_bias_act share one packed-block
// kernel; both must equal the naive per-target oracle bit for bit, at
// every width, depth and row count (full and partial row blocks), with
// alpha/beta, at 1 and 4 threads. Columns 1 and k - 1 of a are exact
// +0.0 / -0.0 while the matching b rows hold Inf and NaN: the zero skip
// must keep them out of every output. Column k / 2 is zero only in every
// third row (so register tiles see a mix of live and skipped rows) and
// its b row is +Inf in every other column: the live rows turn Inf there,
// the skipped rows must stay finite.
TEST_F(SimdTest, GemmBiasActMatchesUnfusedBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    const bool fused = target != SimdTarget::kScalar;
    for (const std::size_t threads : {1u, 4u}) {
      set_kernel_threads(threads);
      for (const std::size_t n : {2u, 32u, 64u, 80u, 128u}) {
        for (const std::size_t k : {4u, 32u, 64u, 128u}) {
          for (const std::size_t m : {1u, 33u, 150u}) {
            SCOPED_TRACE(std::string(simd_target_name()) + " threads " +
                         std::to_string(threads) + " m " + std::to_string(m) +
                         " n " + std::to_string(n) + " k " +
                         std::to_string(k));
            Matrix a = random_dense(m, k, 99 + m + k);
            Matrix b = random_dense(k, n, 111 + n + k);
            const Matrix bias = random_dense(1, n, 122 + n);
            for (const std::size_t p : {std::size_t{1}, k - 1}) {
              for (std::size_t i = 0; i < m; ++i) {
                a.at(i, p) = i % 2 == 0 ? 0.0f : -0.0f;
              }
              for (std::size_t j = 0; j < n; ++j) {
                b.at(p, j) = j % 3 == 0 ? nan : (j % 3 == 1 ? inf : -inf);
              }
            }
            for (std::size_t i = 0; i < m; i += 3) a.at(i, k / 2) = 0.0f;
            for (std::size_t j = 0; j < n; j += 2) b.at(k / 2, j) = inf;

            Matrix linear;
            gemm_bias_act(a, b, bias, linear, /*relu=*/false);
            EXPECT_EQ(linear, naive_nn(a, b, 1.0f, nullptr, 0.0f, &bias,
                                       false, fused));
            Matrix relu;
            gemm_bias_act(a, b, bias, relu, /*relu=*/true);
            EXPECT_EQ(relu, naive_nn(a, b, 1.0f, nullptr, 0.0f, &bias, true,
                                     fused));

            Matrix plain;
            gemm(a, b, plain, false, false);
            EXPECT_EQ(plain, naive_nn(a, b, 1.0f, nullptr, 0.0f, nullptr,
                                      false, fused));
            const Matrix c0 = random_dense(m, n, 133 + m + n);
            Matrix scaled = c0;
            gemm(a, b, scaled, false, false, 0.75f, -0.5f);
            EXPECT_EQ(scaled, naive_nn(a, b, 0.75f, &c0, -0.5f, nullptr,
                                       false, fused));
          }
        }
      }
    }
  }
}

// Elementwise ops route through the dispatch table; axpy/scale/relu must
// be bitwise identical to their naive loops per target (lanes map 1:1).
TEST_F(SimdTest, ElementwiseOpsMatchNaiveLoops) {
  const std::size_t n = 1013;  // odd size exercises every tail path
  const Matrix x = random_dense(1, n, 166);
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    const SimdOps& ops = simd_ops();

    Matrix y = random_dense(1, n, 177);
    Matrix expected = y;
    ops.axpy(y.data(), x.data(), 0.5f, n);
    if (target == SimdTarget::kScalar) {
      for (std::size_t i = 0; i < n; ++i) {
        expected.data()[i] += 0.5f * x.data()[i];
      }
      EXPECT_EQ(expected, y);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        expected.data()[i] = std::fmaf(0.5f, x.data()[i], expected.data()[i]);
      }
      EXPECT_EQ(expected, y) << "AVX2 axpy is one fmaf per element";
    }

    Matrix z = random_dense(1, n, 188);
    Matrix z_expected = z;
    ops.relu(z.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      float& v = z_expected.data()[i];
      v = v > 0.0f ? v : 0.0f;  // canonicalizes -0.0 like _mm256_max_ps
    }
    EXPECT_EQ(z_expected, z);

    Matrix s = random_dense(1, n, 199);
    Matrix s_expected = s;
    ops.scale(s.data(), -1.25f, n);
    for (std::size_t i = 0; i < n; ++i) s_expected.data()[i] *= -1.25f;
    EXPECT_EQ(s_expected, s);

    // dot: exact on scalar (ascending order), tolerance on AVX2
    // (lane-blocked partial sums reassociate).
    const float d = ops.dot(x.data(), z.data(), n);
    float naive = 0.0f;
    for (std::size_t i = 0; i < n; ++i) naive += x.data()[i] * z.data()[i];
    if (target == SimdTarget::kScalar) {
      EXPECT_EQ(naive, d);
    } else {
      EXPECT_NEAR(naive, d, 1e-3f * (1.0f + std::fabs(naive)));
    }
  }
}

// Lengths around every lane boundary of the widest target: 16 fp32 lanes
// (AVX-512) and 64 int8 lanes per maddubs block. 0, 1, lane-1, lane,
// lane+1 plus a non-multiple beyond one full vector exercise the masked
// tail, the pure-mask (sub-lane) case, and the body+tail combination.
const std::size_t kTailLengths[] = {0,  1,  15, 16, 17, 31, 32,
                                    33, 63, 64, 65, 100};

// AVX-512 fp32 contract: bitwise identical to AVX2 (same FMA contraction
// and lane-blocked dot partials), with the masked tails never diverging
// from the vector body. Pin every fp32 table entry at every tail length.
TEST_F(SimdTest, Avx512Fp32MatchesAvx2BitwiseAtMaskedTailLengths) {
  if (!simd_target_available(SimdTarget::kAvx512) ||
      !simd_target_available(SimdTarget::kAvx2)) {
    GTEST_SKIP() << "host lacks avx512 or avx2";
  }
  const std::size_t max_n = 128;
  const Matrix x = random_dense(1, max_n, 211);
  const Matrix base = random_dense(1, max_n, 222);

  for (const std::size_t n : kTailLengths) {
    Matrix y2 = base, y5 = base, b2 = base, b5 = base, r2 = base, r5 = base,
           s2 = base, s5 = base, br2 = base, br5 = base;
    ASSERT_TRUE(set_simd_target(SimdTarget::kAvx2));
    simd_ops().axpy(y2.data(), x.data(), 0.75f, n);
    simd_ops().bias_add(b2.data(), x.data(), n);
    simd_ops().bias_relu(br2.data(), x.data(), n);
    simd_ops().relu(r2.data(), n);
    simd_ops().scale(s2.data(), -1.25f, n);
    const float d2 = simd_ops().dot(x.data(), base.data(), n);

    ASSERT_TRUE(set_simd_target(SimdTarget::kAvx512));
    simd_ops().axpy(y5.data(), x.data(), 0.75f, n);
    simd_ops().bias_add(b5.data(), x.data(), n);
    simd_ops().bias_relu(br5.data(), x.data(), n);
    simd_ops().relu(r5.data(), n);
    simd_ops().scale(s5.data(), -1.25f, n);
    const float d5 = simd_ops().dot(x.data(), base.data(), n);

    EXPECT_EQ(y2, y5) << "axpy n=" << n;
    EXPECT_EQ(b2, b5) << "bias_add n=" << n;
    EXPECT_EQ(br2, br5) << "bias_relu n=" << n;
    EXPECT_EQ(r2, r5) << "relu n=" << n;
    EXPECT_EQ(s2, s5) << "scale n=" << n;
    EXPECT_EQ(d2, d5) << "dot n=" << n;
  }
}

// dot_rows is dot() over a tile of a rows and b rows per call: every
// result must be bit for bit the single-row dot() at every length
// (32-blocks, 8-wide remainder chunks, the fmaf tail, below 8 elements,
// and past the packed kernel's 512 limit) and every tile shape (full
// and partial groups of a rows and of output columns), on every target.
TEST_F(SimdTest, DotRowsMatchesDotBitwiseAtTailLengths) {
  const std::size_t max_n = 520, max_count = 65, max_a_rows = 5;
  const std::size_t lengths[] = {0,  1,  2,  3,  7,  8,  9,   15,  16,  17,
                                 31, 32, 33, 63, 64, 65, 100, 128, 512, 513};
  const std::size_t counts[] = {1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 31, 32,
                                33, 40, 64, 65};
  const Matrix a = random_dense(max_a_rows, max_n, 277);
  const Matrix b = random_dense(max_count, max_n, 288);
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    const SimdOps& ops = simd_ops();
    for (const std::size_t n : lengths) {
      for (std::size_t a_rows = 1; a_rows <= max_a_rows; ++a_rows) {
        for (const std::size_t count : counts) {
          // ldo > count: the kernel must leave the gap columns alone.
          const std::size_t ldo = count + 3;
          std::vector<float> out(a_rows * ldo, -7.0f);
          ops.dot_rows(out.data(), ldo, a.data(), max_n, a_rows, b.data(),
                       max_n, n, count);
          for (std::size_t r = 0; r < a_rows; ++r) {
            for (std::size_t j = 0; j < ldo; ++j) {
              const float expected =
                  j < count ? ops.dot(a.row(r), b.row(j), n) : -7.0f;
              ASSERT_EQ(0, std::memcmp(&expected, &out[r * ldo + j],
                                       sizeof(float)))
                  << simd_target_name() << " n=" << n << " rows=" << a_rows
                  << " count=" << count << " at " << r << "," << j;
            }
          }
        }
      }
    }
  }
}

// The int8 ops are bitwise identical across ALL targets (exact integer
// accumulation, fixed per-element float sequence — simd.h contract).
// Scalar is the reference; every vector target must reproduce it at
// every tail length, including zero-length calls.
TEST_F(SimdTest, Int8OpsBitwiseMatchScalarAtMaskedTailLengths) {
  const std::size_t max_n = 128;
  Rng rng(233);
  std::vector<std::uint8_t> codes(max_n);
  std::vector<std::int8_t> weights(max_n);
  Matrix xf(1, max_n);
  for (std::size_t i = 0; i < max_n; ++i) {
    codes[i] = static_cast<std::uint8_t>(rng.uniform(0.0, 128.0));
    weights[i] = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
    xf.data()[i] = static_cast<float>(rng.normal()) * 3.0f;
  }
  // Include the quantize_u8 clamp extremes in the float input.
  if (max_n >= 4) {
    xf.data()[0] = 400.0f;
    xf.data()[1] = -400.0f;
    xf.data()[2] = 0.0f;
    xf.data()[3] = std::numeric_limits<float>::quiet_NaN();
  }
  const Matrix ybase = random_dense(1, max_n, 244);

  for (const std::size_t n : kTailLengths) {
    ASSERT_TRUE(set_simd_target(SimdTarget::kScalar));
    const std::int32_t dot_ref =
        simd_ops().dot_u8s8(codes.data(), weights.data(), n);
    Matrix axpy_ref = ybase;
    simd_ops().axpy_dq8(axpy_ref.data(), codes.data(), 0.035f, 41, n);
    std::vector<std::uint8_t> q_ref(max_n, 0xEE);
    simd_ops().quantize_u8(q_ref.data(), xf.data(), 17.0f, 63, n);
    Matrix dq_ref(1, max_n, -5.0f);
    simd_ops().dequantize_u8(dq_ref.data(), codes.data(), 0.02f, 41, n);

    for (const SimdTarget target : {SimdTarget::kAvx2, SimdTarget::kAvx512}) {
      if (!simd_target_available(target)) continue;
      ASSERT_TRUE(set_simd_target(target));
      EXPECT_EQ(dot_ref, simd_ops().dot_u8s8(codes.data(), weights.data(), n))
          << simd_target_name() << " dot_u8s8 n=" << n;
      Matrix axpy_out = ybase;
      simd_ops().axpy_dq8(axpy_out.data(), codes.data(), 0.035f, 41, n);
      EXPECT_EQ(axpy_ref, axpy_out)
          << simd_target_name() << " axpy_dq8 n=" << n;
      std::vector<std::uint8_t> q_out(max_n, 0xEE);
      simd_ops().quantize_u8(q_out.data(), xf.data(), 17.0f, 63, n);
      EXPECT_EQ(q_ref, q_out) << simd_target_name() << " quantize_u8 n=" << n;
      Matrix dq_out(1, max_n, -5.0f);
      simd_ops().dequantize_u8(dq_out.data(), codes.data(), 0.02f, 41, n);
      EXPECT_EQ(dq_ref, dq_out)
          << simd_target_name() << " dequantize_u8 n=" << n;
    }
  }
}

// Scalar int8 semantics against naive loops: exact integer dot, the
// documented fmaf sequence for axpy_dq8, nearest-even rounding + clamp
// for quantize_u8 (NaN -> code 0), single multiply for dequantize_u8.
TEST_F(SimdTest, Int8OpsMatchNaiveReferenceOnScalar) {
  ASSERT_TRUE(set_simd_target(SimdTarget::kScalar));
  const SimdOps& ops = simd_ops();
  const std::size_t n = 77;
  Rng rng(255);
  std::vector<std::uint8_t> codes(n);
  std::vector<std::int8_t> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<std::uint8_t>(rng.uniform(0.0, 128.0));
    weights[i] = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
  }

  std::int64_t naive = 0;
  for (std::size_t i = 0; i < n; ++i) {
    naive += static_cast<std::int32_t>(codes[i]) * weights[i];
  }
  EXPECT_EQ(naive, ops.dot_u8s8(codes.data(), weights.data(), n));

  Matrix y = random_dense(1, n, 266);
  Matrix y_expected = y;
  ops.axpy_dq8(y.data(), codes.data(), 0.125f, 30, n);
  for (std::size_t i = 0; i < n; ++i) {
    y_expected.data()[i] =
        std::fmaf(0.125f, static_cast<float>(static_cast<int>(codes[i]) - 30),
                  y_expected.data()[i]);
  }
  EXPECT_EQ(y_expected, y);

  // 2.5 * 1 = 2.5 rounds to 2 (nearest even), 3.5 * 1 = 3.5 rounds to 4.
  const float ties[] = {2.5f, 3.5f, -100.0f, 500.0f,
                        std::numeric_limits<float>::quiet_NaN()};
  std::uint8_t tie_codes[5];
  ops.quantize_u8(tie_codes, ties, 1.0f, 10, 5);
  EXPECT_EQ(tie_codes[0], 12);   // 10 + round(2.5) = 10 + 2
  EXPECT_EQ(tie_codes[1], 14);   // 10 + round(3.5) = 10 + 4
  EXPECT_EQ(tie_codes[2], 0);    // clamped low
  EXPECT_EQ(tie_codes[3], 127);  // clamped high
  EXPECT_EQ(tie_codes[4], 0);    // NaN quantizes to code 0

  Matrix dq(1, n);
  ops.dequantize_u8(dq.data(), codes.data(), 0.25f, 30, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(dq.data()[i],
              static_cast<float>(static_cast<int>(codes[i]) - 30) * 0.25f);
  }
}

#if defined(GCNT_DEBUG_ASSERTS)
// Debug builds: out-of-range Matrix access trips GCNT_DEBUG_ASSERT and
// aborts with a diagnostic. Compiled out entirely in Release.
TEST(SimdDebugAssertDeathTest, MatrixAtOutOfRangeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Matrix m(2, 3);
  EXPECT_DEATH((void)m.at(2, 0), "GCNT_DEBUG_ASSERT failed");
  EXPECT_DEATH((void)m.at(0, 3), "GCNT_DEBUG_ASSERT failed");
  EXPECT_DEATH((void)m.row(2), "GCNT_DEBUG_ASSERT failed");
}
#else
// Release builds compile the assertion away: out-of-contract reads are
// not checked (this test just pins that the macro expands to a no-op).
TEST(SimdDebugAssertDeathTest, ReleaseBuildCompilesAssertsOut) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
}
#endif

}  // namespace
}  // namespace gcnt
