// Dense and sparse tensor kernels, checked against naive references.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gcnt {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return m;
}

/// Naive O(mnk) reference for all transpose combinations.
Matrix naive_gemm(const Matrix& a, const Matrix& b, bool ta, bool tb,
                  float alpha) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  Matrix out(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      out.at(i, j) = alpha * static_cast<float>(acc);
    }
  }
  return out;
}

void expect_near(const Matrix& got, const Matrix& want, float tol = 1e-4f) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < got.rows(); ++r) {
    for (std::size_t c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got.at(r, c), want.at(r, c), tol)
          << "at (" << r << ", " << c << ")";
    }
  }
}

TEST(Matrix, ConstructAndAccess) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_FLOAT_EQ(m.at(2, 3), 1.5f);
  m.at(1, 2) = -2.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), -2.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], -2.0f);
}

TEST(Matrix, FillAndScale) {
  Matrix m(2, 2, 3.0f);
  m.scale(0.5f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.5f);
  m.fill(-1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 1), -1.0f);
}

TEST(Matrix, Axpy) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 2.0f);
  a.axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.0f);
  Matrix wrong(3, 2);
  EXPECT_THROW(a.axpy(1.0f, wrong), std::invalid_argument);
}

TEST(Matrix, Dot) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a.at(0, 0) = 1.0f;
  a.at(1, 1) = 2.0f;
  b.at(0, 0) = 3.0f;
  b.at(1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(a.dot(b), 11.0f);
}

TEST(Matrix, XavierInitBounded) {
  Rng rng(5);
  Matrix m(30, 20);
  m.xavier_init(rng);
  const double bound = std::sqrt(6.0 / (30 + 20 + 1));
  bool any_nonzero = false;
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), bound);
    any_nonzero |= m.data()[i] != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
}

struct GemmCase {
  bool ta, tb;
};
class GemmTransposes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTransposes, MatchesNaive) {
  const auto [ta, tb] = GetParam();
  Rng rng(42);
  // Shapes chosen so op(a) is 5x7 and op(b) is 7x3.
  const Matrix a = ta ? random_matrix(7, 5, rng) : random_matrix(5, 7, rng);
  const Matrix b = tb ? random_matrix(3, 7, rng) : random_matrix(7, 3, rng);
  Matrix out;
  gemm(a, b, out, ta, tb, 1.25f);
  expect_near(out, naive_gemm(a, b, ta, tb, 1.25f));
}

INSTANTIATE_TEST_SUITE_P(AllCombos, GemmTransposes,
                         ::testing::Values(GemmCase{false, false},
                                           GemmCase{true, false},
                                           GemmCase{false, true}));

TEST(Gemm, DoubleTransposeThrows) {
  Rng rng(44);
  const Matrix a = random_matrix(7, 5, rng);
  const Matrix b = random_matrix(3, 7, rng);
  Matrix out;
  EXPECT_THROW(gemm(a, b, out, true, true), std::invalid_argument);
}

// The output is written (resized, zeroed or scaled by beta) before the
// operands are read, so an output that aliases an input is refused
// instead of silently computing garbage.
TEST(Gemm, AliasedOutputThrows) {
  Rng rng(45);
  Matrix a = random_matrix(6, 6, rng);
  Matrix b = random_matrix(6, 6, rng);
  Matrix bias = random_matrix(1, 6, rng);
  const Matrix a_before = a;
  const Matrix b_before = b;
  for (const bool ta : {false, true}) {
    EXPECT_THROW(gemm(a, b, a, ta, false), std::invalid_argument);
    EXPECT_THROW(gemm(a, b, b, ta, false), std::invalid_argument);
    EXPECT_THROW(gemm(a, b, a, false, ta, 1.0f, 0.5f), std::invalid_argument);
  }
  EXPECT_THROW(gemm_bias_act(a, b, bias, a, true), std::invalid_argument);
  EXPECT_THROW(gemm_bias_act(a, b, bias, b, false), std::invalid_argument);
  EXPECT_EQ(a, a_before);
  EXPECT_EQ(b, b_before);

  // A distinct output of the same shape is fine.
  Matrix out = a;
  gemm(a, b, out, false, false, 1.0f, 1.0f);
  gemm_bias_act(a, b, bias, out, true);
}

TEST(Gemm, BetaAccumulates) {
  Rng rng(7);
  const Matrix a = random_matrix(4, 4, rng);
  const Matrix b = random_matrix(4, 4, rng);
  Matrix out(4, 4, 1.0f);
  gemm(a, b, out, false, false, 1.0f, 2.0f);
  Matrix want = naive_gemm(a, b, false, false, 1.0f);
  for (std::size_t i = 0; i < want.size(); ++i) want.data()[i] += 2.0f;
  expect_near(out, want);
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(2, 3), b(4, 2), out;
  EXPECT_THROW(gemm(a, b, out, false, false), std::invalid_argument);
}

TEST(Coo, AppendGrowsShape) {
  CooMatrix coo;
  coo.add(2, 5, 1.0f);
  EXPECT_EQ(coo.rows, 3u);
  EXPECT_EQ(coo.cols, 6u);
  EXPECT_EQ(coo.nnz(), 1u);
}

TEST(Coo, SparsityReported) {
  CooMatrix coo(100, 100);
  for (std::uint32_t i = 0; i < 100; ++i) coo.add(i, i, 1.0f);
  EXPECT_DOUBLE_EQ(coo.sparsity(), 0.99);
}

TEST(Csr, FromCooBasic) {
  CooMatrix coo(3, 3);
  coo.add(0, 1, 2.0f);
  coo.add(2, 0, 3.0f);
  coo.add(1, 1, -1.0f);
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.row_ptr()[1] - csr.row_ptr()[0], 1u);
  EXPECT_EQ(csr.col_index()[csr.row_ptr()[2]], 0u);
}

TEST(Csr, DuplicatesSummed) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0f);
  coo.add(0, 0, 2.5f);
  coo.add(1, 1, 1.0f);
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_FLOAT_EQ(csr.values()[0], 3.5f);
}

TEST(Csr, FromCooRejects32BitIndexOverflow) {
  // A declared shape past the 32-bit index range must fail up front with
  // a typed resource error — before any O(rows) allocation happens —
  // instead of silently wrapping the index arithmetic.
  CooMatrix wide_rows;
  wide_rows.rows = std::size_t{1} << 32;
  wide_rows.cols = 4;
  try {
    CsrMatrix::from_coo(wide_rows);
    FAIL() << "expected Error{kResource}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResource);
  }
  CooMatrix wide_cols;
  wide_cols.rows = 4;
  wide_cols.cols = (std::size_t{1} << 32) + 7;
  try {
    CsrMatrix::from_coo(wide_cols);
    FAIL() << "expected Error{kResource}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResource);
  }
}

TEST(Csr, FromPartsPreservesRowOrderAndValidates) {
  // from_parts keeps each row's nonzero order exactly as given (the
  // sharded engine's bitwise-identity contract); from_coo would reorder
  // by first occurrence and merge duplicates.
  const CsrMatrix csr = CsrMatrix::from_parts(
      2, 3, {0, 2, 3}, {2, 0, 1}, {5.0f, 1.0f, -2.0f});
  EXPECT_EQ(csr.rows(), 2u);
  EXPECT_EQ(csr.cols(), 3u);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.col_index()[0], 2u);  // descending within the row, kept
  EXPECT_EQ(csr.col_index()[1], 0u);
  EXPECT_FLOAT_EQ(csr.values()[0], 5.0f);
  // Inconsistent arrays are an internal error, not undefined behavior.
  const auto expect_internal = [](const std::function<void()>& fn) {
    try {
      fn();
      FAIL() << "expected Error{kInternal}";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInternal);
    }
  };
  expect_internal([] {  // row_ptr not monotone
    CsrMatrix::from_parts(2, 3, {0, 2, 1}, {0, 1}, {1.0f, 1.0f});
  });
  expect_internal([] {  // column out of range
    CsrMatrix::from_parts(1, 2, {0, 1}, {2}, {1.0f});
  });
  expect_internal([] {  // col/value length mismatch
    CsrMatrix::from_parts(1, 2, {0, 1}, {0, 1}, {1.0f});
  });
}

TEST(Csr, RefillChecksLikeFromPartsAndReusesCapacity) {
  const std::vector<std::uint32_t> row_ptr = {0, 2, 3};
  const std::vector<std::uint32_t> cols = {2, 0, 1};
  const std::vector<float> values = {5.0f, 1.0f, -2.0f};
  CsrMatrix csr;
  csr.reserve(4, 8);
  const std::size_t reserved = csr.capacity();
  EXPECT_GE(reserved, 5u + 8u + 8u);
  csr.refill(2, 3, row_ptr, cols, values);
  EXPECT_EQ(csr.rows(), 2u);
  EXPECT_EQ(csr.cols(), 3u);
  EXPECT_EQ(csr.row_ptr(), row_ptr);
  EXPECT_EQ(csr.col_index(), cols);  // row order kept, as from_parts
  EXPECT_EQ(csr.values(), values);
  EXPECT_EQ(csr.capacity(), reserved);
  // A smaller refill keeps the arrays; a bad one throws and changes
  // nothing.
  csr.refill(1, 3, {row_ptr.data(), 2}, {cols.data(), 2},
             {values.data(), 2});
  EXPECT_EQ(csr.rows(), 1u);
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_EQ(csr.capacity(), reserved);
  const std::vector<std::uint32_t> bad_cols = {0, 3, 1};
  try {
    csr.refill(2, 3, row_ptr, bad_cols, values);
    FAIL() << "expected Error{kInternal}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
  }
  EXPECT_EQ(csr.rows(), 1u);
  EXPECT_EQ(csr.nnz(), 2u);
}

TEST(Csr, SpmmMatchesDense) {
  Rng rng(11);
  CooMatrix coo(6, 5);
  Matrix dense_a(6, 5);
  for (int k = 0; k < 12; ++k) {
    const auto r = static_cast<std::uint32_t>(rng.below(6));
    const auto c = static_cast<std::uint32_t>(rng.below(5));
    const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
    coo.add(r, c, v);
    dense_a.at(r, c) += v;  // duplicates accumulate in both forms
  }
  const Matrix x = random_matrix(5, 4, rng);
  Matrix got;
  CsrMatrix::from_coo(coo).spmm(x, got);
  expect_near(got, naive_gemm(dense_a, x, false, false, 1.0f));
}

TEST(Csr, SpmmAlphaBeta) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0f);
  coo.add(1, 1, 1.0f);
  const CsrMatrix identity = CsrMatrix::from_coo(coo);
  Matrix x(2, 2, 1.0f);
  Matrix out(2, 2, 10.0f);
  identity.spmm(x, out, 2.0f, 1.0f);  // out = 2*I*x + out
  EXPECT_FLOAT_EQ(out.at(0, 0), 12.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 12.0f);
}

TEST(Csr, SpmmDimensionMismatchThrows) {
  CooMatrix coo(2, 3);
  coo.add(0, 0, 1.0f);
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  Matrix x(2, 2);  // needs 3 rows
  Matrix out;
  EXPECT_THROW(csr.spmm(x, out), std::invalid_argument);
}

TEST(Csr, SpmmBetaZeroReshapesOutputLikeGemm) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0f);
  coo.add(1, 1, 1.0f);
  const CsrMatrix identity = CsrMatrix::from_coo(coo);
  Matrix x(2, 3, 1.0f);
  // beta == 0 reshapes any output to the result shape, reusing its
  // allocation — same contract as gemm, so a workspace buffer can carry
  // across layers of different width.
  Matrix wrong(4, 7, 0.0f);
  const std::size_t cap = wrong.capacity();
  identity.spmm(x, wrong);
  EXPECT_EQ(wrong.rows(), 2u);
  EXPECT_EQ(wrong.cols(), 3u);
  EXPECT_EQ(wrong.capacity(), cap);  // shrink reuses the allocation
  expect_near(wrong, x);
  // A correctly-shaped output is reused: stale contents are overwritten.
  Matrix reused(2, 3, 99.0f);
  identity.spmm(x, reused);
  expect_near(reused, x);
  // An empty output is allocated to the result shape.
  Matrix fresh;
  identity.spmm(x, fresh);
  expect_near(fresh, x);
  // beta != 0 still validates: the output's existing values are inputs.
  Matrix accum(4, 7, 0.0f);
  EXPECT_THROW(identity.spmm(x, accum, 1.0f, 0.5f), std::invalid_argument);
}

/// Builds a pseudo-random sparse matrix with ~nnz entries.
CsrMatrix random_csr(std::size_t rows, std::size_t cols, std::size_t nnz,
                     Rng& rng) {
  CooMatrix coo(rows, cols);
  for (std::size_t k = 0; k < nnz; ++k) {
    coo.add(static_cast<std::uint32_t>(rng.below(rows)),
            static_cast<std::uint32_t>(rng.below(cols)),
            static_cast<float>(rng.uniform(-1.0, 1.0)));
  }
  return CsrMatrix::from_coo(coo);
}

TEST(Csr, SpmmBitwiseIdenticalAcrossTileWidths) {
  // SpMM over any column tile of the dense operand reproduces those
  // columns of the full product bitwise: each output element accumulates
  // its nonzeros in ascending-k order, and SIMD body lanes and the scalar
  // tail round identically, so a column's result never depends on which
  // lane or tail position it lands in.
  Rng rng(41);
  const CsrMatrix csr = random_csr(400, 300, 3000, rng);
  const Matrix x = random_matrix(300, 13, rng);  // odd width: ragged tail
  Matrix full;
  csr.spmm(x, full);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    set_kernel_threads(threads);
    for (const std::size_t tile : {std::size_t{1}, std::size_t{4},
                                   std::size_t{13}, std::size_t{64}}) {
      for (std::size_t c0 = 0; c0 < x.cols(); c0 += tile) {
        const std::size_t width = std::min(tile, x.cols() - c0);
        Matrix slice(x.rows(), width);
        for (std::size_t r = 0; r < x.rows(); ++r) {
          for (std::size_t c = 0; c < width; ++c) {
            slice.at(r, c) = x.at(r, c0 + c);
          }
        }
        Matrix tiled;
        csr.spmm(slice, tiled);
        for (std::size_t r = 0; r < tiled.rows(); ++r) {
          for (std::size_t c = 0; c < width; ++c) {
            ASSERT_EQ(tiled.at(r, c), full.at(r, c0 + c))  // bitwise
                << "tile=" << tile << " threads=" << threads << " at (" << r
                << ", " << c0 + c << ")";
          }
        }
      }
    }
  }
  set_kernel_threads(0);
}

TEST(Csr, SpmmBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(31);
  const CsrMatrix csr = random_csr(700, 500, 4000, rng);
  // Even and odd (ragged-tail) dense widths.
  for (const std::size_t width : {std::size_t{8}, std::size_t{13}}) {
    const Matrix x = random_matrix(500, width, rng);
    set_kernel_threads(1);
    Matrix serial;
    csr.spmm(x, serial);
    for (const std::size_t threads : {std::size_t{3}, std::size_t{8}}) {
      set_kernel_threads(threads);
      Matrix parallel;
      csr.spmm(x, parallel);
      EXPECT_EQ(serial, parallel)  // bitwise, not approximate
          << "width=" << width << " threads=" << threads;
    }
    set_kernel_threads(0);
  }
}

TEST(Matrix, GemmBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(37);
  for (const auto& [ta, tb] : {std::pair{false, false}, std::pair{true, false},
                               std::pair{false, true}}) {
    const Matrix a =
        ta ? random_matrix(90, 130, rng) : random_matrix(130, 90, rng);
    const Matrix b =
        tb ? random_matrix(110, 90, rng) : random_matrix(90, 110, rng);
    set_kernel_threads(1);
    Matrix serial;
    gemm(a, b, serial, ta, tb);
    set_kernel_threads(8);
    Matrix parallel;
    gemm(a, b, parallel, ta, tb);
    set_kernel_threads(0);
    EXPECT_EQ(serial, parallel) << "ta=" << ta << " tb=" << tb;
  }
}

TEST(Csr, TransposeRoundTrip) {
  Rng rng(13);
  CooMatrix coo(7, 4);
  for (int k = 0; k < 10; ++k) {
    coo.add(static_cast<std::uint32_t>(rng.below(7)),
            static_cast<std::uint32_t>(rng.below(4)),
            static_cast<float>(rng.uniform(-1.0, 1.0)));
  }
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  CsrMatrix t, tt;
  csr.transpose_into(t);
  t.transpose_into(tt);
  ASSERT_EQ(tt.rows(), csr.rows());
  ASSERT_EQ(tt.nnz(), csr.nnz());
  // Compare as dense.
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Matrix a, b;
  csr.spmm(eye, a);
  tt.spmm(eye, b);
  expect_near(a, b);
}

TEST(Csr, TransposeMatchesManual) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 5.0f);
  coo.add(1, 0, 7.0f);
  CsrMatrix t;
  CsrMatrix::from_coo(coo).transpose_into(t);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  Matrix x(2, 1);
  x.at(0, 0) = 1.0f;
  x.at(1, 0) = 1.0f;
  Matrix out;
  t.spmm(x, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 5.0f);
}

}  // namespace
}  // namespace gcnt
