#include "tensor/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/parallel.h"
#include "common/trace.h"
#include "tensor/simd/simd.h"

namespace gcnt {

namespace {
// Minimum size of the partitioned dimension before GEMM fans out to the
// kernel pool; below it the dispatch overhead dominates.
constexpr std::size_t kMinParallelDim = 64;

// Transpose-a schedule: output tile shape (a multiple of every target's
// gemm_tn register tile), the p-slab depth swept per tile pass, and the
// multiply-add count below which the product runs on the calling thread.
constexpr std::size_t kTnTileRows = 16;
constexpr std::size_t kTnTileCols = 64;
constexpr std::size_t kTnDepth = 256;
constexpr std::size_t kMinParallelMacs = std::size_t{1} << 18;

// Transpose-b schedule: a rows per dot_rows call — long enough to
// amortize dot_rows' pack of b, short enough that the ReLU mask finds
// them still in cache.
constexpr std::size_t kNtRowChunk = 512;

// No-transpose schedule: p-slab depth of one packed a block
// (kGemmRowBlock x kNnDepth floats, 16 KB, stays in L1).
constexpr std::size_t kNnDepth = 128;

/// c[r * ldc + j] += alpha * sum_p a[r * lda + p] * b[p][j] for
/// r < rows <= kGemmRowBlock: the one no-transpose kernel. Each kNnDepth
/// slab of the block is packed transposed and swept by gemm_tn, whose
/// per-element sequence (alpha * a, the exact zero-skip, one multiply-add
/// per p) is the row axpy's; slabs ascend, so every element still
/// accumulates in ascending-p order.
void gemm_nn_block(const float* a, std::size_t lda, std::size_t rows,
                   const Matrix& b, float alpha, const SimdOps& ops, float* c,
                   std::size_t ldc) {
  float packed[kGemmRowBlock * kNnDepth];
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  for (std::size_t p0 = 0; p0 < k; p0 += kNnDepth) {
    const std::size_t depth = std::min(kNnDepth, k - p0);
    for (std::size_t r = 0; r < rows; ++r) {
      const float* arow = a + r * lda + p0;
      for (std::size_t p = 0; p < depth; ++p) packed[p * rows + r] = arow[p];
    }
    ops.gemm_tn(c, ldc, packed, rows, b.row(p0), n, rows, n, depth, alpha);
  }
}
}  // namespace

void Matrix::xavier_init(Rng& rng) {
  const double bound =
      std::sqrt(6.0 / static_cast<double>(rows_ + cols_ + 1));
  for (float& w : data_) {
    w = static_cast<float>(rng.uniform(-bound, bound));
  }
}

void Matrix::axpy(float alpha, const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("axpy: shape mismatch");
  }
  simd_ops().axpy(data_.data(), other.data_.data(), alpha, data_.size());
}

void Matrix::scale(float alpha) noexcept {
  simd_ops().scale(data_.data(), alpha, data_.size());
}

float Matrix::dot(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("dot: shape mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    acc += static_cast<double>(data_[i]) * other.data_[i];
  }
  return static_cast<float>(acc);
}

void gemm(const Matrix& a, const Matrix& b, Matrix& out, bool transpose_a,
          bool transpose_b, float alpha, float beta) {
  GCNT_KERNEL_SCOPE("gemm");
  if (transpose_a && transpose_b) {
    throw std::invalid_argument("gemm: double transpose is not supported");
  }
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t k = transpose_a ? a.rows() : a.cols();
  const std::size_t kb = transpose_b ? b.cols() : b.rows();
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  if (k != kb) throw std::invalid_argument("gemm: inner dimension mismatch");
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("gemm: output aliases an input");
  }
  if (beta != 0.0f && (out.rows() != m || out.cols() != n)) {
    throw std::invalid_argument("gemm: output shape mismatch");
  }

  // Loop orders chosen so the innermost loop is always contiguous in the
  // matrix being streamed. The no-transpose-a variants partition output
  // rows across the kernel pool, the transpose-a variant output tiles;
  // either way each output element is accumulated by one block in fixed
  // ascending-p order (the uniform fp32 policy documented in matrix.h), so
  // results are bitwise identical for any thread count (see
  // common/parallel.h). The contiguous inner loops run on the dispatched
  // SIMD microkernels.
  const SimdOps& ops = simd_ops();
  if (!transpose_a && !transpose_b) {
    // Each row block is zeroed (or scaled by beta) just before the
    // kernel accumulates into it, while it is cache-hot.
    if (beta == 0.0f) out.resize_for_overwrite(m, n);
    parallel_blocks(m, kMinParallelDim, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; i += kGemmRowBlock) {
        const std::size_t rows = std::min(kGemmRowBlock, i1 - i);
        float* c = out.row(i);
        if (beta == 0.0f) {
          std::fill(c, c + rows * n, 0.0f);
        } else {
          ops.scale(c, beta, rows * n);
        }
        gemm_nn_block(a.row(i), k, rows, b, alpha, ops, c, n);
      }
    });
    return;
  }
  if (beta == 0.0f) {
    out.resize(m, n, 0.0f);
  } else {
    out.scale(beta);
  }

  if (transpose_a) {
    // Weight gradient (a is k x m, b is k x n): output tiles of
    // kTnTileRows x kTnTileCols, a contiguous run of tiles per block, each
    // tile swept by the gemm_tn microkernel one kTnDepth slab of p at a
    // time (the slab's a and b rows stay cache-resident across the run).
    // Slabs ascend and every tile has one owner, so each element still
    // accumulates in ascending-p order, independent of the thread count.
    const std::size_t col_tiles = (n + kTnTileCols - 1) / kTnTileCols;
    const std::size_t tiles = (m + kTnTileRows - 1) / kTnTileRows * col_tiles;
    const bool fan_out = m * n * k >= kMinParallelMacs;
    const BlockPlan plan = plan_blocks(tiles, fan_out ? 1 : tiles + 1);
    run_blocks(plan, [&](std::size_t, std::size_t t0, std::size_t t1) {
      for (std::size_t p0 = 0; p0 < k; p0 += kTnDepth) {
        const std::size_t depth = std::min(kTnDepth, k - p0);
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t i0 = t / col_tiles * kTnTileRows;
          const std::size_t j0 = t % col_tiles * kTnTileCols;
          ops.gemm_tn(out.row(i0) + j0, n, a.row(p0) + i0, m, b.row(p0) + j0,
                      n, std::min(kTnTileRows, m - i0),
                      std::min(kTnTileCols, n - j0), depth, alpha);
        }
      }
    });
  } else {
    // Input gradient (b is n x k): gemm_nt's dot products, added in.
    Matrix dots;
    gemm_nt(a, b, dots);
    float* o = out.data();
    const float* d = dots.data();
    for (std::size_t i = 0; i < out.size(); ++i) o[i] += alpha * d[i];
  }
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out,
             const Matrix* relu_out) {
  GCNT_KERNEL_SCOPE("gemm_nt");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  if (b.cols() != k) {
    throw std::invalid_argument("gemm_nt: inner dimension mismatch");
  }
  if (relu_out && (relu_out->rows() != m || relu_out->cols() != n)) {
    throw std::invalid_argument("gemm_nt: mask shape mismatch");
  }
  if (&out == &a || &out == &b || &out == relu_out) {
    throw std::invalid_argument("gemm_nt: output aliases an input");
  }
  out.resize_for_overwrite(m, n);
  const SimdOps& ops = simd_ops();
  parallel_blocks(m, kMinParallelDim, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t i0 = b0; i0 < b1; i0 += kNtRowChunk) {
      const std::size_t i1 = std::min(b1, i0 + kNtRowChunk);
      ops.dot_rows(out.row(i0), n, a.row(i0), k, i1 - i0, b.data(), k, k, n);
      if (relu_out) {
        for (std::size_t r = i0; r < i1; ++r) {
          relu_mask(relu_out->row(r), out.row(r), n);
        }
      }
    }
  });
}

void relu_mask(const float* __restrict y, float* __restrict g,
               std::size_t n) noexcept {
  // Fixed blocks of 8 give the vectorizer a unit it takes at -O2 (a
  // compare and an and per vector) instead of a branch per element.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t j = i; j < i + 8; ++j) g[j] = y[j] > 0.0f ? g[j] : 0.0f;
  }
  for (; i < n; ++i) g[i] = y[i] > 0.0f ? g[i] : 0.0f;
}

void accumulate_column_sums(const Matrix& m, Matrix& sums) {
  if (sums.rows() != 1 || sums.cols() != m.cols()) {
    throw std::invalid_argument("accumulate_column_sums: shape mismatch");
  }
  // gemm_tn against a one-row a of stride 0: every p adds 1 * m[p][j],
  // exact and never zero-skipped, so each element is the plain
  // ascending-row sum. kTnDepth-row slabs keep every column tile's rows
  // in cache.
  const float one = 1.0f;
  const SimdOps& ops = simd_ops();
  for (std::size_t p0 = 0; p0 < m.rows(); p0 += kTnDepth) {
    ops.gemm_tn(sums.data(), m.cols(), &one, 0, m.row(p0), m.cols(), 1,
                m.cols(), std::min(kTnDepth, m.rows() - p0), 1.0f);
  }
}

void gemm_bias_act(const Matrix& a, const Matrix& b, const Matrix& bias,
                   Matrix& out, bool relu) {
  GCNT_KERNEL_SCOPE("gemm_bias_act");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  if (k != b.rows()) {
    throw std::invalid_argument("gemm_bias_act: inner dimension mismatch");
  }
  if (bias.rows() != 1 || bias.cols() != n) {
    throw std::invalid_argument("gemm_bias_act: bias shape mismatch");
  }
  if (&out == &a || &out == &b || &out == &bias) {
    throw std::invalid_argument("gemm_bias_act: output aliases an input");
  }
  out.resize_for_overwrite(m, n);
  parallel_blocks(m, kMinParallelDim, [&](std::size_t i0, std::size_t i1) {
    gemm_bias_act_rows(a.row(i0), k, i1 - i0, b, bias, relu, out.row(i0), n);
  });
}

void gemm_bias_act_rows(const float* a, std::size_t lda, std::size_t rows,
                        const Matrix& b, const Matrix& bias, bool relu,
                        float* out, std::size_t ldo) {
  const SimdOps& ops = simd_ops();
  const std::size_t n = b.cols();
  const float* bias_row = bias.row(0);
  for (std::size_t r0 = 0; r0 < rows; r0 += kGemmRowBlock) {
    const std::size_t block = std::min(kGemmRowBlock, rows - r0);
    float* c = out + r0 * ldo;
    for (std::size_t r = 0; r < block; ++r) {
      std::fill(c + r * ldo, c + r * ldo + n, 0.0f);
    }
    gemm_nn_block(a + r0 * lda, lda, block, b, 1.0f, ops, c, ldo);
    // Epilogue while the block is still hot.
    for (std::size_t r = 0; r < block; ++r) {
      if (relu) {
        ops.bias_relu(c + r * ldo, bias_row, n);
      } else {
        ops.bias_add(c + r * ldo, bias_row, n);
      }
    }
  }
}

}  // namespace gcnt
