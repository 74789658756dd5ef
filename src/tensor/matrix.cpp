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

// Transpose-b schedule: output elements per dot_rows call.
constexpr std::size_t kNtChunk = 64;
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

  if (beta == 0.0f) {
    out.resize(m, n, 0.0f);
  } else {
    if (out.rows() != m || out.cols() != n) {
      throw std::invalid_argument("gemm: output shape mismatch");
    }
    out.scale(beta);
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
    parallel_blocks(m, kMinParallelDim, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        const float* arow = a.row(i);
        float* orow = out.row(i);
        for (std::size_t p = 0; p < k; ++p) {
          const float av = alpha * arow[p];
          if (av == 0.0f) continue;
          ops.axpy(orow, b.row(p), av, n);
        }
      }
    });
  } else if (transpose_a && !transpose_b) {
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
    // Input gradient (b is n x k): each output element is one dot() of
    // an a row and a b row; dot_rows computes a chunk of them per call.
    parallel_blocks(m, kMinParallelDim, [&](std::size_t i0, std::size_t i1) {
      float dots[kNtChunk] = {};
      for (std::size_t i = i0; i < i1; ++i) {
        const float* arow = a.row(i);
        float* orow = out.row(i);
        for (std::size_t j0 = 0; j0 < n; j0 += kNtChunk) {
          const std::size_t cols = std::min(kNtChunk, n - j0);
          ops.dot_rows(dots, arow, b.row(j0), k, k, cols);
          for (std::size_t j = 0; j < cols; ++j) {
            orow[j0 + j] += alpha * dots[j];
          }
        }
      }
    });
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
  out.resize(m, n, 0.0f);
  const SimdOps& ops = simd_ops();
  const float* bias_row = bias.row(0);
  parallel_blocks(m, kMinParallelDim, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = a.row(i);
      float* orow = out.row(i);
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        ops.axpy(orow, b.row(p), av, n);
      }
      // Epilogue as soon as the row completes, while it is still hot.
      if (relu) {
        ops.bias_relu(orow, bias_row, n);
      } else {
        ops.bias_add(orow, bias_row, n);
      }
    }
  });
}

}  // namespace gcnt
