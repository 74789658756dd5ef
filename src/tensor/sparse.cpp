#include "tensor/sparse.h"

#include <stdexcept>
#include <string>

#include "common/debug_assert.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "tensor/simd/simd.h"

namespace gcnt {

namespace {

// Below these sizes the pool dispatch overhead exceeds the kernel cost and
// the work runs inline on the calling thread.
constexpr std::size_t kMinParallelRows = 128;
constexpr std::size_t kMinParallelNnz = 1 << 15;

/// Parallel occurrence count: counts[i + 1] = #occurrences of i in `index`.
/// Per-block histograms reduced in fixed block order keep the result (and
/// integer sums make it trivially) identical for any thread count.
void count_occurrences(const std::vector<std::uint32_t>& index,
                       std::vector<std::uint32_t>& counts) {
  const BlockPlan plan = plan_blocks(index.size(), kMinParallelNnz);
  if (plan.count <= 1) {
    for (std::uint32_t i : index) {
      GCNT_DEBUG_ASSERT(i + 1 < counts.size(),
                        "count_occurrences: index out of range");
      ++counts[i + 1];
    }
    return;
  }
  std::vector<std::vector<std::uint32_t>> local(plan.count);
  run_blocks(plan, [&](std::size_t block, std::size_t begin, std::size_t end) {
    auto& histogram = local[block];
    histogram.assign(counts.size(), 0);
    for (std::size_t k = begin; k < end; ++k) {
      GCNT_DEBUG_ASSERT(index[k] + 1 < counts.size(),
                        "count_occurrences: index out of range");
      ++histogram[index[k] + 1];
    }
  });
  parallel_blocks(counts.size(), kMinParallelRows,
                  [&](std::size_t begin, std::size_t end) {
                    for (const auto& histogram : local) {
                      for (std::size_t i = begin; i < end; ++i) {
                        counts[i] += histogram[i];
                      }
                    }
                  });
}

/// The CSR index arrays (row_ptr, col_index, per-row cursors) are
/// 32-bit. Anything that must be representable as an index — row ids,
/// column ids, nonzero offsets — is checked through here so a graph
/// beyond the index width raises a typed resource error instead of
/// wrapping. 0xFFFFFFFF itself is excluded: row_ptr holds nnz as its
/// last entry and BFS-style consumers reserve it as a sentinel.
std::uint32_t checked_index32(std::size_t value, const char* what) {
  if (value >= 0xFFFFFFFFull) {
    throw Error(ErrorKind::kResource,
                std::string(what) + " exceeds 32-bit sparse index range (" +
                    std::to_string(value) + ")");
  }
  return static_cast<std::uint32_t>(value);
}

/// from_parts()' checks; refill() runs them too, with the same messages.
void check_parts(std::size_t rows, std::size_t cols,
                 std::span<const std::uint32_t> row_ptr,
                 std::span<const std::uint32_t> col_index, std::size_t nnz) {
  checked_index32(rows, "CsrMatrix::from_parts: row count");
  checked_index32(cols, "CsrMatrix::from_parts: column count");
  checked_index32(nnz, "CsrMatrix::from_parts: nonzero count");
  const auto fail = [](const char* what) {
    throw Error(ErrorKind::kInternal,
                std::string("CsrMatrix::from_parts: ") + what);
  };
  if (row_ptr.size() != rows + 1) fail("row_ptr size mismatch");
  if (row_ptr.front() != 0) fail("row_ptr must start at 0");
  if (col_index.size() != nnz) fail("col_index/values mismatch");
  if (row_ptr.back() != nnz) fail("row_ptr end != nnz");
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) fail("row_ptr not monotone");
  }
  for (const std::uint32_t c : col_index) {
    if (c >= cols) fail("column index out of range");
  }
}

}  // namespace

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  GCNT_KERNEL_SCOPE("csr_build");
  // Checked narrowing before any allocation: past ~2^32 nonzeros the
  // 32-bit row_ptr / per-row cursors would wrap (and a 2^32-row shape
  // would allocate terabytes of row_ptr first).
  checked_index32(coo.rows, "CsrMatrix::from_coo: row count");
  checked_index32(coo.cols, "CsrMatrix::from_coo: column count");
  checked_index32(coo.nnz(), "CsrMatrix::from_coo: nonzero count");
  CsrMatrix csr;
  csr.rows_ = coo.rows;
  csr.cols_ = coo.cols;
  csr.row_ptr_.assign(coo.rows + 1, 0);

  count_occurrences(coo.row_index, csr.row_ptr_);
  for (std::size_t r = 0; r < coo.rows; ++r) {
    csr.row_ptr_[r + 1] += csr.row_ptr_[r];
  }

  // Scatter entries into row buckets (serial: the per-row cursors make the
  // insertion order part of the duplicate-merge contract below).
  std::vector<std::uint32_t> cursor(csr.row_ptr_.begin(),
                                    csr.row_ptr_.end() - 1);
  csr.col_index_.assign(coo.nnz(), 0);
  csr.values_.assign(coo.nnz(), 0.0f);
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    const std::uint32_t slot = cursor[coo.row_index[k]]++;
    csr.col_index_[slot] = coo.col_index[k];
    csr.values_[slot] = coo.values[k];
  }

  // Merge duplicate columns within each row (sorting by insertion-stable
  // counting per row keeps this O(nnz + cols) without a comparator sort).
  std::vector<std::uint32_t> merged_cols;
  std::vector<float> merged_vals;
  merged_cols.reserve(csr.col_index_.size());
  merged_vals.reserve(csr.values_.size());
  std::vector<std::uint32_t> new_row_ptr(csr.rows_ + 1, 0);
  std::vector<std::int64_t> seen_at(csr.cols_, -1);
  for (std::size_t r = 0; r < csr.rows_; ++r) {
    const std::size_t begin = csr.row_ptr_[r];
    const std::size_t end = csr.row_ptr_[r + 1];
    const std::size_t out_begin = merged_cols.size();
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t c = csr.col_index_[k];
      if (seen_at[c] >= static_cast<std::int64_t>(out_begin)) {
        merged_vals[static_cast<std::size_t>(seen_at[c])] += csr.values_[k];
      } else {
        seen_at[c] = static_cast<std::int64_t>(merged_cols.size());
        merged_cols.push_back(c);
        merged_vals.push_back(csr.values_[k]);
      }
    }
    new_row_ptr[r + 1] = static_cast<std::uint32_t>(merged_cols.size());
  }
  csr.col_index_ = std::move(merged_cols);
  csr.values_ = std::move(merged_vals);
  csr.row_ptr_ = std::move(new_row_ptr);
  return csr;
}

void CsrMatrix::spmm(const Matrix& dense, Matrix& out, float alpha,
                     float beta) const {
  GCNT_KERNEL_SCOPE("spmm");
  if (dense.rows() != cols_) {
    throw std::invalid_argument("spmm: dimension mismatch");
  }
  const std::size_t n = dense.cols();
  if (beta == 0.0f) {
    // Like gemm: beta == 0 always reshapes (reusing capacity), so a
    // workspace buffer can be fed back across layers of different width.
    out.resize(rows_, n, 0.0f);
  } else {
    if (out.rows() != rows_ || out.cols() != n) {
      throw std::invalid_argument("spmm: output shape mismatch");
    }
    out.scale(beta);
  }
  // Row-blocked across the kernel pool: each output row is produced by
  // exactly one block, so the result is bitwise identical for any thread
  // count.
  const SimdOps& ops = simd_ops();
  parallel_blocks(rows_, kMinParallelRows,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t r = begin; r < end; ++r) {
                      accumulate_row(r, dense, alpha, ops, out.row(r));
                    }
                  });
}

void CsrMatrix::accumulate_row(std::size_t r, const Matrix& dense,
                               float alpha, const SimdOps& ops,
                               float* orow) const {
  const std::size_t n = dense.cols();
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
    GCNT_DEBUG_ASSERT(col_index_[k] < cols_, "spmm: column index out of range");
    ops.axpy(orow, dense.row(col_index_[k]), alpha * values_[k], n);
  }
}

CsrMatrix CsrMatrix::from_parts(std::size_t rows, std::size_t cols,
                                std::vector<std::uint32_t> row_ptr,
                                std::vector<std::uint32_t> col_index,
                                std::vector<float> values) {
  check_parts(rows, cols, row_ptr, col_index, values.size());
  CsrMatrix csr;
  csr.rows_ = rows;
  csr.cols_ = cols;
  csr.row_ptr_ = std::move(row_ptr);
  csr.col_index_ = std::move(col_index);
  csr.values_ = std::move(values);
  return csr;
}

void CsrMatrix::refill(std::size_t rows, std::size_t cols,
                       std::span<const std::uint32_t> row_ptr,
                       std::span<const std::uint32_t> col_index,
                       std::span<const float> values) {
  check_parts(rows, cols, row_ptr, col_index, values.size());
  rows_ = rows;
  cols_ = cols;
  row_ptr_.assign(row_ptr.begin(), row_ptr.end());
  col_index_.assign(col_index.begin(), col_index.end());
  values_.assign(values.begin(), values.end());
}

void CsrMatrix::reserve(std::size_t rows, std::size_t nnz) {
  row_ptr_.reserve(rows + 1);
  col_index_.reserve(nnz);
  values_.reserve(nnz);
}

void CsrMatrix::transpose_into(CsrMatrix& t) const {
  GCNT_KERNEL_SCOPE("csr_transpose");
  if (&t == this) {
    throw std::invalid_argument("transpose_into: output aliases input");
  }
  checked_index32(rows_, "CsrMatrix::transpose: row count");
  checked_index32(cols_, "CsrMatrix::transpose: column count");
  checked_index32(nnz(), "CsrMatrix::transpose: nonzero count");
  t.rows_ = cols_;
  t.cols_ = rows_;
  // Counting sort by column. row_ptr doubles as the scatter cursor: after
  // the scatter, entry c holds the end of row c, and one shift restores
  // the starts — no cursor array to allocate.
  std::vector<std::uint32_t>& ptr = t.row_ptr_;
  ptr.assign(cols_ + 1, 0);
  for (const std::uint32_t c : col_index_) ++ptr[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) ptr[c + 1] += ptr[c];
  t.col_index_.resize(nnz());
  t.values_.resize(nnz());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::uint32_t slot = ptr[col_index_[k]]++;
      t.col_index_[slot] = static_cast<std::uint32_t>(r);
      t.values_[slot] = values_[k];
    }
  }
  for (std::size_t c = cols_; c > 0; --c) ptr[c] = ptr[c - 1];
  ptr[0] = 0;
}

}  // namespace gcnt
