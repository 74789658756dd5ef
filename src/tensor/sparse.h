#pragma once
// Sparse matrices: incremental COO for construction/graph edits and CSR
// for compute (SpMM).
//
// This is the core of the paper's "high performance" claim (Section 3.4):
// the whole-graph aggregation G_d = A * E_{d-1} becomes one sparse-dense
// multiplication, and inserting an observation point is a few appended
// nonzeros instead of a matrix rebuild.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace gcnt {

struct SimdOps;

/// Coordinate-format sparse matrix; supports O(1) appends.
struct CooMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> row_index;
  std::vector<std::uint32_t> col_index;
  std::vector<float> values;

  CooMatrix() = default;
  CooMatrix(std::size_t r, std::size_t c) : rows(r), cols(c) {}

  std::size_t nnz() const noexcept { return values.size(); }

  /// Appends one (value, row, col) tuple; grows the shape if needed.
  void add(std::uint32_t r, std::uint32_t c, float value) {
    if (r >= rows) rows = r + 1;
    if (c >= cols) cols = c + 1;
    row_index.push_back(r);
    col_index.push_back(c);
    values.push_back(value);
  }

  /// Fraction of zero entries (the paper reports > 99.95% for its designs).
  double sparsity() const noexcept {
    const double total = static_cast<double>(rows) * static_cast<double>(cols);
    return total == 0.0 ? 1.0 : 1.0 - static_cast<double>(nnz()) / total;
  }
};

/// Compressed sparse row matrix (read-only compute form).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from COO; duplicate coordinates are summed. The index arrays
  /// are 32-bit, so shapes or nonzero counts that cannot be narrowed
  /// (>= 2^32 - 1) throw Error{kResource} up front — a graph past the
  /// index width fails loudly instead of wrapping silently.
  static CsrMatrix from_coo(const CooMatrix& coo);

  /// Builds directly from validated CSR arrays (moved in): row_ptr must
  /// be monotone with row_ptr[0] == 0 and rows+1 entries, col_index and
  /// values equally long with every column < cols. Used where the rows
  /// are already known in order — the GCN adjacency filled straight from
  /// the netlist, and the sharded engine's per-shard sub-matrices carved
  /// out of a global CSR — so each row's nonzero order is kept exactly.
  /// Throws Error{kInternal} on any inconsistency.
  static CsrMatrix from_parts(std::size_t rows, std::size_t cols,
                              std::vector<std::uint32_t> row_ptr,
                              std::vector<std::uint32_t> col_index,
                              std::vector<float> values);

  /// from_parts() into this matrix, copying the arrays into its own: the
  /// same checks (the matrix is unchanged when they throw), and no heap
  /// allocation once the matrix has held, or reserved, parts this large.
  void refill(std::size_t rows, std::size_t cols,
              std::span<const std::uint32_t> row_ptr,
              std::span<const std::uint32_t> col_index,
              std::span<const float> values);
  /// Room for refill() with up to `rows` rows and `nnz` nonzeros.
  void reserve(std::size_t rows, std::size_t nnz);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  const std::vector<std::uint32_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  const std::vector<std::uint32_t>& col_index() const noexcept {
    return col_index_;
  }
  const std::vector<float>& values() const noexcept { return values_; }

  /// out = this * dense (+ beta * out). dense.rows() must equal cols().
  /// Rows are split into kernel-pool blocks; every output element
  /// accumulates its nonzeros in ascending-k order, so the result is
  /// bitwise identical for any thread count.
  void spmm(const Matrix& dense, Matrix& out, float alpha = 1.0f,
            float beta = 0.0f) const;

  /// Structural transpose (values preserved) into `out`; each row of the
  /// result lists its nonzeros in ascending column order. Reuses `out`'s
  /// arrays: no heap allocation once it has held a transpose at least
  /// this large. `out` must not be this matrix.
  void transpose_into(CsrMatrix& out) const;

  /// Allocated elements across the three index/value arrays (grows only
  /// when one of them reallocates).
  std::size_t capacity() const noexcept {
    return row_ptr_.capacity() + col_index_.capacity() + values_.capacity();
  }

  /// orow += alpha * this.row(r) * dense, nonzeros in ascending-k order:
  /// the one row kernel behind spmm() and the fused GCN layer step
  /// (GcnModel::layer_step, whole graph or a row list), so a row it
  /// produces into zeroed memory is bitwise the spmm() row. Unchecked:
  /// r < rows() and dense.rows() == cols() are the caller's to ensure.
  void accumulate_row(std::size_t r, const Matrix& dense, float alpha,
                      const SimdOps& ops, float* orow) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_index_;
  std::vector<float> values_;
};

}  // namespace gcnt
