#pragma once
// Dense row-major float32 matrix with the handful of BLAS-like operations
// the GCN and the classical baselines need. Deliberately small: this is an
// owning value type with explicit, allocation-free compute kernels.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/debug_assert.h"
#include "common/rng.h"

namespace gcnt {

namespace matrix_detail {
/// std::allocator whose value-initializing construct() — the one
/// vector::resize(n) calls — leaves the element uninitialized, so
/// Matrix::resize_for_overwrite never writes the elements it adds: the
/// kernels that overwrite them first-touch the pages on the kernel pool
/// instead of one thread zero-filling them up front.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
}  // namespace matrix_detail

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) noexcept {
    GCNT_DEBUG_ASSERT(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    GCNT_DEBUG_ASSERT(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }
  float* row(std::size_t r) noexcept {
    GCNT_DEBUG_ASSERT(r < rows_, "Matrix::row out of range");
    return data_.data() + r * cols_;
  }
  const float* row(std::size_t r) const noexcept {
    GCNT_DEBUG_ASSERT(r < rows_, "Matrix::row out of range");
    return data_.data() + r * cols_;
  }
  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  void fill(float value) noexcept {
    std::fill(data_.begin(), data_.end(), value);
  }
  /// Reshapes and fills. Reuses the existing allocation when the new
  /// element count fits in capacity() — the ForwardWorkspace zero-alloc
  /// contract relies on this.
  void resize(std::size_t rows, std::size_t cols, float fill = 0.0f) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  /// Reshapes without writing any element (unlike resize(), which
  /// refills everything): contents afterwards are unspecified, and a
  /// growth past capacity() neither copies the old elements nor zeroes
  /// the new ones. Callers must overwrite every element before reading
  /// it — spmm_q8, the no-transpose GEMM and the fused GCN layer step use
  /// this to initialize each output block right before accumulating into
  /// it, while it is cache-hot, on the thread that owns the block.
  void resize_for_overwrite(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    if (rows * cols > data_.capacity()) data_.clear();
    data_.resize(rows * cols);
  }

  /// Grows to `rows` rows, keeping every existing row; the new rows are
  /// zero. Capacity grows geometrically, so appending rows one at a time
  /// (an OP's feature row) costs amortized O(cols) per row; the slack past
  /// size() is allocated but never written.
  void grow_rows(std::size_t rows) {
    data_.resize(rows * cols_, 0.0f);
    rows_ = rows;
  }

  /// Allocated element capacity (>= size()).
  std::size_t capacity() const noexcept { return data_.capacity(); }
  /// Grows capacity to at least `elements` without changing the shape.
  void reserve(std::size_t elements) { data_.reserve(elements); }

  /// Becomes a copy of `other`, reusing this matrix's allocation when it
  /// is large enough (operator= may reallocate; this never shrinks).
  void copy_from(const Matrix& other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_.assign(other.data_.begin(), other.data_.end());
  }

  /// Xavier/Glorot uniform initialization (for layer weights).
  void xavier_init(Rng& rng);

  /// this += alpha * other (shapes must match).
  void axpy(float alpha, const Matrix& other);
  /// this *= alpha.
  void scale(float alpha) noexcept;

  /// Frobenius-style elementwise dot product: sum(this .* other).
  float dot(const Matrix& other) const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float, matrix_detail::DefaultInitAllocator<float>> data_;
};

/// out = alpha * op(a) * op(b) + beta * out, with op = optional transpose
/// of at most one operand (a double transpose throws
/// std::invalid_argument, like the shape errors). `out` is resized to the
/// result shape when beta == 0. `out` must be neither `a` nor `b`
/// (std::invalid_argument): it is written before the operands are read.
///
/// Accumulation policy (uniform across all three transpose variants):
/// every output element accumulates its k products in float32, in fixed
/// ascending-p order, through the runtime-dispatched SIMD microkernels
/// (tensor/simd/simd.h). The row-update variants fold alpha into the
/// streamed a-element and skip a product whose alpha * a is zero; the
/// inner-product variant (!transpose_a && transpose_b) applies alpha to
/// the completed dot product — at alpha == 1 all variants are bitwise
/// identical on the scalar target. The variants differ only in schedule:
/// no-transpose kGemmRowBlock-row blocks, each packed transposed and swept
/// by the register-blocked gemm_tn kernel; transpose-a-only (the weight
/// gradient) 16 x 64 output tiles per block, each swept by gemm_tn in
/// 256-deep p slabs; transpose-b-only (the input gradient) gemm_nt's
/// dot products, scaled by alpha and added in.
/// None of them changes an element's operation sequence, so for a fixed
/// dispatch target results are bitwise identical across thread counts;
/// across targets (scalar vs avx2/avx512) they differ only by FMA
/// contraction / dot-product lane blocking, within the tolerance
/// documented in docs/API.md ("SIMD backend").
void gemm(const Matrix& a, const Matrix& b, Matrix& out, bool transpose_a,
          bool transpose_b, float alpha = 1.0f, float beta = 0.0f);

/// out = a * b^T (a is m x k, b is n x k: the input gradient dy * W^T),
/// each element one dot() of an a row and a b row — bitwise gemm(a, b,
/// out, false, true). Kernel-pool row blocks, up to 512 a rows per
/// dot_rows call. A non-null `relu_out` (m x n) masks each call's rows
/// right after they are written: out = relu_out > 0 ? a * b^T : 0 (the
/// ReLU backward of the layer below). `out` is resized without a fill,
/// so a reused buffer allocates nothing; it must be none of the inputs
/// (std::invalid_argument).
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out,
             const Matrix* relu_out = nullptr);

/// The ReLU backward mask in place on raw rows: g[i] = y[i] > 0 ? g[i] : 0
/// with y the forward output. `y` and `g` must not overlap; that lets the
/// select vectorize instead of branching on every sign.
void relu_mask(const float* __restrict y, float* __restrict g,
               std::size_t n) noexcept;

/// sums[0][j] += m[0][j] + m[1][j] + ... in ascending row order, one
/// float add per row (the bias gradient of a dense layer). Serial
/// gemm_tn sweeps down 256-row slabs, accumulators in registers.
void accumulate_column_sums(const Matrix& m, Matrix& sums);

/// Fused dense layer: out = act(a * b + bias), with bias a 1 x n row
/// broadcast over output rows and act = ReLU when `relu` (identity
/// otherwise). Runs the no-transpose gemm kernel one row block at a time
/// and applies the epilogue to each block while it is cache-hot — one
/// pass over the output instead of three (gemm write, bias pass, ReLU
/// pass) — with the exact same per-element operation sequence, so the
/// result is bitwise identical to gemm + bias add + Relu::forward.
/// `out` must be none of the inputs (std::invalid_argument).
void gemm_bias_act(const Matrix& a, const Matrix& b, const Matrix& bias,
                   Matrix& out, bool relu);

/// Rows per block of the no-transpose GEMM kernel: the block of a is
/// packed transposed into an L1-sized scratch before gemm_tn sweeps it.
inline constexpr std::size_t kGemmRowBlock = 32;

/// gemm_bias_act on raw rows: for r < rows,
///   out[r * ldo + j] = act(sum_p a[r * lda + p] * b[p][j] + bias[j]),
/// with a's row length b.rows() and out's row length b.cols(). Each row
/// is bitwise identical to the row gemm_bias_act produces for the same
/// input, on every target. Serial, kGemmRowBlock rows at a time:
/// gemm_bias_act runs it once per kernel-pool block, the fused GCN layer
/// step and FC head on row blocks they hold in scratch. `out` must not
/// overlap `a`.
void gemm_bias_act_rows(const float* a, std::size_t lda, std::size_t rows,
                        const Matrix& b, const Matrix& bias, bool relu,
                        float* out, std::size_t ldo);

}  // namespace gcnt
