#pragma once
// Neural-network building blocks with explicit forward/backward methods.
//
// There is deliberately no general autograd: each module knows its own
// gradient, the models compose them in reverse order, and the tests verify
// every module against finite differences. Parameters pair a value with an
// accumulated gradient so multiple graphs can contribute before a step
// (the paper's multi-device gradient averaging).
//
// Linear's backward comes in two halves so the models can schedule them:
// accumulate_grads (dW, db; each a reduction over all rows) and
// input_grad (dx in row blocks on the kernel pool, with the ReLU mask of
// the layer below fused in). Both keep the bits of the whole-matrix
// gemm / column-sum / Relu::backward sequence at any thread count.

#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace gcnt {

/// A trainable tensor: value + accumulated gradient of matching shape.
struct Param {
  Matrix value;
  Matrix grad;

  explicit Param(std::size_t rows = 0, std::size_t cols = 0)
      : value(rows, cols), grad(rows, cols) {}

  void zero_grad() noexcept { grad.fill(0.0f); }
};

/// Fully-connected layer: y = x * W + b, with x of shape N x in.
class Linear {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  std::size_t in_features() const noexcept { return weight.value.rows(); }
  std::size_t out_features() const noexcept { return weight.value.cols(); }

  void forward(const Matrix& x, Matrix& y) const;

  /// Fused y = ReLU(x * W + b) in one output pass (gemm_bias_act).
  /// Bitwise identical to forward() followed by Relu::forward(); pairs
  /// with Relu::backward, which masks on the forward *output*.
  void forward_relu(const Matrix& x, Matrix& y) const;

  /// Accumulates dW/db from (x, dy) and writes dx: accumulate_grads then
  /// input_grad. `dx` may alias nothing.
  void backward(const Matrix& x, const Matrix& dy, Matrix& dx);

  /// dW += x^T * dy (gemm's transpose-a tiles on the kernel pool) and
  /// db += the column sums of dy (accumulate_column_sums). Each element
  /// accumulates over the rows in ascending order, so the gradients are
  /// bitwise identical for any thread count.
  void accumulate_grads(const Matrix& x, const Matrix& dy);

  /// dx = dy * W^T through gemm_nt, bitwise gemm(dy, W, dx, false, true).
  /// A non-null `relu_out` also applies Relu::backward's mask to each
  /// kernel-pool row chunk right after it is written:
  /// dx = relu_out > 0 ? dy * W^T : 0. `dx` may alias neither input; it
  /// is resized without a fill, so a reused buffer allocates nothing.
  void input_grad(const Matrix& dy, Matrix& dx,
                  const Matrix* relu_out = nullptr) const;

  /// Parameters in a stable order (weight, bias).
  std::vector<Param*> params() { return {&weight, &bias}; }

  Param weight;  ///< in x out
  Param bias;    ///< 1 x out
};

/// Rectified linear unit, elementwise.
struct Relu {
  static void forward(const Matrix& x, Matrix& y);
  /// dx = dy where y > 0 (uses the forward output as the mask): a copy
  /// of dy, then relu_mask. `dx` may be `dy` but not `y`.
  static void backward(const Matrix& y, const Matrix& dy, Matrix& dx);
};

}  // namespace gcnt
