#pragma once
// Row-vector helpers of the per-node Fig. 10 baselines (recursive and
// GraphSAGE-style sampled inference); every other path, OPI impact
// evaluation included, runs GcnModel::layer_step. They run on the same
// runtime-dispatched SIMD microkernels (tensor/simd/simd.h) as it.

#include <vector>

#include "nn/layers.h"
#include "tensor/simd/simd.h"

namespace gcnt {

/// row-vector * W + b on plain float vectors: the bias first, then one
/// axpy per nonzero input.
inline std::vector<float> apply_linear_row(const Linear& layer,
                                           const std::vector<float>& in) {
  const Matrix& w = layer.weight.value;
  const Matrix& b = layer.bias.value;
  const SimdOps& ops = simd_ops();
  std::vector<float> out(b.row(0), b.row(0) + w.cols());
  for (std::size_t i = 0; i < w.rows(); ++i) {
    if (in[i] == 0.0f) continue;
    ops.axpy(out.data(), w.row(i), in[i], w.cols());
  }
  return out;
}

inline void relu_row(std::vector<float>& v) {
  simd_ops().relu(v.data(), v.size());
}

inline void axpy_row(std::vector<float>& acc, float alpha,
                     const std::vector<float>& x) {
  simd_ops().axpy(acc.data(), x.data(), alpha, acc.size());
}

/// Applies a model's FC head to a single embedding row.
inline std::vector<float> fc_head_row(const std::vector<Linear>& fc,
                                      std::vector<float> h) {
  for (std::size_t i = 0; i < fc.size(); ++i) {
    h = apply_linear_row(fc[i], h);
    if (i + 1 < fc.size()) relu_row(h);
  }
  return h;
}

}  // namespace gcnt
