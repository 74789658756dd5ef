#pragma once
// Small row-vector helpers shared by the per-node inference engines
// (recursive baseline, GraphSAGE-style sampled baseline, OPI impact
// evaluation). Whole-graph paths use the Matrix kernels instead. The
// inner loops run on the same runtime-dispatched SIMD microkernels
// (tensor/simd/simd.h) as the Matrix kernels, so per-node and
// whole-graph engines always execute on the same target.

#include <algorithm>
#include <vector>

#include "nn/layers.h"
#include "tensor/simd/simd.h"

namespace gcnt {

/// out = in * W + b for one row: the bias first, then one axpy per
/// nonzero input. `out` holds layer.out_features() floats and must not
/// alias `in`.
inline void apply_linear_row(const Linear& layer, const float* in,
                             float* out) {
  const Matrix& w = layer.weight.value;
  const Matrix& b = layer.bias.value;
  const SimdOps& ops = simd_ops();
  std::copy(b.row(0), b.row(0) + w.cols(), out);
  for (std::size_t i = 0; i < w.rows(); ++i) {
    const float x = in[i];
    if (x == 0.0f) continue;
    ops.axpy(out, w.row(i), x, w.cols());
  }
}

/// row-vector * W + b on plain float vectors.
inline std::vector<float> apply_linear_row(const Linear& layer,
                                           const std::vector<float>& in) {
  std::vector<float> out(layer.out_features());
  apply_linear_row(layer, in.data(), out.data());
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
