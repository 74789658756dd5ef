#include "nn/layers.h"

#include <stdexcept>

namespace gcnt {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : weight(in_features, out_features), bias(1, out_features) {
  weight.value.xavier_init(rng);
  bias.value.fill(0.0f);
}

void Linear::forward(const Matrix& x, Matrix& y) const {
  gemm_bias_act(x, weight.value, bias.value, y, /*relu=*/false);
}

void Linear::forward_relu(const Matrix& x, Matrix& y) const {
  gemm_bias_act(x, weight.value, bias.value, y, /*relu=*/true);
}

void Linear::backward(const Matrix& x, const Matrix& dy, Matrix& dx) {
  accumulate_grads(x, dy);
  input_grad(dy, dx);
}

void Linear::accumulate_grads(const Matrix& x, const Matrix& dy) {
  if (x.rows() != dy.rows()) {
    throw std::invalid_argument("Linear::backward: batch mismatch");
  }
  gemm(x, dy, weight.grad, true, false, 1.0f, 1.0f);
  accumulate_column_sums(dy, bias.grad);
}

void Linear::input_grad(const Matrix& dy, Matrix& dx,
                        const Matrix* relu_out) const {
  if (dy.cols() != out_features()) {
    throw std::invalid_argument("Linear::input_grad: width mismatch");
  }
  gemm_nt(dy, weight.value, dx, relu_out);
}

void Relu::forward(const Matrix& x, Matrix& y) {
  y.resize(x.rows(), x.cols());
  const float* in = x.data();
  float* out = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  }
}

void Relu::backward(const Matrix& y, const Matrix& dy, Matrix& dx) {
  if (dy.rows() != y.rows() || dy.cols() != y.cols()) {
    throw std::invalid_argument("Relu::backward: shape mismatch");
  }
  if (&dx == &y) {
    throw std::invalid_argument("Relu::backward: dx aliases y");
  }
  dx = dy;
  relu_mask(y.data(), dx.data(), dx.size());
}

}  // namespace gcnt
