#include "nn/loss.h"

#include <cmath>
#include <stdexcept>

namespace gcnt {

namespace {

/// Numerically stable per-row softmax into `out` (may alias pre-sized).
void softmax_row(const float* logits, std::size_t c, float* out) {
  float max_logit = logits[0];
  for (std::size_t j = 1; j < c; ++j) max_logit = std::max(max_logit, logits[j]);
  double denom = 0.0;
  for (std::size_t j = 0; j < c; ++j) {
    out[j] = std::exp(logits[j] - max_logit);
    denom += out[j];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::size_t j = 0; j < c; ++j) out[j] *= inv;
}

/// Column 1 of softmax_row, bitwise, without a row buffer.
float positive_probability(const float* logits, std::size_t c) {
  float max_logit = logits[0];
  for (std::size_t j = 1; j < c; ++j) {
    max_logit = std::max(max_logit, logits[j]);
  }
  double denom = 0.0;
  for (std::size_t j = 0; j < c; ++j) denom += std::exp(logits[j] - max_logit);
  return std::exp(logits[1] - max_logit) * static_cast<float>(1.0 / denom);
}

}  // namespace

double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& labels,
                             const std::vector<float>& class_weights,
                             const std::vector<std::uint32_t>* rows,
                             Matrix& dlogits) {
  const std::size_t n = logits.rows();
  const std::size_t c = logits.cols();
  if (labels.size() != n) {
    throw std::invalid_argument("cross_entropy: labels size mismatch");
  }
  if (class_weights.size() != c) {
    throw std::invalid_argument("cross_entropy: class weight size mismatch");
  }

  dlogits.resize(n, c, 0.0f);
  std::vector<float> probs(c);

  double loss = 0.0;
  double weight_sum = 0.0;
  const std::size_t count = rows ? rows->size() : n;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t r = rows ? (*rows)[k] : k;
    const std::int32_t label = labels[r];
    const float w = class_weights[static_cast<std::size_t>(label)];
    softmax_row(logits.row(r), c, probs.data());
    const float p = std::max(probs[static_cast<std::size_t>(label)], 1e-12f);
    loss += static_cast<double>(w) * -std::log(static_cast<double>(p));
    weight_sum += w;
    float* drow = dlogits.row(r);
    for (std::size_t j = 0; j < c; ++j) {
      drow[j] = w * probs[j];
    }
    drow[static_cast<std::size_t>(label)] -= w;
  }
  if (weight_sum == 0.0) return 0.0;

  const float inv = static_cast<float>(1.0 / weight_sum);
  dlogits.scale(inv);
  return loss / weight_sum;
}

Matrix softmax(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    softmax_row(logits.row(r), logits.cols(), out.row(r));
  }
  return out;
}

std::vector<float> softmax_positive(const Matrix& logits) {
  if (logits.cols() < 2) throw std::invalid_argument("softmax_positive");
  std::vector<float> positive(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    positive[r] = positive_probability(logits.row(r), logits.cols());
  }
  return positive;
}

bool predicts_positive(const float* logits, std::size_t classes) {
  return positive_probability(logits, classes) >= 0.5f;
}

}  // namespace gcnt
