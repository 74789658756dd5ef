#include "ml/mlp.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace gcnt {

Matrix MlpClassifier::standardize(const Matrix& x) const {
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* in = x.row(r);
    float* o = out.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      o[c] = (in[c] - mean_[c]) * inv_std_[c];
    }
  }
  return out;
}

Matrix MlpClassifier::forward(const Matrix& x, std::vector<Matrix>* inputs,
                              std::vector<Matrix>* activations) const {
  Matrix hidden = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (inputs) inputs->push_back(hidden);
    Matrix out;
    layers_[i].forward(hidden, out);
    if (i + 1 < layers_.size()) {
      Matrix activated;
      Relu::forward(out, activated);
      if (activations) activations->push_back(activated);
      hidden = std::move(activated);
    } else {
      hidden = std::move(out);
    }
  }
  return hidden;
}

void MlpClassifier::fit(const Matrix& x, const std::vector<std::int32_t>& y) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("MlpClassifier::fit: label count mismatch");
  }
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  mean_.assign(d, 0.0f);
  inv_std_.assign(d, 1.0f);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) mean_[c] += x.at(r, c);
  }
  for (float& m : mean_) m /= static_cast<float>(n);
  std::vector<double> var(d, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      const double delta = x.at(r, c) - mean_[c];
      var[c] += delta * delta;
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    const double stddev = std::sqrt(var[c] / static_cast<double>(n));
    inv_std_[c] = stddev > 1e-8 ? static_cast<float>(1.0 / stddev) : 0.0f;
  }

  Rng rng(options_.seed);
  layers_.clear();
  std::size_t in_dim = d;
  for (std::size_t dim : options_.hidden_dims) {
    layers_.emplace_back(in_dim, dim, rng);
    in_dim = dim;
  }
  layers_.emplace_back(in_dim, 2, rng);

  std::vector<Param*> params;
  for (Linear& layer : layers_) {
    for (Param* p : layer.params()) params.push_back(p);
  }
  AdamOptimizer optimizer(options_.learning_rate);
  const std::vector<float> class_weights{1.0f, 1.0f};
  const Matrix standardized_x = standardize(x);

  std::vector<std::uint32_t> index(n);
  for (std::uint32_t i = 0; i < n; ++i) index[i] = i;

  for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.shuffle(index);
    for (std::size_t start = 0; start < n; start += options_.batch_size) {
      const std::size_t end = std::min(n, start + options_.batch_size);
      // Gather the mini-batch.
      Matrix batch(end - start, d);
      std::vector<std::int32_t> batch_labels(end - start);
      for (std::size_t k = start; k < end; ++k) {
        const std::uint32_t r = index[k];
        for (std::size_t c = 0; c < d; ++c) {
          batch.at(k - start, c) = standardized_x.at(r, c);
        }
        batch_labels[k - start] = y[r];
      }

      std::vector<Matrix> inputs;
      std::vector<Matrix> activations;
      const Matrix logits = forward(batch, &inputs, &activations);
      Matrix dlogits;
      softmax_cross_entropy(logits, batch_labels, class_weights, nullptr,
                            dlogits);
      Matrix grad = std::move(dlogits);
      Matrix masked;
      for (std::size_t i = layers_.size(); i-- > 0;) {
        layers_[i].accumulate_grads(inputs[i], grad);
        // The first layer's input gradient would reach only the data.
        if (i == 0) break;
        layers_[i].input_grad(grad, masked, &activations[i - 1]);
        std::swap(grad, masked);
      }
      optimizer.step(params);
    }
  }
}

std::vector<std::int32_t> MlpClassifier::predict(const Matrix& x) const {
  const Matrix logits = forward(standardize(x), nullptr, nullptr);
  std::vector<std::int32_t> labels(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    labels[r] = logits.at(r, 1) > logits.at(r, 0) ? 1 : 0;
  }
  return labels;
}

}  // namespace gcnt
