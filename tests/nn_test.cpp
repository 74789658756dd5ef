// NN modules: finite-difference gradient checks and optimizer behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace gcnt {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

/// Scalar "loss" = sum of all entries of the layer output (so dL/dy = 1).
double linear_output_sum(const Linear& layer, const Matrix& x) {
  Matrix y;
  layer.forward(x, y);
  double acc = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) acc += y.data()[i];
  return acc;
}

TEST(Linear, ForwardMatchesManual) {
  Rng rng(3);
  Linear layer(2, 2, rng);
  layer.weight.value.at(0, 0) = 1.0f;
  layer.weight.value.at(0, 1) = 2.0f;
  layer.weight.value.at(1, 0) = 3.0f;
  layer.weight.value.at(1, 1) = 4.0f;
  layer.bias.value.at(0, 0) = 0.5f;
  layer.bias.value.at(0, 1) = -0.5f;
  Matrix x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  Matrix y;
  layer.forward(x, y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.0f + 6.0f + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f + 8.0f - 0.5f);
}

TEST(Linear, WeightGradientMatchesFiniteDifference) {
  Rng rng(17);
  Linear layer(3, 2, rng);
  const Matrix x = random_matrix(4, 3, rng);

  Matrix y;
  layer.forward(x, y);
  Matrix dy(y.rows(), y.cols(), 1.0f);
  Matrix dx;
  layer.backward(x, dy, dx);

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      const float saved = layer.weight.value.at(r, c);
      layer.weight.value.at(r, c) = saved + eps;
      const double up = linear_output_sum(layer, x);
      layer.weight.value.at(r, c) = saved - eps;
      const double down = linear_output_sum(layer, x);
      layer.weight.value.at(r, c) = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(layer.weight.grad.at(r, c), numeric, 1e-2)
          << "weight (" << r << "," << c << ")";
    }
  }
}

TEST(Linear, InputGradientMatchesFiniteDifference) {
  Rng rng(19);
  Linear layer(3, 2, rng);
  Matrix x = random_matrix(2, 3, rng);
  Matrix y;
  layer.forward(x, y);
  Matrix dy(y.rows(), y.cols(), 1.0f);
  Matrix dx;
  layer.backward(x, dy, dx);

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const float saved = x.at(r, c);
      x.at(r, c) = saved + eps;
      const double up = linear_output_sum(layer, x);
      x.at(r, c) = saved - eps;
      const double down = linear_output_sum(layer, x);
      x.at(r, c) = saved;
      EXPECT_NEAR(dx.at(r, c), (up - down) / (2.0 * eps), 1e-2);
    }
  }
}

TEST(Linear, BiasGradientIsColumnSum) {
  Rng rng(23);
  Linear layer(2, 3, rng);
  const Matrix x = random_matrix(5, 2, rng);
  Matrix y;
  layer.forward(x, y);
  Matrix dy = random_matrix(5, 3, rng);
  Matrix dx;
  layer.backward(x, dy, dx);
  for (std::size_t c = 0; c < 3; ++c) {
    float want = 0.0f;
    for (std::size_t r = 0; r < 5; ++r) want += dy.at(r, c);
    EXPECT_NEAR(layer.bias.grad.at(0, c), want, 1e-5f);
  }
}

TEST(Linear, GradientsAccumulateAcrossCalls) {
  Rng rng(29);
  Linear layer(2, 2, rng);
  const Matrix x = random_matrix(3, 2, rng);
  Matrix y;
  layer.forward(x, y);
  Matrix dy(3, 2, 1.0f);
  Matrix dx;
  layer.backward(x, dy, dx);
  const float once = layer.weight.grad.at(0, 0);
  layer.backward(x, dy, dx);
  EXPECT_NEAR(layer.weight.grad.at(0, 0), 2.0f * once, 1e-5f);
}

TEST(Relu, ForwardClampsNegatives) {
  Matrix x(1, 4);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 0.0f;
  x.at(0, 2) = 2.0f;
  x.at(0, 3) = -0.5f;
  Matrix y;
  Relu::forward(x, y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 0.0f);
}

TEST(Relu, BackwardMasksByActivation) {
  Matrix y(1, 3);
  y.at(0, 0) = 0.0f;
  y.at(0, 1) = 1.0f;
  y.at(0, 2) = 3.0f;
  Matrix dy(1, 3, 2.0f);
  Matrix dx;
  Relu::backward(y, dy, dx);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 2), 2.0f);
}

TEST(Loss, UniformLogitsGiveLogC) {
  Matrix logits(2, 2, 0.0f);
  const std::vector<std::int32_t> labels{0, 1};
  const std::vector<float> weights{1.0f, 1.0f};
  Matrix dlogits;
  const double loss =
      softmax_cross_entropy(logits, labels, weights, nullptr, dlogits);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
}

TEST(Loss, GradientMatchesFiniteDifference) {
  Rng rng(31);
  Matrix logits(3, 2);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const std::vector<std::int32_t> labels{0, 1, 1};
  const std::vector<float> weights{1.0f, 3.0f};
  Matrix dlogits;
  softmax_cross_entropy(logits, labels, weights, nullptr, dlogits);

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      Matrix scratch;
      const float saved = logits.at(r, c);
      logits.at(r, c) = saved + eps;
      const double up =
          softmax_cross_entropy(logits, labels, weights, nullptr, scratch);
      logits.at(r, c) = saved - eps;
      const double down =
          softmax_cross_entropy(logits, labels, weights, nullptr, scratch);
      logits.at(r, c) = saved;
      EXPECT_NEAR(dlogits.at(r, c), (up - down) / (2.0 * eps), 1e-3);
    }
  }
}

TEST(Loss, RowSubsetIgnoresOtherRows) {
  Matrix logits(3, 2, 0.0f);
  logits.at(2, 0) = 100.0f;  // would dominate if included
  const std::vector<std::int32_t> labels{0, 0, 1};
  const std::vector<float> weights{1.0f, 1.0f};
  const std::vector<std::uint32_t> rows{0, 1};
  Matrix dlogits;
  const double loss =
      softmax_cross_entropy(logits, labels, weights, &rows, dlogits);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  EXPECT_FLOAT_EQ(dlogits.at(2, 0), 0.0f);
  EXPECT_FLOAT_EQ(dlogits.at(2, 1), 0.0f);
}

TEST(Loss, ClassWeightScalesGradient) {
  Matrix logits(1, 2, 0.0f);
  const std::vector<std::int32_t> labels{1};
  Matrix d1, d2;
  softmax_cross_entropy(logits, labels, {1.0f, 1.0f}, nullptr, d1);
  softmax_cross_entropy(logits, labels, {1.0f, 5.0f}, nullptr, d2);
  // Normalization divides by total weight, so the single-row gradient is
  // identical; the *loss mixing* across classes is what changes. Check the
  // normalized invariance explicitly.
  EXPECT_NEAR(d1.at(0, 0), d2.at(0, 0), 1e-6f);
}

TEST(Softmax, RowsSumToOne) {
  Matrix logits(2, 3);
  logits.at(0, 0) = 5.0f;
  logits.at(1, 2) = -3.0f;
  const Matrix p = softmax(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(p.at(r, c), 0.0f);
      sum += p.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, PositiveIsColumnOneBitwise) {
  Matrix logits(5, 3);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = 0.37f * static_cast<float>(i) - 1.9f;
  }
  logits.at(4, 1) = 80.0f;
  const Matrix p = softmax(logits);
  const std::vector<float> positive = softmax_positive(logits);
  ASSERT_EQ(positive.size(), 5u);
  for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(positive[r], p.at(r, 1));
  EXPECT_THROW(softmax_positive(Matrix(2, 1)), std::invalid_argument);
}

/// Minimizing f(w) = ||w - target||^2 exercises an optimizer end to end.
template <typename Opt>
void optimize_quadratic(Opt& optimizer, std::size_t steps, float tolerance) {
  Param w(2, 2);
  w.value.fill(5.0f);
  Matrix target(2, 2, 1.0f);
  const std::vector<Param*> params{&w};
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < w.value.size(); ++i) {
      w.grad.data()[i] = 2.0f * (w.value.data()[i] - target.data()[i]);
    }
    optimizer.step(params);
  }
  for (std::size_t i = 0; i < w.value.size(); ++i) {
    EXPECT_NEAR(w.value.data()[i], 1.0f, tolerance);
  }
}

TEST(Optimizer, SgdConvergesOnQuadratic) {
  SgdOptimizer sgd(0.05f, 0.5f);
  optimize_quadratic(sgd, 200, 0.05f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  AdamOptimizer adam(0.2f);
  optimize_quadratic(adam, 300, 0.05f);
}

TEST(Optimizer, StepZeroesGradients) {
  Param w(1, 1);
  w.grad.at(0, 0) = 1.0f;
  SgdOptimizer sgd(0.1f);
  sgd.step({&w});
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 0.0f);
}

TEST(Optimizer, ChangedParamListThrows) {
  Param a(1, 1), b(1, 1);
  SgdOptimizer sgd(0.1f);
  sgd.step({&a});
  EXPECT_THROW(sgd.step({&a, &b}), std::invalid_argument);
}

TEST(Optimizer, SgdWeightDecayShrinksWeights) {
  Param w(1, 1);
  w.value.at(0, 0) = 1.0f;
  SgdOptimizer sgd(0.1f, 0.0f, 0.5f);
  sgd.step({&w});  // grad 0, decay pulls toward 0
  EXPECT_LT(w.value.at(0, 0), 1.0f);
}

}  // namespace
}  // namespace gcnt
