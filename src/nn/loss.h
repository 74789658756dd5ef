#pragma once
// Class-weighted softmax cross-entropy.
//
// The class weight on positives is how each stage of the multi-stage GCN
// biases its decision boundary (Section 3.3): a large positive weight makes
// misclassifying a difficult-to-observe node expensive, so early stages
// only discard high-confidence negatives.

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace gcnt {

/// Computes mean weighted cross-entropy over selected rows and writes
/// d(loss)/d(logits) into `dlogits` (zero for unselected rows).
///
///  - `logits`: N x C scores.
///  - `labels`: N entries in [0, C).
///  - `class_weights`: C entries (all 1.0 = unweighted); the mean is
///    normalized by the sum of selected row weights.
///  - `rows`: row subset to train on; nullptr = all rows.
double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& labels,
                             const std::vector<float>& class_weights,
                             const std::vector<std::uint32_t>* rows,
                             Matrix& dlogits);

/// Row-wise softmax probabilities (for inference confidence thresholds).
Matrix softmax(const Matrix& logits);

/// Column 1 of softmax(logits), bitwise: each row's positive probability.
std::vector<float> softmax_positive(const Matrix& logits);

}  // namespace gcnt
