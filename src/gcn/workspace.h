#pragma once
// ForwardWorkspace: the preallocated scratch buffers a whole-graph (or
// compact dirty-row) GCN forward pass needs — the two aggregation sums,
// the aggregated matrix, a ping-pong pair of activation buffers, and
// (int8 tier only) a pair of quantized activation code buffers.
//
// Matrix::resize() and Matrix::copy_from() reuse the underlying
// allocation whenever the new element count fits in capacity(), so after
// one warm-up pass over a graph every subsequent forward through the
// same workspace performs zero heap allocations (until the graph grows).
// QuantizedTensor::resize() follows the same rule for its code vector,
// extending the contract to Precision::kInt8 inference. The trainer,
// GcnModel::forward/infer, and IncrementalGcnEngine all keep a workspace
// alive across calls for exactly this reason.
//
// poll_allocations() lets tests assert the contract: it counts
// capacity-growth events across all buffers since the previous poll.
//
// A workspace is not thread-safe; concurrent forward passes must use
// distinct workspaces (results are identical — buffers never affect
// values, only where they live).

#include <cstddef>

#include "gcn/quant.h"
#include "tensor/matrix.h"

namespace gcnt {

class ForwardWorkspace {
 public:
  /// P * E_{d-1} (or its row-subset slice); FC-head scratch afterwards.
  Matrix pred_sum;
  /// S * E_{d-1} (or its row-subset slice); FC-head scratch afterwards.
  Matrix succ_sum;
  Matrix aggregated;  ///< G_d = E + w_pr*pred_sum + w_su*succ_sum
  Matrix ping;        ///< activation ping-pong buffer A
  Matrix pong;        ///< activation ping-pong buffer B
  QuantizedTensor qact;  ///< int8 tier: quantized activation codes
  QuantizedTensor qagg;  ///< int8 tier: quantized aggregated codes

  /// Number of buffer reallocation (capacity-growth) events across all
  /// seven buffers since the previous poll. Call once after warm-up to
  /// drain the initial growth; a zero return after further passes proves
  /// those passes allocated nothing.
  std::size_t poll_allocations() noexcept {
    const std::size_t current[kBuffers] = {
        pred_sum.capacity(), succ_sum.capacity(), aggregated.capacity(),
        ping.capacity(),     pong.capacity(),     qact.capacity(),
        qagg.capacity()};
    std::size_t events = 0;
    for (std::size_t i = 0; i < kBuffers; ++i) {
      if (current[i] > capacities_[i]) {
        capacities_[i] = current[i];
        ++events;
      }
    }
    return events;
  }

 private:
  static constexpr std::size_t kBuffers = 7;
  std::size_t capacities_[kBuffers] = {};
};

}  // namespace gcnt
