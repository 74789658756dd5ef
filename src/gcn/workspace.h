#pragma once
// ForwardWorkspace: the preallocated scratch buffers a whole-graph (or
// compact dirty-row) GCN forward pass needs — a ping-pong pair of
// activation buffers, the row-block scratch of the fused fp32 layer step
// and FC head, and (int8 tier only) the two aggregation sums, the
// aggregated matrix and a pair of quantized activation code buffers.
//
// The fp32 forward never materializes graph-sized P*E, S*E, G or hidden
// FC activations: each kernel-pool block aggregates, encodes and
// classifies kGemmRowBlock rows at a time in its own row of `blocks`.
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
  /// Row-block scratch of the fp32 layer step and FC head, one row per
  /// kernel-pool block (indexed by run_blocks' block index): the block's
  /// G rows and one P*E / S*E row pair, or two hidden FC activation blocks.
  Matrix blocks;
  Matrix ping;  ///< activation ping-pong buffer A
  Matrix pong;  ///< activation ping-pong buffer B
  /// int8 tier: P * E_{d-1}; FC-head scratch afterwards.
  Matrix pred_sum;
  /// int8 tier: S * E_{d-1}; FC-head scratch afterwards.
  Matrix succ_sum;
  Matrix aggregated;     ///< int8 tier: G_d = E + w_pr*P*E + w_su*S*E
  QuantizedTensor qact;  ///< int8 tier: quantized activation codes
  QuantizedTensor qagg;  ///< int8 tier: quantized aggregated codes

  /// Number of buffer reallocation (capacity-growth) events across all
  /// eight buffers since the previous poll. Call once after warm-up to
  /// drain the initial growth; a zero return after further passes proves
  /// those passes allocated nothing.
  std::size_t poll_allocations() noexcept {
    const std::size_t current[kBuffers] = {
        blocks.capacity(),   ping.capacity(),     pong.capacity(),
        pred_sum.capacity(), succ_sum.capacity(), aggregated.capacity(),
        qact.capacity(),     qagg.capacity()};
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
  static constexpr std::size_t kBuffers = 8;
  std::size_t capacities_[kBuffers] = {};
};

}  // namespace gcnt
