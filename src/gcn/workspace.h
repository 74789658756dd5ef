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
// Plain (no-cache) fp32 inference does not store E_D either: the last
// layer step runs each encoded block on through the FC head, so `ping`
// and `pong` end up holding E_{D-1} and E_{D-2} (or, on a reordered
// graph, the compute-order logits in the buffer E_{D-2} left). That is
// 4 * (K_{D-1} + K_{D-2}) bytes per node — 384 with the paper's
// (32, 64, 128) — where storing E_D took 4 * (K_{D-1} + K_D), 768.
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
#include <vector>

#include "gcn/quant.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gcnt {

class ForwardWorkspace {
 public:
  /// Row-block scratch of the fp32 layer step and FC head, one row per
  /// kernel-pool block (indexed by run_blocks' block index): the block's
  /// G rows and one P*E / S*E row pair, or two hidden FC activation
  /// blocks; in the fused last layer step, the larger of the two plus
  /// the block's encoded E_D rows.
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

/// P*E, S*E and G of one layer step, kept for backward (training only).
struct LayerSums {
  Matrix pred_sum;    ///< P * E_{d-1}
  Matrix succ_sum;    ///< S * E_{d-1}
  Matrix aggregated;  ///< G_d
};

/// TrainWorkspace: what GcnModel::forward() caches for backward() and
/// the buffers backward() works in, kept alive across training steps.
///
/// backward() runs as row-block passes on the kernel pool: each layer's
/// input gradient lands in one of two ping-pong buffers with the ReLU
/// mask applied per block, and dE_{d-1} = dG + w_pr*P^T*dG + w_su*S^T*dG
/// forms per row from the transposed adjacency in pred_t / succ_t. Like
/// ForwardWorkspace, every buffer is reshaped within its capacity, so
/// after one warm-up step on a graph further forward/backward steps on it
/// perform no heap allocation here; poll_allocations() asserts that.
class TrainWorkspace {
 public:
  std::vector<Matrix> embeddings;  ///< E_0 .. E_D (post-activation)
  std::vector<LayerSums> layers;   ///< P*E, S*E and G of layers 1 .. D
  std::vector<Matrix> fc_hidden;   ///< output of each hidden FC layer
  Matrix ping;  ///< gradient ping-pong buffer A
  Matrix pong;  ///< gradient ping-pong buffer B
  CsrMatrix pred_t;  ///< P^T of the graph last run through backward()
  CsrMatrix succ_t;  ///< S^T of the same graph

  /// Capacity-growth events across every buffer since the previous poll
  /// (the first poll counts each buffer that holds anything).
  std::size_t poll_allocations() {
    std::size_t events = 0;
    std::size_t slot = 0;
    const auto track = [&](std::size_t capacity) {
      if (slot == capacities_.size()) capacities_.push_back(0);
      if (capacity > capacities_[slot]) {
        capacities_[slot] = capacity;
        ++events;
      }
      ++slot;
    };
    for (const Matrix& m : embeddings) track(m.capacity());
    for (const LayerSums& sums : layers) {
      track(sums.pred_sum.capacity());
      track(sums.succ_sum.capacity());
      track(sums.aggregated.capacity());
    }
    for (const Matrix& m : fc_hidden) track(m.capacity());
    track(ping.capacity());
    track(pong.capacity());
    track(pred_t.capacity());
    track(succ_t.capacity());
    return events;
  }

 private:
  std::vector<std::size_t> capacities_;
};

}  // namespace gcnt
