#include "gcn/incremental.h"

#include <algorithm>
#include <stdexcept>

#include "common/trace.h"

namespace gcnt {

namespace {

/// Writes compact row i back to dst.row(rows[i]).
void scatter_rows(const Matrix& compact, const std::vector<NodeId>& rows,
                  Matrix& dst) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const float* in = compact.row(i);
    std::copy(in, in + compact.cols(), dst.row(rows[i]));
  }
}

}  // namespace

void DirtyConeTracker::record_edge(NodeId from, NodeId to) {
  seeds_.push_back(from);
  seeds_.push_back(to);
}

void DirtyConeTracker::record_feature(NodeId v) { seeds_.push_back(v); }

void DirtyConeTracker::record_new_node(NodeId v) { seeds_.push_back(v); }

std::vector<NodeId> DirtyConeTracker::affected(const GraphTensors& tensors,
                                               int depth) const {
  GCNT_KERNEL_SCOPE("dirty_cone.affected");
  const std::size_t n = tensors.node_count();
  if (tensors.pred.rows() != n || tensors.succ.rows() != n) {
    throw std::invalid_argument(
        "DirtyConeTracker::affected: tensors need rebuild_csr()");
  }
  // The BFS runs in CSR (compute) row space; seeds map in through the
  // locality permutation and results map back out to node ids below.
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<NodeId> frontier;
  frontier.reserve(seeds_.size());
  for (const NodeId v : seeds_) {
    if (v >= n) {
      throw std::out_of_range("DirtyConeTracker::affected: seed out of range");
    }
    const NodeId row = tensors.row_of(v);
    if (!visited[row]) {
      visited[row] = 1;
      frontier.push_back(row);
    }
  }

  // D rounds of frontier expansion along both adjacency directions: pred
  // row v lists fanins(v), succ row v lists fanouts(v), and together they
  // are exactly the nodes whose aggregation reads v (and vice versa).
  std::vector<NodeId> next;
  for (int hop = 0; hop < depth && !frontier.empty(); ++hop) {
    next.clear();
    for (const NodeId v : frontier) {
      const auto expand = [&](const CsrMatrix& adjacency) {
        const auto& row_ptr = adjacency.row_ptr();
        const auto& cols = adjacency.col_index();
        for (std::uint32_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
          const NodeId u = cols[k];
          if (!visited[u]) {
            visited[u] = 1;
            next.push_back(u);
          }
        }
      };
      expand(tensors.pred);
      expand(tensors.succ);
    }
    frontier.swap(next);
  }

  std::vector<NodeId> result;
  for (NodeId row = 0; row < n; ++row) {
    if (visited[row]) result.push_back(tensors.node_of(row));
  }
  if (tensors.reordered()) std::sort(result.begin(), result.end());
  return result;
}

IncrementalGcnEngine::IncrementalGcnEngine(const GcnModel& model)
    : GcnEngine(model, kFullFallbackFraction) {}

void IncrementalGcnEngine::full_pass(const GraphTensors& tensors) {
  static KernelStats& stats = kernel_stats("gcn.incremental.refresh");
  TraceSpan span("gcn.incremental.refresh", &stats);
  span.arg("nodes", static_cast<double>(tensors.node_count()));
  model_->infer(tensors, ws_, logits_, &embeddings_);
}

void IncrementalGcnEngine::dirty_pass(const GraphTensors& tensors,
                                      const std::vector<NodeId>& dirty) {
  const std::size_t n = tensors.node_count();
  static KernelStats& stats = kernel_stats("gcn.incremental.update");
  TraceSpan span("gcn.incremental.update", &stats);
  span.arg("nodes", static_cast<double>(n));
  span.arg("dirty", static_cast<double>(dirty.size()));

  // Appended nodes grow every cached layer (new rows are always dirty, so
  // their zero placeholders are overwritten below).
  for (Matrix& layer : embeddings_) layer.grow_rows(n);
  logits_.grow_rows(n);
  if (dirty.empty()) return;

  // E_0 rows come straight from the (already updated) feature matrix;
  // the cached layers live in compute row order.
  dirty_rows_.resize(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    dirty_rows_[i] = tensors.row_of(dirty[i]);
    const float* in = tensors.features.row(dirty[i]);
    std::copy(in, in + tensors.features.cols(),
              embeddings_[0].row(dirty_rows_[i]));
  }

  // Re-propagate the dirty rows layer by layer. A clean row's inputs are
  // all clean (the dirty set is the D-hop closure), so reading the cached
  // E_{d-1} for neighbors is exact, and the row-subset layer step
  // reproduces each recomputed row bit-for-bit. As in the refresh, the
  // last step runs on through the FC head; its logits scatter by node id.
  for (std::size_t d = 0; d < embeddings_.size(); ++d) {
    const bool head = d + 1 == embeddings_.size();
    model_->layer_step(d, tensors.pred, tensors.succ, embeddings_[d],
                       &dirty_rows_, Precision::kFp32, ws_, ws_.ping,
                       /*keep=*/nullptr, head);
    scatter_rows(ws_.ping, head ? dirty : dirty_rows_,
                 head ? logits_ : embeddings_[d + 1]);
  }
}

}  // namespace gcnt
