#pragma once
// Tensor view of a netlist for the GCN: node attribute matrix plus sparse
// predecessor/successor adjacency.
//
// Following Section 3.1, every node carries [LL, C0, C1, O] (logic level
// and SCOAP measures); features are log-compressed so saturated SCOAP
// values stay in a trainable range. The aggregation of Eq. (1) uses two
// 0/1 matrices P and S with (P*E)[v] = sum of fanin embeddings and
// (S*E)[v] = sum of fanout embeddings; the trainable scalars w_pr / w_su
// stay outside the matrices so training never rebuilds them, and the
// paper's merged matrix A = I + w_pr*P + w_su*S can still be materialized
// for the pure-inference engine (Eq. 2).
//
// P and S are one CSR each, filled straight from the netlist's fanin and
// fanout lists. An observation point (Section 4) only queues its edge;
// rebuild_csr() appends the queued edges to both CSRs in one linear pass.

#include <array>
#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "scoap/scoap.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gcnt {

/// Node attribute dimension: [LL, C0, C1, O].
constexpr std::size_t kNodeFeatureDim = 4;

/// log1p compression applied to each raw attribute.
float transform_feature(double raw) noexcept;

/// Locality reordering policy for the CSR compute forms. With kRcm,
/// build_graph_tensors computes a reverse-Cuthill-McKee permutation of
/// the node ids and builds the CSR matrices in that order, shrinking the
/// column-index bandwidth so SpMM's gathered dense rows stay cache-hot.
/// Reordering is invisible at every API boundary: features, labels and
/// logits remain in node order, the GCN gathers/scatters through the
/// permutation internally, and (because the permuted CSR preserves the
/// per-row accumulation order) each node's logits are bitwise identical
/// to the unreordered run.
enum class GraphReorder : int {
  kOff = 0,
  kRcm = 1,
};

/// Resolved policy: set_graph_reorder override > GCNT_REORDER environment
/// ("off" | "rcm", read once per process) > off. Affects tensors built
/// after the change, never existing ones. The active policy is
/// published as the "graph.reorder" stats gauge and recorded in bench
/// JSON as "schema.reorder".
GraphReorder graph_reorder();
/// Forces the policy (tests, benches).
void set_graph_reorder(GraphReorder reorder);
/// Drops the override; resolution falls back to GCNT_REORDER.
void reset_graph_reorder();

struct GraphTensors {
  Matrix features;  ///< N x 4, transformed (optionally standardized) attributes
  /// Row v sums the fanins of v in slot order (a driver in several slots:
  /// one nonzero at its first slot, valued at the slot count).
  CsrMatrix pred;
  CsrMatrix succ;  ///< row v sums the fanouts of v, same layout
  std::vector<std::int32_t> labels;  ///< optional; empty if unlabeled

  /// OP edges target -> op queued by append_observe_point, not yet in
  /// pred/succ.
  struct ObserveEdge { NodeId target; NodeId op; };
  std::vector<ObserveEdge> pending_edges;

  /// Affine feature post-transform: stored feature = (log1p(raw) - mean) *
  /// scale. Identity until standardize_features() is called; kept so that
  /// incremental updates (new OP rows, refreshed observability) encode new
  /// raw values consistently with the existing rows.
  std::array<float, kNodeFeatureDim> feature_mean{0.f, 0.f, 0.f, 0.f};
  std::array<float, kNodeFeatureDim> feature_scale{1.f, 1.f, 1.f, 1.f};

  /// Encodes a raw attribute value for column `col` under the current
  /// affine post-transform.
  float encode(std::size_t col, double raw) const noexcept {
    return (transform_feature(raw) - feature_mean[col]) * feature_scale[col];
  }

  /// Standardizes each feature column to zero mean / unit variance over
  /// the current rows (per-graph statistics, so the transform remains
  /// usable inductively) and records the affine so later incremental rows
  /// stay on the same scale. Improves conditioning of GCN training.
  void standardize_features();

  std::size_t node_count() const noexcept { return features.rows(); }

  /// Locality permutation over the CSR forms (empty = identity, i.e.
  /// reordering off for this graph). Computed by build_graph_tensors
  /// under GraphReorder::kRcm and extended with an identity tail when
  /// nodes are appended, so cached incremental state stays valid.
  /// compute_row maps a node id to its CSR row; compute_node inverts it.
  /// Features, labels and pending_edges stay in node order — only the CSR
  /// forms (and the GCN's internal activations) live in compute order.
  std::vector<std::uint32_t> compute_row;
  std::vector<std::uint32_t> compute_node;

  bool reordered() const noexcept { return !compute_row.empty(); }
  /// CSR row holding node v.
  std::uint32_t row_of(NodeId v) const noexcept {
    return compute_row.empty() ? v : compute_row[v];
  }
  /// Node held by CSR row `row`.
  NodeId node_of(std::uint32_t row) const noexcept {
    return compute_node.empty() ? row : compute_node[row];
  }

  /// Grows the CSR forms to node_count() rows (identity tail in the
  /// permutation) and appends each pending edge to the end of row op in
  /// pred and of row target in succ, in one linear pass.
  void rebuild_csr();
};

/// out.row(p) = node_major.row(tensors.node_of(p)): reorders a node-major
/// matrix into compute order (plain capacity-reusing copy when the graph
/// is not reordered).
void gather_compute_rows(const GraphTensors& tensors, const Matrix& node_major,
                         Matrix& out);

/// out.row(tensors.node_of(p)) = compute_major.row(p): the inverse
/// permutation, back to node order.
void scatter_compute_rows(const GraphTensors& tensors,
                          const Matrix& compute_major, Matrix& out);

/// out.row(i) = src.row(rows[i]): a compact rows.size() x cols copy of the
/// listed rows (capacity-reusing).
void gather_rows(const Matrix& src, const std::vector<std::uint32_t>& rows,
                 Matrix& out);

/// Builds tensors from a netlist with precomputed SCOAP measures and
/// logic levels. A reordered `keep_order` lends its permutation (plus an
/// identity tail) so engines caching its rows stay valid; `netlist` must
/// have kept all of its node ids.
GraphTensors build_graph_tensors(const Netlist& netlist,
                                 const ScoapMeasures& scoap,
                                 const std::vector<std::uint32_t>& levels,
                                 const GraphTensors* keep_order = nullptr);

/// Convenience: computes SCOAP and levels internally.
GraphTensors build_graph_tensors(const Netlist& netlist);

/// Incremental update after netlist.insert_observe_point(target) created
/// node `op`: queues the edge target -> op, appends the new feature row
/// ([0,1,1,0] per the paper), and refreshes the observability feature of
/// `target` and of the nodes in `refreshed`: any superset of the nodes
/// whose SCOAP CO changed, such as the list the CO repair returns. Does
/// NOT touch the CSR forms; call rebuild_csr() once per insertion round.
/// Throws std::out_of_range, changing nothing, unless target < op and `op`
/// is the next row (so a miscomputed id cannot stretch the graph).
///
/// When `changed_rows` is non-null, every refreshed node whose stored
/// feature value actually changed bits is appended to it — the exact
/// dirty-cone seeds for DirtyConeTracker::record_feature (a changed CO
/// can encode to the same float).
void append_observe_point(GraphTensors& tensors, const Netlist& netlist,
                          NodeId target, NodeId op,
                          const ScoapMeasures& scoap,
                          const std::vector<NodeId>& refreshed,
                          std::vector<NodeId>* changed_rows = nullptr);

/// Materializes the paper's merged adjacency A = I + w_pr*P + w_su*S in
/// COO form and node order (Eq. 2) for the standalone sparse inference
/// engine. Reads the CSR forms, so pending edges need rebuild_csr() first.
CooMatrix build_merged_adjacency(const GraphTensors& tensors, float w_pr,
                                 float w_su);

}  // namespace gcnt
