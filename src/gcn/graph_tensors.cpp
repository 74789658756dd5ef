#include "gcn/graph_tensors.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "common/stats.h"
#include "common/trace.h"

namespace gcnt {

namespace {

// -1 = no programmatic override (fall back to GCNT_REORDER / off).
std::atomic<int> reorder_override{-1};

GraphReorder env_reorder() {
  static const GraphReorder cached = [] {
    const char* env = std::getenv("GCNT_REORDER");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "off") == 0) {
      return GraphReorder::kOff;
    }
    if (std::strcmp(env, "rcm") == 0) return GraphReorder::kRcm;
    log_warn("unknown GCNT_REORDER value '", env,
             "' (want off|rcm); reordering stays off");
    return GraphReorder::kOff;
  }();
  return cached;
}

/// Reverse Cuthill-McKee over the symmetrized pred+succ adjacency.
/// Fully deterministic: BFS components start at the unvisited node of
/// minimum (degree, id) and neighbors are visited in ascending
/// (degree, id) order. Returns the compute order (position -> node).
std::vector<std::uint32_t> rcm_order(std::size_t n, const CooMatrix& pred_coo,
                                     const CooMatrix& succ_coo) {
  std::vector<std::vector<std::uint32_t>> adjacency(n);
  const auto add_edges = [&](const CooMatrix& coo) {
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
      const std::uint32_t r = coo.row_index[k];
      const std::uint32_t c = coo.col_index[k];
      if (r == c) continue;
      adjacency[r].push_back(c);
      adjacency[c].push_back(r);
    }
  };
  add_edges(pred_coo);
  add_edges(succ_coo);
  for (auto& neighbors : adjacency) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }

  const auto degree_less = [&](std::uint32_t a, std::uint32_t b) {
    const std::size_t da = adjacency[a].size();
    const std::size_t db = adjacency[b].size();
    return da != db ? da < db : a < b;
  };
  std::vector<std::uint32_t> starts(n);
  for (std::uint32_t v = 0; v < n; ++v) starts[v] = v;
  std::sort(starts.begin(), starts.end(), degree_less);

  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<std::uint32_t> neighbors;
  for (const std::uint32_t start : starts) {
    if (visited[start]) continue;
    visited[start] = 1;
    std::size_t head = order.size();
    order.push_back(start);
    while (head < order.size()) {
      const std::uint32_t v = order[head++];
      neighbors.clear();
      for (const std::uint32_t u : adjacency[v]) {
        if (!visited[u]) neighbors.push_back(u);
      }
      std::sort(neighbors.begin(), neighbors.end(), degree_less);
      for (const std::uint32_t u : neighbors) {
        visited[u] = 1;
        order.push_back(u);
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// Maps COO coordinates through row_of, preserving tuple order — so the
/// CSR built from the result accumulates each row's entries in exactly
/// the order the unpermuted CSR would (bitwise-identical SpMM rows).
CooMatrix permute_coo(const CooMatrix& coo,
                      const std::vector<std::uint32_t>& row_of) {
  CooMatrix out(coo.rows, coo.cols);
  out.row_index.reserve(coo.nnz());
  out.col_index.reserve(coo.nnz());
  out.values = coo.values;
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    out.row_index.push_back(row_of[coo.row_index[k]]);
    out.col_index.push_back(row_of[coo.col_index[k]]);
  }
  return out;
}

}  // namespace

GraphReorder graph_reorder() {
  const int forced = reorder_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<GraphReorder>(forced);
  return env_reorder();
}

void set_graph_reorder(GraphReorder reorder) {
  reorder_override.store(static_cast<int>(reorder), std::memory_order_relaxed);
}

void reset_graph_reorder() {
  reorder_override.store(-1, std::memory_order_relaxed);
}

void gather_compute_rows(const GraphTensors& tensors, const Matrix& node_major,
                         Matrix& out) {
  if (!tensors.reordered()) {
    out.copy_from(node_major);
    return;
  }
  out.resize(node_major.rows(), node_major.cols());
  for (std::size_t p = 0; p < node_major.rows(); ++p) {
    const float* in = node_major.row(tensors.node_of(p));
    std::copy(in, in + node_major.cols(), out.row(p));
  }
}

void scatter_compute_rows(const GraphTensors& tensors,
                          const Matrix& compute_major, Matrix& out) {
  if (!tensors.reordered()) {
    out.copy_from(compute_major);
    return;
  }
  out.resize(compute_major.rows(), compute_major.cols());
  for (std::size_t p = 0; p < compute_major.rows(); ++p) {
    const float* in = compute_major.row(p);
    std::copy(in, in + compute_major.cols(), out.row(tensors.node_of(p)));
  }
}

void gather_rows(const Matrix& src, const std::vector<std::uint32_t>& rows,
                 Matrix& out) {
  out.resize(rows.size(), src.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const float* in = src.row(rows[i]);
    std::copy(in, in + src.cols(), out.row(i));
  }
}

float transform_feature(double raw) noexcept {
  return static_cast<float>(std::log1p(raw));
}

void GraphTensors::standardize_features() {
  const std::size_t n = features.rows();
  if (n == 0) return;
  for (std::size_t c = 0; c < kNodeFeatureDim; ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < n; ++r) mean += features.at(r, c);
    mean /= static_cast<double>(n);
    double variance = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double delta = features.at(r, c) - mean;
      variance += delta * delta;
    }
    const double stddev = std::sqrt(variance / static_cast<double>(n));
    const float scale = stddev > 1e-6 ? static_cast<float>(1.0 / stddev) : 1.0f;
    for (std::size_t r = 0; r < n; ++r) {
      features.at(r, c) =
          (features.at(r, c) - static_cast<float>(mean)) * scale;
    }
    // Compose with the existing affine so encode() matches the new rows.
    feature_mean[c] = feature_mean[c] + static_cast<float>(mean) / feature_scale[c];
    feature_scale[c] *= scale;
  }
}

void GraphTensors::rebuild_csr() {
  GCNT_KERNEL_SCOPE("graph.rebuild_csr");
  // Keep shapes square and in sync with the feature rows even when a node
  // has no fanin/fanout entries yet.
  const auto n = static_cast<std::uint32_t>(features.rows());
  if (pred_coo.rows < n) pred_coo.rows = n;
  if (pred_coo.cols < n) pred_coo.cols = n;
  if (succ_coo.rows < n) succ_coo.rows = n;
  if (succ_coo.cols < n) succ_coo.cols = n;

  // Locality permutation: computed once per graph on the first rebuild
  // (when enabled), then only extended with an identity tail as nodes are
  // appended — never recomputed, so cached incremental state stays valid.
  if (!compute_row.empty()) {
    for (auto v = static_cast<std::uint32_t>(compute_row.size()); v < n; ++v) {
      compute_row.push_back(v);
      compute_node.push_back(v);
    }
  } else if (graph_reorder() == GraphReorder::kRcm && n > 0) {
    compute_node = rcm_order(n, pred_coo, succ_coo);
    compute_row.assign(n, 0);
    for (std::uint32_t p = 0; p < n; ++p) compute_row[compute_node[p]] = p;
  }
  StatsRegistry::instance().gauge("graph.reorder").set(reordered() ? 1 : 0);

  if (reordered()) {
    pred = CsrMatrix::from_coo(permute_coo(pred_coo, compute_row));
    succ = CsrMatrix::from_coo(permute_coo(succ_coo, compute_row));
  } else {
    pred = CsrMatrix::from_coo(pred_coo);
    succ = CsrMatrix::from_coo(succ_coo);
  }
  pred_t = pred.transpose();
  succ_t = succ.transpose();
}

GraphTensors build_graph_tensors(const Netlist& netlist,
                                 const ScoapMeasures& scoap,
                                 const std::vector<std::uint32_t>& levels,
                                 const GraphTensors* keep_order) {
  TraceSpan span("graph.build_tensors");
  span.arg("nodes", static_cast<double>(netlist.size()));
  GraphTensors tensors;
  const std::size_t n = netlist.size();
  tensors.features.resize(n, kNodeFeatureDim);
  for (NodeId v = 0; v < n; ++v) {
    float* row = tensors.features.row(v);
    if (netlist.type(v) == CellType::kObserve) {
      // Paper convention: observation points carry [0, 1, 1, 0] regardless
      // of where they sit (Section 4) — keeps incremental updates and
      // from-scratch rebuilds identical.
      row[0] = transform_feature(0.0);
      row[1] = transform_feature(1.0);
      row[2] = transform_feature(1.0);
      row[3] = transform_feature(0.0);
      continue;
    }
    row[0] = transform_feature(levels[v]);
    row[1] = transform_feature(scoap.cc0[v]);
    row[2] = transform_feature(scoap.cc1[v]);
    row[3] = transform_feature(scoap.co[v]);
  }
  tensors.pred_coo = CooMatrix(n, n);
  tensors.succ_coo = CooMatrix(n, n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : netlist.fanins(v)) {
      tensors.pred_coo.add(v, u, 1.0f);
    }
    for (NodeId w : netlist.fanouts(v)) {
      tensors.succ_coo.add(v, w, 1.0f);
    }
  }
  if (keep_order != nullptr) {
    tensors.compute_row = keep_order->compute_row;
    tensors.compute_node = keep_order->compute_node;
  }
  tensors.rebuild_csr();
  return tensors;
}

GraphTensors build_graph_tensors(const Netlist& netlist) {
  const ScoapMeasures scoap = compute_scoap(netlist);
  return build_graph_tensors(netlist, scoap, netlist.logic_levels());
}

void append_observe_point(GraphTensors& tensors, const Netlist& netlist,
                          NodeId target, NodeId op,
                          const ScoapMeasures& scoap,
                          const std::vector<NodeId>& refreshed,
                          std::vector<NodeId>* changed_rows) {
  // Appended tuples, mirroring the paper's incremental COO update. The
  // shapes are grown explicitly to the post-insertion node count first so
  // a miscomputed coordinate throws instead of silently stretching the
  // adjacency (the incremental engine depends on exact shapes).
  const std::size_t n_after = netlist.size();
  tensors.pred_coo.reshape(n_after, n_after);
  tensors.succ_coo.reshape(n_after, n_after);
  tensors.pred_coo.add_checked(op, target, 1.0f);
  tensors.succ_coo.add_checked(target, op, 1.0f);

  // New feature row: the paper assigns the new node [0, 1, 1, 0].
  Matrix grown(netlist.size(), kNodeFeatureDim);
  for (std::size_t r = 0; r < tensors.features.rows(); ++r) {
    for (std::size_t c = 0; c < kNodeFeatureDim; ++c) {
      grown.at(r, c) = tensors.features.at(r, c);
    }
  }
  float* row = grown.row(op);
  row[0] = tensors.encode(0, 0.0);
  row[1] = tensors.encode(1, 1.0);
  row[2] = tensors.encode(2, 1.0);
  row[3] = tensors.encode(3, 0.0);
  tensors.features = std::move(grown);
  if (!tensors.labels.empty()) tensors.labels.resize(netlist.size(), 0);

  // Observability changed only in the fan-in cone of the target — and the
  // SCOAP improvement usually dies out well before the cone does, so track
  // which rows actually changed bits.
  const auto refresh_row = [&](NodeId v) {
    const float encoded = tensors.encode(3, scoap.co[v]);
    if (tensors.features.at(v, 3) != encoded) {
      tensors.features.at(v, 3) = encoded;
      if (changed_rows != nullptr) changed_rows->push_back(v);
    }
  };
  for (NodeId v : refreshed) refresh_row(v);
  refresh_row(target);
}

CooMatrix build_merged_adjacency(const GraphTensors& tensors, float w_pr,
                                 float w_su) {
  const std::size_t n = tensors.node_count();
  CooMatrix merged(n, n);
  for (std::uint32_t v = 0; v < n; ++v) merged.add(v, v, 1.0f);
  for (std::size_t k = 0; k < tensors.pred_coo.nnz(); ++k) {
    merged.add(tensors.pred_coo.row_index[k], tensors.pred_coo.col_index[k],
               w_pr * tensors.pred_coo.values[k]);
  }
  for (std::size_t k = 0; k < tensors.succ_coo.nnz(); ++k) {
    merged.add(tensors.succ_coo.row_index[k], tensors.succ_coo.col_index[k],
               w_su * tensors.succ_coo.values[k]);
  }
  return merged;
}

}  // namespace gcnt
