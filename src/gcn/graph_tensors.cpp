#include "gcn/graph_tensors.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"

namespace gcnt {

namespace {

/// Below this many rows the feature and CSR passes run on the calling
/// thread.
constexpr std::size_t kMinParallelRows = 1 << 12;

/// At most this many CSR row blocks, each with its own n-entry column
/// scratch, so the scratch stays at 32 bytes per row on any host.
constexpr std::size_t kMaxCsrBlocks = 8;

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

/// transform_feature(count), read from a table for the small counts most
/// levels and SCOAP measures are; the table holds transform_feature's own
/// results, so the bits are the same.
float count_feature(std::uint32_t count) {
  static const std::array<float, 4096> table = [] {
    std::array<float, 4096> values{};
    for (std::uint32_t k = 0; k < values.size(); ++k) {
      values[k] = transform_feature(k);
    }
    return values;
  }();
  return count < table.size() ? table[count] : transform_feature(count);
}

/// Reverse Cuthill-McKee over the netlist's undirected fanin+fanout
/// adjacency. Fully deterministic: BFS components start at the unvisited
/// node of minimum (degree, id) and neighbors are visited in ascending
/// (degree, id) order. Returns the compute order (position -> node).
std::vector<std::uint32_t> rcm_order(const Netlist& netlist) {
  const std::size_t n = netlist.size();
  std::vector<std::vector<std::uint32_t>> adjacency(n);
  for (NodeId v = 0; v < n; ++v) {
    auto& neighbors = adjacency[v];
    for (const NodeId u : netlist.fanins(v)) {
      if (u != v) neighbors.push_back(u);
    }
    for (const NodeId w : netlist.fanouts(v)) {
      if (w != v) neighbors.push_back(w);
    }
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

/// Appended nodes keep their id as their compute row (a no-op when the
/// graph is not reordered).
void extend_identity_tail(GraphTensors& tensors, std::size_t n) {
  if (tensors.compute_row.empty()) return;
  for (auto v = static_cast<std::uint32_t>(tensors.compute_row.size()); v < n;
       ++v) {
    tensors.compute_row.push_back(v);
    tensors.compute_node.push_back(v);
  }
}

/// An n x n CSR filled row by row: fill_row(p, add) calls add(c, value)
/// for row p's entries in order, and may run for several rows at once on
/// the kernel pool. A column repeated within a row keeps its first slot
/// and sums the values (the bits CsrMatrix::from_coo gives for repeated
/// tuples), so a netlist build and an OP append lay rows out alike.
///
/// Three passes over row blocks: each block counts its rows' distinct
/// columns, a prefix sum over the blocks places them, and each block fills
/// its rows. Every array is sized here; the result is the same at any
/// thread count.
template <class FillRow>
CsrMatrix csr_by_rows(std::size_t n, FillRow fill_row) {
  BlockPlan plan = plan_blocks(n, kMinParallelRows);
  if (plan.count > kMaxCsrBlocks) {
    plan.per_block = (n + kMaxCsrBlocks - 1) / kMaxCsrBlocks;
    plan.count = (n + plan.per_block - 1) / plan.per_block;
  }
  // One column index per block. While counting, seen[c] = p + 1 marks
  // column c as met in row p. While filling, seen[c] is where c was last
  // placed: a slot of the row being filled only if it lies inside the row
  // and still holds c, whatever the count left there.
  const auto seen_all =
      std::make_unique_for_overwrite<std::uint32_t[]>(plan.count * n);
  std::vector<std::uint32_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> block_start(plan.count + 1, 0);
  run_blocks(plan, [&](std::size_t block, std::size_t first, std::size_t last) {
    std::uint32_t* seen = seen_all.get() + block * n;
    std::fill_n(seen, n, 0);
    std::size_t entries = 0;
    for (std::size_t p = first; p < last; ++p) {
      const auto mark = static_cast<std::uint32_t>(p + 1);
      std::uint32_t count = 0;
      fill_row(p, [&](std::uint32_t c, float) {
        if (seen[c] != mark) {
          seen[c] = mark;
          ++count;
        }
      });
      row_ptr[p + 1] = count;
      entries += count;
    }
    block_start[block + 1] = entries;
  });
  for (std::size_t b = 0; b < plan.count; ++b) {
    block_start[b + 1] += block_start[b];
  }
  const std::size_t nnz = block_start[plan.count];
  std::vector<std::uint32_t> col_index(nnz);
  std::vector<float> values(nnz);
  run_blocks(plan, [&](std::size_t block, std::size_t first, std::size_t last) {
    std::uint32_t* slot_of = seen_all.get() + block * n;
    std::size_t end = block_start[block];
    for (std::size_t p = first; p < last; ++p) {
      const std::size_t row_begin = end;
      fill_row(p, [&](std::uint32_t c, float value) {
        const std::size_t slot = slot_of[c];
        if (slot >= row_begin && slot < end && col_index[slot] == c) {
          values[slot] += value;
          return;
        }
        slot_of[c] = static_cast<std::uint32_t>(end);
        col_index[end] = c;
        values[end++] = value;
      });
      row_ptr[p + 1] = static_cast<std::uint32_t>(end);
    }
  });
  return CsrMatrix::from_parts(n, n, std::move(row_ptr), std::move(col_index),
                               std::move(values));
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
  const std::size_t n = features.rows();
  extend_identity_tail(*this, n);
  // Each row keeps its nonzeros and then gains its pending edges in queue
  // order: (row op, column target) in pred, (row target, column op) in succ.
  const auto append = [&](const CsrMatrix& m, bool row_is_target) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (const ObserveEdge& edge : pending_edges) {
      const std::uint32_t target = row_of(edge.target);
      const std::uint32_t op = row_of(edge.op);
      edges.emplace_back(row_is_target ? target : op,
                         row_is_target ? op : target);
    }
    const auto row_less = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::stable_sort(edges.begin(), edges.end(), row_less);
    return csr_by_rows(n, [&](std::size_t p, auto add) {
      if (p < m.rows()) {
        for (std::size_t k = m.row_ptr()[p]; k < m.row_ptr()[p + 1]; ++k) {
          add(m.col_index()[k], m.values()[k]);
        }
      }
      const std::pair<std::uint32_t, std::uint32_t> row{
          static_cast<std::uint32_t>(p), 0};
      for (auto e = std::lower_bound(edges.begin(), edges.end(), row, row_less);
           e != edges.end() && e->first == p; ++e) {
        add(e->second, 1.0f);
      }
    });
  };
  pred = append(pred, false);
  succ = append(succ, true);
  pending_edges.clear();
}

GraphTensors build_graph_tensors(const Netlist& netlist,
                                 const ScoapMeasures& scoap,
                                 const std::vector<std::uint32_t>& levels,
                                 const GraphTensors* keep_order) {
  TraceSpan span("graph.build_tensors");
  span.arg("nodes", static_cast<double>(netlist.size()));
  GraphTensors tensors;
  const std::size_t n = netlist.size();
  // Each feature row depends only on its own node.
  tensors.features.resize_for_overwrite(n, kNodeFeatureDim);
  parallel_blocks(n, kMinParallelRows, [&](std::size_t first,
                                           std::size_t last) {
    for (NodeId v = first; v < last; ++v) {
      float* row = tensors.features.row(v);
      if (netlist.type(v) == CellType::kObserve) {
        // Paper convention: observation points carry [0, 1, 1, 0]
        // regardless of where they sit (Section 4) — keeps incremental
        // updates and from-scratch rebuilds identical.
        row[0] = transform_feature(0.0);
        row[1] = transform_feature(1.0);
        row[2] = transform_feature(1.0);
        row[3] = transform_feature(0.0);
        continue;
      }
      row[0] = count_feature(levels[v]);
      row[1] = count_feature(scoap.cc0[v]);
      row[2] = count_feature(scoap.cc1[v]);
      row[3] = count_feature(scoap.co[v]);
    }
  });

  // Locality permutation: computed once per graph, then only extended
  // with an identity tail, so engines caching rows of `keep_order` stay
  // valid.
  if (keep_order != nullptr && keep_order->reordered()) {
    tensors.compute_row = keep_order->compute_row;
    tensors.compute_node = keep_order->compute_node;
    extend_identity_tail(tensors, n);
  } else if (graph_reorder() == GraphReorder::kRcm && n > 0) {
    tensors.compute_node = rcm_order(netlist);
    tensors.compute_row.assign(n, 0);
    for (std::uint32_t p = 0; p < n; ++p) {
      tensors.compute_row[tensors.compute_node[p]] = p;
    }
  }
  StatsRegistry::instance().gauge("graph.reorder").set(
      tensors.reordered() ? 1 : 0);

  // Row p lists the span of node_of(p)'s neighbours, in netlist order.
  const auto adjacency = [&](auto neighbors) {
    return csr_by_rows(n, [&](std::size_t p, auto add) {
      for (const NodeId u : neighbors(tensors.node_of(p))) {
        add(tensors.row_of(u), 1.0f);
      }
    });
  };
  tensors.pred = adjacency([&](NodeId v) { return netlist.fanins(v); });
  tensors.succ = adjacency([&](NodeId v) { return netlist.fanouts(v); });
  span.arg("nnz", static_cast<double>(tensors.pred.nnz() + tensors.succ.nnz()));
  return tensors;
}

GraphTensors build_graph_tensors(const Netlist& netlist) {
  const std::vector<NodeId> order = netlist.topological_order();
  return build_graph_tensors(netlist, compute_scoap(netlist, order),
                             netlist.logic_levels(order));
}

void append_observe_point(GraphTensors& tensors, const Netlist& netlist,
                          NodeId target, NodeId op,
                          const ScoapMeasures& scoap,
                          const std::vector<NodeId>& refreshed,
                          std::vector<NodeId>* changed_rows) {
  if (target >= op || op != tensors.node_count() || op >= netlist.size()) {
    throw std::out_of_range(
        "append_observe_point: op must be the next row and follow target");
  }
  tensors.pending_edges.push_back({target, op});

  // New feature row: the paper assigns the new node [0, 1, 1, 0].
  tensors.features.grow_rows(op + 1);
  float* row = tensors.features.row(op);
  row[0] = tensors.encode(0, 0.0);
  row[1] = tensors.encode(1, 1.0);
  row[2] = tensors.encode(2, 1.0);
  row[3] = tensors.encode(3, 0.0);
  if (!tensors.labels.empty()) tensors.labels.resize(op + 1, 0);

  // Observability changed only in the fan-in cone of the target, and only
  // where the caller says; track which rows actually changed bits.
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
  const auto add_scaled = [&](const CsrMatrix& m, float w) {
    for (std::uint32_t p = 0; p < m.rows(); ++p) {
      for (std::size_t k = m.row_ptr()[p]; k < m.row_ptr()[p + 1]; ++k) {
        merged.add(tensors.node_of(p), tensors.node_of(m.col_index()[k]),
                   w * m.values()[k]);
      }
    }
  };
  add_scaled(tensors.pred, w_pr);
  add_scaled(tensors.succ, w_su);
  return merged;
}

}  // namespace gcnt
