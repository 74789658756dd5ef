#include "dft/impact.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>

#include "common/parallel.h"
#include "common/trace.h"

namespace gcnt {

namespace {

constexpr NodeId kVirtualOp = kInvalidNode;  ///< the tentative OP's id
constexpr std::uint32_t kUnnumbered = ~std::uint32_t{0};  ///< no local row

/// Blocks per kernel thread in impacts(): cone costs vary by orders of
/// magnitude, so finer blocks keep every worker busy to the end.
constexpr std::size_t kBlocksPerThread = 8;

/// CSR arrays of the local rows carved so far.
struct LocalRows {
  std::vector<std::uint32_t> row_ptr{0};
  std::vector<std::uint32_t> cols;
  std::vector<float> values;

  LocalRows& clear() {
    row_ptr.resize(1);
    cols.clear();
    values.clear();
    return *this;
  }
  void add(std::uint32_t col, float value) {
    cols.push_back(col);
    values.push_back(value);
  }
  /// Refills `out` with the first `rows` rows, over `cols_count` columns.
  void prefix(std::uint32_t rows, std::uint32_t cols_count,
              CsrMatrix& out) const {
    const std::uint32_t nnz = row_ptr[rows];
    out.refill(rows, cols_count, {row_ptr.data(), rows + std::size_t{1}},
               {cols.data(), nnz}, {values.data(), nnz});
  }
};

/// Inputs must index the evaluator's design: one prediction per node of
/// the netlist and of the tensors, and node ids as targets.
void check_inputs(const Netlist& netlist, const GraphTensors& tensors,
                  const std::vector<std::int32_t>& predictions,
                  std::span<const NodeId> targets) {
  const std::size_t n = netlist.size();
  if (tensors.node_count() != n || tensors.pred.rows() != n ||
      predictions.size() != n) {
    throw std::invalid_argument(
        "ImpactEvaluator: predictions, netlist and tensors differ in size");
  }
  if (std::any_of(targets.begin(), targets.end(),
                  [n](NodeId target) { return target >= n; })) {
    throw std::out_of_range("ImpactEvaluator: target is not a node id");
  }
}

}  // namespace

/// One evaluating thread's local graph and buffers (see impact.h).
struct ImpactEvaluator::Scratch {
  /// Room for a typical closure of a depth-`depth` cascade, reserved by
  /// the thread that makes the scratch: what a pool worker allocates
  /// stays resident in its arena.
  Scratch(std::size_t node_count, std::size_t depth)
      : local(node_count, kUnnumbered), pred(depth), succ(depth) {
    constexpr std::size_t kRoom = std::size_t{1} << 15;
    for (auto* csrs : {&pred, &succ}) {
      for (CsrMatrix& m : *csrs) m.reserve(kRoom / kNodeFeatureDim, kRoom);
    }
    for (Matrix& m : act) m.reserve(4 * kRoom);
    for (Matrix* m : {&logits, &ws.blocks}) m->reserve(kRoom);
    for (auto* v : {&features, &pred_rows.values, &succ_rows.values}) {
      v->reserve(kRoom);
    }
    for (auto* v : {&nodes, &pred_rows.cols, &succ_rows.cols,
                    &pred_rows.row_ptr, &succ_rows.row_ptr}) {
      v->reserve(kRoom);
    }
  }

  /// Node -> local row of the current candidate, kUnnumbered elsewhere:
  /// one word per node, like the fault simulator's per-lane scratch.
  std::vector<std::uint32_t> local;
  std::vector<NodeId> nodes;            ///< local row -> node or kVirtualOp
  std::vector<float> features;          ///< E_0 of every local row
  std::vector<std::uint32_t> co;        ///< tentative CO of the cone rows
  std::vector<std::uint32_t> ring_end;  ///< ring_end[k] = |R_k|
  LocalRows pred_rows;
  LocalRows succ_rows;
  /// pred[k] / succ[k]: the rows of R_k over the columns of R_{k+1},
  /// refilled per candidate.
  std::vector<CsrMatrix> pred;
  std::vector<CsrMatrix> succ;
  std::vector<std::uint32_t> survivors;  ///< cone rows every stage kept
  Matrix act[2];  ///< E_0, then the layer outputs, ping-ponged
  Matrix logits;
  ForwardWorkspace ws;
};

ImpactEvaluator::ImpactEvaluator(std::vector<const GcnModel*> stages,
                                 const Netlist& netlist,
                                 const GraphTensors& tensors,
                                 const ScoapMeasures& scoap,
                                 const std::vector<std::uint32_t>& levels)
    : stages_(std::move(stages)),
      netlist_(&netlist),
      tensors_(&tensors),
      scoap_(&scoap),
      levels_(&levels) {
  for (const GcnModel* stage : stages_) {
    depth_ = std::max(depth_, stage->encoders().size());
  }
}

int ImpactEvaluator::impact_of(NodeId target,
                               const std::vector<std::int32_t>& predictions,
                               std::size_t cone_limit) const {
  check_inputs(*netlist_, *tensors_, predictions, {&target, 1});
  TraceSuppressScope suppress;
  Scratch scratch(netlist_->size(), depth_);
  Counts counts;
  return impact_of(target, predictions, cone_limit, scratch, counts);
}

int ImpactEvaluator::impact_of(NodeId target,
                               const std::vector<std::int32_t>& predictions,
                               std::size_t cone_limit, Scratch& s,
                               Counts& counts) const {
  std::vector<NodeId> cone = netlist_->fanin_cone(target, cone_limit);
  cone.push_back(target);

  int before = 0;
  for (NodeId v : cone) before += predictions[v] == 1 ? 1 : 0;
  if (before == 0) return 0;
  counts.cone_nodes += cone.size();

  // R_0: the cone in descending level order, a valid reverse-topological
  // order within the cone for the tentative SCOAP CO walk.
  std::sort(cone.begin(), cone.end(), [&](NodeId a, NodeId b) {
    return (*levels_)[a] > (*levels_)[b];
  });
  // E_0 rows: the features, and for the tentative OP the paper's
  // attributes [0, 1, 1, 0].
  const float op_row[] = {tensors_->encode(0, 0.0), tensors_->encode(1, 1.0),
                          tensors_->encode(2, 1.0), tensors_->encode(3, 0.0)};
  for (const NodeId v : s.nodes) {  // the previous candidate's numbering
    if (v != kVirtualOp) s.local[v] = kUnnumbered;
  }
  s.nodes.clear();
  s.features.clear();
  std::uint32_t op_local = kUnnumbered;
  const auto local_row = [&](NodeId v) {
    std::uint32_t& row = v == kVirtualOp ? op_local : s.local[v];
    if (row == kUnnumbered) {
      row = static_cast<std::uint32_t>(s.nodes.size());
      s.nodes.push_back(v);
      const float* f = v == kVirtualOp ? op_row : tensors_->features.row(v);
      s.features.insert(s.features.end(), f, f + kNodeFeatureDim);
    }
    return row;
  };
  s.co.clear();
  for (NodeId v : cone) {
    local_row(v);
    s.co.push_back(scoap_->co[v]);
  }
  const auto co_of = [&](NodeId g) {
    return s.local[g] < cone.size() ? s.co[s.local[g]] : scoap_->co[g];
  };
  for (std::uint32_t i = 0; i < cone.size(); ++i) {
    const NodeId v = s.nodes[i];
    if (v == target) {
      s.co[i] = 0;  // the OP observes it directly
    } else if (!is_sink(netlist_->type(v))) {
      s.co[i] = observability_through_fanouts(*netlist_, v, *scoap_, co_of);
    }
    if (s.co[i] != scoap_->co[v]) {  // the overlay, in column 3
      s.features[i * kNodeFeatureDim + 3] = tensors_->encode(3, s.co[i]);
    }
  }

  // R_{k+1} = R_k plus the neighbours of its rows, numbered in the order
  // the carve meets them. Each local row is the global row with its
  // columns renumbered, in its nonzero order; the tentative OP ends
  // target's succ row and its own pred row is {target}, where
  // rebuild_csr() puts a real OP.
  LocalRows& pred = s.pred_rows.clear();
  LocalRows& succ = s.succ_rows.clear();
  const auto carve = [&](const CsrMatrix& global, NodeId v, LocalRows& rows) {
    const std::uint32_t g = tensors_->row_of(v);
    for (auto k = global.row_ptr()[g]; k < global.row_ptr()[g + 1]; ++k) {
      rows.add(local_row(tensors_->node_of(global.col_index()[k])),
               global.values()[k]);
    }
  };
  s.ring_end.assign(1, static_cast<std::uint32_t>(cone.size()));
  for (std::size_t k = 0; k < depth_; ++k) {
    for (std::uint32_t i = k == 0 ? 0 : s.ring_end[k - 1]; i < s.ring_end[k];
         ++i) {
      const NodeId v = s.nodes[i];
      if (v == kVirtualOp) {
        pred.add(local_row(target), 1.0f);
      } else {
        carve(tensors_->pred, v, pred);
        carve(tensors_->succ, v, succ);
        if (v == target) succ.add(local_row(kVirtualOp), 1.0f);
      }
      pred.row_ptr.push_back(static_cast<std::uint32_t>(pred.cols.size()));
      succ.row_ptr.push_back(static_cast<std::uint32_t>(succ.cols.size()));
    }
    s.ring_end.push_back(static_cast<std::uint32_t>(s.nodes.size()));
    pred.prefix(s.ring_end[k], s.ring_end[k + 1], s.pred[k]);
    succ.prefix(s.ring_end[k], s.ring_end[k + 1], s.succ[k]);
  }

  // The cascade over the local graph: a stage of depth D reads E_0 of
  // R_D, layer d runs over R_{D-1-d}, and the last layer goes through
  // the FC head for the cone rows the earlier stages kept.
  s.survivors.resize(cone.size());
  std::iota(s.survivors.begin(), s.survivors.end(), 0u);
  for (const GcnModel* stage : stages_) {
    if (s.survivors.empty()) break;
    const std::size_t depth = stage->encoders().size();
    Matrix& e0 = s.act[0];
    e0.resize_for_overwrite(s.ring_end[depth], kNodeFeatureDim);
    std::copy_n(s.features.begin(), e0.size(), e0.data());
    const Matrix* in = &e0;
    for (std::size_t d = 0; d < depth; ++d) {
      const std::size_t k = depth - 1 - d;
      const bool last = k == 0;
      Matrix& out = last ? s.logits : s.act[(d + 1) % 2];
      stage->layer_step(d, s.pred[k], s.succ[k], *in,
                        last ? &s.survivors : nullptr, Precision::kFp32, s.ws,
                        out, nullptr, last);
      counts.rows += last ? s.survivors.size() : s.ring_end[k];
      in = &out;
    }
    std::size_t kept = 0;
    for (std::size_t j = 0; j < s.survivors.size(); ++j) {
      if (s.logits.at(j, 1) > s.logits.at(j, 0)) {
        s.survivors[kept++] = s.survivors[j];
      }
    }
    s.survivors.resize(kept);
  }
  return before - static_cast<int>(s.survivors.size());
}

std::vector<int> ImpactEvaluator::impacts(
    const std::vector<NodeId>& candidates,
    const std::vector<std::int32_t>& predictions,
    std::size_t cone_limit) const {
  check_inputs(*netlist_, *tensors_, predictions, candidates);
  TraceSpan span("dft.impact_rank");
  std::vector<int> result(candidates.size(), 0);
  const BlockPlan plan = plan_blocks(candidates.size(), 2, kBlocksPerThread);
  Counts total;
  // One scratch per concurrently running block (the pool's workers plus
  // the caller), made here, passed from block to block and kept for the
  // next call. Memory a worker thread allocates lands in its own malloc
  // arena, which keeps it resident after it is freed; scratches from the
  // calling thread keep peak RSS from growing with the thread count.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (idle_.size() < std::min(plan.count, kernel_threads() + 1)) {
      idle_.push_back(std::make_unique<Scratch>(netlist_->size(), depth_));
    }
  }
  run_blocks(plan, [&](std::size_t, std::size_t begin, std::size_t end) {
    // Per candidate, layer and stage a layer step would record a span.
    TraceSuppressScope suppress;
    std::unique_ptr<Scratch> scratch;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        scratch = std::move(idle_.back());
        idle_.pop_back();
      }
    }
    if (!scratch) scratch = std::make_unique<Scratch>(netlist_->size(), depth_);
    Counts counts;
    for (std::size_t i = begin; i < end; ++i) {
      result[i] = impact_of(candidates[i], predictions, cone_limit, *scratch,
                            counts);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(scratch));
    total.cone_nodes += counts.cone_nodes;
    total.rows += counts.rows;
  });
  span.arg("candidates", static_cast<double>(candidates.size()));
  span.arg("cone_nodes", static_cast<double>(total.cone_nodes));
  span.arg("rows", static_cast<double>(total.rows));
  return result;
}

ImpactEvaluator::~ImpactEvaluator() = default;

std::size_t ImpactEvaluator::csr_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& s : idle_) {
    for (std::size_t k = 0; k < depth_; ++k) {
      total += s->pred[k].capacity() + s->succ[k].capacity();
    }
  }
  return total;
}

}  // namespace gcnt
