#include "dft/impact.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "nn/loss.h"

namespace gcnt {

namespace {

constexpr NodeId kVirtualOp = kInvalidNode;  ///< the tentative OP's id
constexpr std::uint32_t kUnnumbered = ~std::uint32_t{0};  ///< no local row
constexpr std::uint32_t kFar = kUnnumbered;  ///< dist past every stage's D

/// Blocks per kernel thread in impacts(): cone costs vary by orders of
/// magnitude, so finer blocks keep every worker busy to the end.
constexpr std::size_t kBlocksPerThread = 8;

/// Local rows, and floats of one layer's activations, a scratch reserves:
/// opi_sweep's largest tentative closures hold 1.3k rows and 40k floats.
constexpr std::size_t kRowRoom = std::size_t{1} << 11;
constexpr std::size_t kFloatRoom = std::size_t{1} << 16;

/// CSR arrays of one layer's local rows.
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
  void end_row() { row_ptr.push_back(static_cast<std::uint32_t>(cols.size())); }
  /// Refills `out` with these rows over `cols_count` columns.
  void fill(std::size_t cols_count, CsrMatrix& out) const {
    out.refill(row_ptr.size() - 1, cols_count, row_ptr, cols, values);
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
  /// One layer step: its inputs (local rows), of which the first `rows`
  /// are L_d, and L_d's CSRs over them, refilled per carve.
  struct Layer {
    std::vector<std::uint32_t> inputs;
    std::size_t rows = 0;
    CsrMatrix pred;
    CsrMatrix succ;
  };
  /// A local row: its node (or kVirtualOp), input position in the layer
  /// being carved, dist from the seeds and E_0.
  struct Row {
    NodeId node;
    std::uint32_t slot;
    std::uint32_t dist;
    float e0[kNodeFeatureDim];
  };

  /// Reserved by the thread that makes the scratch: what a pool worker
  /// allocates stays resident in its arena.
  Scratch(std::size_t node_count, std::size_t depth)
      : local(node_count, kUnnumbered), layers(depth) {
    for (Layer& layer : layers) {
      layer.inputs.reserve(kRowRoom);
      layer.pred.reserve(kRowRoom, kRowRoom);
      layer.succ.reserve(kRowRoom, kRowRoom);
    }
    for (Matrix* m : {&in, &out, &logits, &ws.blocks}) m->reserve(kFloatRoom);
    for (LocalRows* b : {&pred_rows, &succ_rows}) {
      b->row_ptr.reserve(kRowRoom);
      b->cols.reserve(kRowRoom);
      b->values.reserve(kRowRoom);
    }
    rows.reserve(kRowRoom);
    queue.reserve(kRowRoom);
  }

  /// Node -> local row of the current candidate, kUnnumbered elsewhere:
  /// one word per node, like the fault simulator's per-lane scratch.
  std::vector<std::uint32_t> local;
  std::vector<Row> rows;
  std::vector<NodeId> cone;
  std::vector<std::uint32_t> co;         ///< tentative CO of the cone rows
  std::vector<std::uint32_t> queue;      ///< the seeds' BFS, by dist
  std::vector<std::uint32_t> survivors;  ///< cone rows every stage kept
  std::vector<Layer> layers;
  LocalRows pred_rows;
  LocalRows succ_rows;
  Matrix in;   ///< the running layer step's inputs
  Matrix out;  ///< its outputs: the next step's fresh inputs
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

ImpactEvaluator::ImpactEvaluator(EditableDesign& design)
    : ImpactEvaluator({}, design.netlist(), design.tensors(), design.scoap(),
                      design.levels()) {
  const std::size_t n = tensors_->node_count();
  bool current = design.primed() && !design.has_pending_edits();
  for (std::size_t s = 0; current && s < design.stage_count(); ++s) {
    const GcnEngine& engine = design.engine(s);
    const std::size_t depth = engine.model().encoders().size();
    const std::vector<Matrix>* cache = engine.embeddings();  // null: sharded
    stages_.push_back(&engine.model());
    depth_ = std::max(depth_, depth);
    if (cache) engines_.push_back(&engine);
    current = engine.logits().rows() == n && (!cache || cache->size() == depth);
    for (std::size_t d = 0; current && cache && d < depth; ++d) {
      current = (*cache)[d].rows() == n;
    }
  }
  if (!current) {
    throw Error(ErrorKind::kUsage, "ImpactEvaluator: stale engine caches");
  }
  if (engines_.size() != stages_.size()) engines_.clear();  // recompute all
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
  for (const Scratch::Row& row : s.rows) {  // the previous numbering
    if (row.node != kVirtualOp) s.local[row.node] = kUnnumbered;
  }
  s.rows.clear();
  std::vector<NodeId>& cone = s.cone;
  netlist_->fanin_cone(target, cone_limit, cone, s.local, 0);
  cone.push_back(target);

  int before = 0;
  for (NodeId v : cone) before += predictions[v] == 1 ? 1 : 0;
  if (before == 0) {
    for (NodeId v : cone) s.local[v] = kUnnumbered;
    return 0;
  }
  counts.cone_nodes += cone.size();

  // The cone rows first, in descending level order, a valid
  // reverse-topological order within the cone for the tentative SCOAP CO
  // walk; then the tentative OP with the paper's attributes [0, 1, 1, 0].
  std::sort(cone.begin(), cone.end(), [&](NodeId a, NodeId b) {
    return (*levels_)[a] > (*levels_)[b];
  });
  // A row's dist until the BFS reaches it; without caches, every row is
  // a seed.
  const std::uint32_t unseeded = engines_.empty() ? 0 : kFar;
  const auto add_row = [&](NodeId v, const float* f) {
    s.rows.push_back({v, kUnnumbered, unseeded, {f[0], f[1], f[2], f[3]}});
  };
  const auto number = [&](NodeId v) {  // v's local row, numbered on sight
    std::uint32_t& row = s.local[v];
    if (row == kUnnumbered) {
      row = static_cast<std::uint32_t>(s.rows.size());
      add_row(v, tensors_->features.row(v));
    }
    return row;
  };
  // Calls f(neighbour, value) over v's row of the global CSR `m`.
  const auto each = [&](const CsrMatrix& m, NodeId v, const auto& f) {
    const std::uint32_t g = tensors_->row_of(v);
    for (auto k = m.row_ptr()[g]; k < m.row_ptr()[g + 1]; ++k) {
      f(tensors_->node_of(m.col_index()[k]), m.values()[k]);
    }
  };
  for (std::uint32_t i = 0; i < cone.size(); ++i) {
    s.local[cone[i]] = i;
    add_row(cone[i], tensors_->features.row(cone[i]));
  }
  const auto op = static_cast<std::uint32_t>(cone.size());
  const float op_row[] = {tensors_->encode(0, 0.0), tensors_->encode(1, 1.0),
                          tensors_->encode(2, 1.0), tensors_->encode(3, 0.0)};
  add_row(kVirtualOp, op_row);

  // The CO overlay, in column 3; its rows, the target and the OP are the
  // seeds. With caches, a BFS from them over pred/succ (the OP edge joins
  // two seeds) finds dist; its last hop matters only to cone rows.
  s.queue.assign({s.local[target], op});
  s.co.clear();
  for (NodeId v : cone) s.co.push_back(scoap_->co[v]);
  const auto co_of = [&](NodeId g) {
    return s.local[g] < op ? s.co[s.local[g]] : scoap_->co[g];
  };
  for (std::uint32_t i = 0; i < op; ++i) {
    const NodeId v = s.rows[i].node;
    if (v == target) {
      s.co[i] = 0;  // the OP observes it directly
    } else if (!is_sink(netlist_->type(v))) {
      s.co[i] = observability_through_fanouts(*netlist_, v, *scoap_, co_of);
    }
    if (s.co[i] != scoap_->co[v]) {
      s.rows[i].e0[3] = tensors_->encode(3, s.co[i]);
      if (v != target) s.queue.push_back(i);
    }
  }
  for (const std::uint32_t r : s.queue) s.rows[r].dist = 0;
  for (std::size_t begin = 0, hop = 1; unseeded && hop <= depth_; ++hop) {
    for (const std::size_t end = s.queue.size(); begin < end; ++begin) {
      const NodeId v = s.rows[s.queue[begin]].node;
      const auto reach = [&](NodeId u, float) {
        const std::uint32_t r = hop < depth_ ? number(u) : s.local[u];
        if (r < s.rows.size() && s.rows[r].dist == kFar) {
          s.rows[r].dist = static_cast<std::uint32_t>(hop);
          s.queue.push_back(r);
        }
      };
      if (v == kVirtualOp) continue;  // its one neighbour is the target
      each(tensors_->pred, v, reach);
      each(tensors_->succ, v, reach);
    }
  }

  s.survivors.resize(cone.size());
  std::iota(s.survivors.begin(), s.survivors.end(), 0u);
  for (std::size_t stage = 0; stage < stages_.size(); ++stage) {
    if (s.survivors.empty()) break;
    const GcnModel& model = *stages_[stage];
    const std::size_t depth = model.encoders().size();
    Scratch::Layer& top = s.layers[depth - 1];
    top.inputs.clear();
    for (const std::uint32_t r : s.survivors) {
      if (s.rows[r].dist <= depth) top.inputs.push_back(r);
    }
    top.rows = top.inputs.size();

    // Carve from the top layer down. Each local row is the global row
    // with its columns renumbered as inputs, in its nonzero order; the
    // tentative OP ends target's succ row and its own pred row is
    // {target}, where rebuild_csr() puts a real OP. When every input of
    // layer d is fresh, L_{d-1} is those inputs in order, so layer d's
    // rows stand as the first rows of layer d-1.
    std::size_t carved = 0;
    for (std::size_t d = depth; top.rows > 0 && d-- > 0;) {
      Scratch::Layer& layer = s.layers[d];
      for (std::uint32_t p = 0; p < layer.rows; ++p) {
        s.rows[layer.inputs[p]].slot = p;
      }
      const auto input = [&](std::uint32_t r) {
        std::uint32_t& slot = s.rows[r].slot;
        if (slot == kUnnumbered) {
          slot = static_cast<std::uint32_t>(layer.inputs.size());
          layer.inputs.push_back(r);
        }
        return slot;
      };
      LocalRows& pred = carved > 0 ? s.pred_rows : s.pred_rows.clear();
      LocalRows& succ = carved > 0 ? s.succ_rows : s.succ_rows.clear();
      for (std::size_t p = carved; p < layer.rows; ++p) {
        const NodeId v = s.rows[layer.inputs[p]].node;
        if (v == kVirtualOp) {
          pred.add(input(s.local[target]), 1.0f);
        } else {
          each(tensors_->pred, v,
               [&](NodeId u, float x) { pred.add(input(number(u)), x); });
          each(tensors_->succ, v,
               [&](NodeId u, float x) { succ.add(input(number(u)), x); });
          if (v == target) succ.add(input(op), 1.0f);
        }
        pred.end_row();
        succ.end_row();
      }
      pred.fill(layer.inputs.size(), layer.pred);
      succ.fill(layer.inputs.size(), layer.succ);
      for (const std::uint32_t r : layer.inputs) s.rows[r].slot = kUnnumbered;
      if (d == 0) break;
      // L_{d-1}: the inputs whose E_d the edit can change, in input order.
      Scratch::Layer& below = s.layers[d - 1];
      below.inputs.clear();
      for (const std::uint32_t r : layer.inputs) {
        if (s.rows[r].dist <= d) below.inputs.push_back(r);
      }
      below.rows = below.inputs.size();
      carved = below.rows == layer.inputs.size() ? layer.rows : 0;
    }

    // Bottom up: gather each layer's inputs (E_0, L_{d-1}'s outputs in
    // order, or the cached E_d), then one layer step over L_d; the last
    // runs through the FC head.
    for (std::size_t d = 0; top.rows > 0 && d < depth; ++d) {
      const Scratch::Layer& layer = s.layers[d];
      const std::size_t width = model.encoders()[d].in_features();
      const bool fresh = d > 0 && s.layers[d - 1].rows == layer.inputs.size();
      if (fresh) std::swap(s.in, s.out);
      if (!fresh) s.in.resize_for_overwrite(layer.inputs.size(), width);
      const Matrix* cache = d > 0 && !engines_.empty()
                                ? &(*engines_[stage]->embeddings())[d]
                                : nullptr;
      for (std::size_t p = 0, j = 0; !fresh && p < layer.inputs.size(); ++p) {
        const Scratch::Row& row = s.rows[layer.inputs[p]];
        const bool cached = d > 0 && row.dist > d;
        const float* e = d == 0   ? row.e0
                         : cached ? cache->row(tensors_->row_of(row.node))
                                  : s.out.row(j++);
        counts.cached += cached ? 1 : 0;
        std::copy_n(e, width, s.in.row(p));
      }
      const bool last = d + 1 == depth;
      model.layer_step(d, layer.pred, layer.succ, s.in, nullptr,
                       Precision::kFp32, s.ws, last ? s.logits : s.out,
                       nullptr, last);
      counts.rows += layer.rows;
    }

    // Survivors in L_{D-1} read the fresh logits, the rest the engine's.
    std::size_t kept = 0, fresh = 0;
    for (const std::uint32_t r : s.survivors) {
      const bool cached = s.rows[r].dist > depth;
      const float* logits =
          cached ? engines_[stage]->logits().row(s.rows[r].node)
                 : s.logits.row(fresh++);
      counts.cached += cached ? 1 : 0;
      if (predicts_positive(logits, model.fc_layers().back().out_features())) {
        s.survivors[kept++] = r;
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
    total.cached += counts.cached;
  });
  static Counter& recomputed =
      StatsRegistry::instance().counter("dft.impact_rows_recomputed");
  static Counter& cached =
      StatsRegistry::instance().counter("dft.impact_rows_cached");
  recomputed.add(total.rows);
  cached.add(total.cached);
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
    for (const Scratch::Layer& layer : s->layers) {
      total += layer.pred.capacity() + layer.succ.capacity();
    }
  }
  return total;
}

}  // namespace gcnt
