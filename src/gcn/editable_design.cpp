#include "gcn/editable_design.h"

#include <algorithm>
#include <stdexcept>

#include "common/error.h"
#include "nn/loss.h"

namespace gcnt {

namespace {

/// Serve passes client-supplied ids straight through, so out-of-range ids
/// and cells the edit cannot apply to are usage errors, not invariants.
void check_target(const Netlist& netlist, NodeId target, bool observe) {
  if (target >= netlist.size()) {
    throw Error(ErrorKind::kUsage,
                std::string(observe ? "observe" : "control") + " target " +
                    std::to_string(target) + " out of range (session has " +
                    std::to_string(netlist.size()) + " nodes)");
  }
  if (observe ? !netlist.can_observe(target) : !netlist.can_control(target)) {
    throw Error(ErrorKind::kUsage,
                "node " + std::to_string(target) + " cannot take " +
                    (observe ? "an observation point" : "a control point"));
  }
}

}  // namespace

EditableDesign::EditableDesign(Netlist& netlist, bool standardize_features)
    : netlist_(netlist), standardize_(standardize_features) {
  sync();
}

void EditableDesign::set_models(const std::vector<const GcnModel*>& stages,
                                std::size_t shards, int halo) {
  engines_.clear();
  max_depth_ = 0;
  for (const GcnModel* stage : stages) {
    engines_.push_back(make_gcn_engine(*stage, shards, halo));
    max_depth_ = std::max(max_depth_, stage->config().depth);
  }
  primed_ = false;
}

NodeId EditableDesign::observe(NodeId target) {
  check_target(netlist_, target, true);
  const NodeId op = netlist_.insert_observe_point(target);
  // The appended edge perturbs the aggregation of both endpoints.
  tracker_.record_edge(target, op);
  // A pending rebuild recomputes and diffs everything anyway.
  if (rebuild_pending_) return op;
  // The OP is a sink one level past its target and changes no other
  // node's level, so levels_ stays equal to logic_levels() without a
  // full relevelization.
  levels_.resize(netlist_.size(), 0);
  levels_[op] = levels_[target] + 1;
  const std::vector<NodeId> changed_co =
      update_observability_after_observe(netlist_, target, scoap_, levels_);
  // Only rows whose encoded feature changed bits are seeded: a subset of
  // the nodes whose CO changed.
  std::vector<NodeId> changed_rows;
  append_observe_point(tensors_, netlist_, target, op, scoap_, changed_co,
                       &changed_rows);
  for (const NodeId v : changed_rows) tracker_.record_feature(v);
  csr_stale_ = true;
  return op;
}

Netlist::ControlPoint EditableDesign::control(NodeId target,
                                              bool drive_to_one) {
  check_target(netlist_, target, false);
  const Netlist::ControlPoint cp =
      netlist_.insert_control_point(target, drive_to_one);
  // Structural seeds: the retargeted driver and every rewired consumer.
  // The new cells and the changed feature rows come from the rebuild diff.
  tracker_.record_feature(target);
  for (const NodeId w : netlist_.fanouts(cp.gate)) tracker_.record_feature(w);
  rebuild_pending_ = true;
  return cp;
}

void EditableDesign::sync() {
  if (rebuild_pending_) {
    const std::vector<NodeId> order = netlist_.topological_order();
    scoap_ = compute_scoap(netlist_, order);
    levels_ = netlist_.logic_levels(order);
    GraphTensors rebuilt =
        build_graph_tensors(netlist_, scoap_, levels_, &tensors_);
    if (standardize_) rebuilt.standardize_features();
    // Primed engines update over every appended node and every feature
    // row that changed; unprimed ones refresh anyway.
    for (NodeId v = 0; primed_ && v < rebuilt.node_count(); ++v) {
      const float* after = rebuilt.features.row(v);
      if (v >= tensors_.node_count() ||
          !std::equal(after, after + kNodeFeatureDim,
                      tensors_.features.row(v))) {
        tracker_.record_feature(v);
      }
    }
    tensors_ = std::move(rebuilt);
  } else if (csr_stale_) {
    tensors_.rebuild_csr();
  }
  rebuild_pending_ = false;
  csr_stale_ = false;
}

EditableDesign::Prediction EditableDesign::predict() {
  if (engines_.empty()) {
    throw std::logic_error("EditableDesign::predict: no models set");
  }
  sync();
  Prediction result;
  if (!primed_) {
    for (auto& engine : engines_) engine->refresh(tensors_);
    primed_ = true;
    result.refreshed = true;
  } else if (!tracker_.empty()) {
    const std::vector<NodeId> dirty = tracker_.affected(tensors_, max_depth_);
    result.dirty_rows = dirty.size();
    for (auto& engine : engines_) {
      engine->update(tensors_, dirty);
      if (engine->last_was_full()) ++result.full_fallbacks;
    }
  }
  tracker_.clear();
  return result;
}

std::vector<std::int32_t> EditableDesign::predictions() const {
  std::vector<std::int32_t> positive(engines_.front()->logits().rows(), 1);
  for (const auto& engine : engines_) {
    const Matrix& logits = engine->logits();
    for (std::size_t v = 0; v < positive.size(); ++v) {
      if (!predicts_positive(logits.row(v), logits.cols())) positive[v] = 0;
    }
  }
  return positive;
}

}  // namespace gcnt
