#include "serve/session.h"

#include "common/log.h"
#include "common/stats.h"
#include "common/trace.h"
#include "gcn/serialize.h"

namespace gcnt::serve {

namespace {

/// load_model_file + the registry's precision policy: an explicit kInt8
/// request calibrates a freshly loaded fp32 model; otherwise the model
/// keeps the tier its artifact encodes.
GcnModel load_serving_model(const std::string& path, Precision precision) {
  GcnModel model = load_model_file(path);
  if (precision == Precision::kInt8 &&
      model.precision() != Precision::kInt8) {
    model.set_precision(Precision::kInt8);
  }
  if (model.precision() == Precision::kInt8) {
    log_info("serve: model serving int8 inference (unedited sessions; "
             "edited sessions fall back to fp32 incremental)");
  }
  return model;
}

}  // namespace

ModelRegistry::ModelRegistry(std::string path, Precision precision)
    : path_(std::move(path)), precision_(precision) {
  model_ = std::make_shared<const GcnModel>(
      load_serving_model(path_, precision_));
}

ModelRegistry::Snapshot ModelRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Snapshot{model_, generation_};
}

std::uint64_t ModelRegistry::reload(const std::string& path) {
  // Load and verify outside the lock: a corrupt artifact throws here and
  // the served model is never touched (load_model_file checks the
  // envelope CRC, the architecture bounds, and weight finiteness).
  const std::string source = path.empty() ? path_ : path;
  auto fresh = std::make_shared<const GcnModel>(
      load_serving_model(source, precision_));
  std::lock_guard<std::mutex> lock(mutex_);
  model_ = std::move(fresh);
  path_ = source;
  ++generation_;
  StatsRegistry::instance().counter("serve.model_reloads").add();
  log_info("serve: model reloaded from ", source, " (generation ",
           generation_, ")");
  return generation_;
}

namespace {

bool valid_control_target(const Netlist& netlist, NodeId v) {
  const CellType t = netlist.type(v);
  return !is_sink(t) && t != CellType::kInput;
}

}  // namespace

ServeSession::ServeSession(std::string name, Netlist netlist,
                           bool standardize)
    : name_(std::move(name)),
      netlist_(std::move(netlist)),
      standardize_(standardize) {
  scoap_ = compute_scoap(netlist_);
  levels_ = netlist_.logic_levels();
  tensors_ = build_graph_tensors(netlist_, scoap_, levels_);
  if (standardize_) tensors_.standardize_features();
}

void ServeSession::ensure_model(const ModelRegistry::Snapshot& snapshot) {
  if (model_generation_ == snapshot.generation) return;
  // Hot reload: drop every cache derived from the old weights. The next
  // forward rebuilds them; the old model dies with its last snapshot.
  model_ = snapshot.model;
  model_generation_ = snapshot.generation;
  engine_.reset();
  have_cache_ = false;
  have_plain_ = false;
}

const Matrix& ServeSession::logits(const ModelRegistry::Snapshot& snapshot,
                                   ForwardWorkspace& ws) {
  GCNT_KERNEL_SCOPE("serve.session_infer");
  ensure_model(snapshot);

  if (structural_rebuild_) {
    // Control-point insertion rewires fanouts, so the delta is not
    // append-only: rebuild the tensors and seed the dirty cone with the
    // rows that actually changed (same scheme as run_gcn_cpi).
    scoap_ = compute_scoap(netlist_);
    levels_ = netlist_.logic_levels();
    GraphTensors fresh = build_graph_tensors(netlist_, scoap_, levels_);
    if (standardize_) fresh.standardize_features();
    if (engine_ && have_cache_) tracker_.record_rebuild(tensors_, fresh);
    tensors_ = std::move(fresh);
    structural_rebuild_ = false;
    csr_stale_ = false;
  }
  if (csr_stale_) {
    tensors_.rebuild_csr();
    csr_stale_ = false;
  }

  const bool pending_edits = !tracker_.empty();
  if (!pending_edits && engine_ == nullptr) {
    // Pure-infer session: no per-layer embedding cache is kept, the full
    // forward runs through the calling worker's reusable workspace, and
    // repeat requests are cache hits.
    if (!have_plain_) {
      model_->infer(tensors_, ws, plain_logits_);
      have_plain_ = true;
      plain_generation_ = model_generation_;
    }
    return plain_logits_;
  }

  // Edited session: the incremental engine caches E_0..E_D so an
  // insertion batch costs one dirty-cone re-propagation.
  if (engine_ == nullptr) {
    engine_ = make_gcn_engine(*model_);
    have_cache_ = false;
    have_plain_ = false;
  }
  if (!have_cache_) {
    engine_->refresh(tensors_);
    have_cache_ = true;
    tracker_.clear();
  } else if (pending_edits) {
    const std::vector<NodeId> dirty =
        tracker_.affected(tensors_, model_->config().depth);
    StatsRegistry::instance().counter("serve.dirty_rows").add(dirty.size());
    engine_->update(tensors_, dirty);
    tracker_.clear();
  }
  return engine_->logits();
}

const Matrix* ServeSession::cached_logits(
    const ModelRegistry::Snapshot& snapshot) const noexcept {
  // The engine's cached logits stay bit-valid across edits (update()
  // keeps them current modulo un-propagated tracker entries); engine_
  // and have_cache_ are dropped on reload before model_generation_
  // advances, so the generation check gates both sources.
  if (engine_ && have_cache_ && model_generation_ == snapshot.generation) {
    return &engine_->logits();
  }
  if (plain_logits_.rows() != 0 && plain_generation_ == snapshot.generation) {
    return &plain_logits_;
  }
  return nullptr;
}

NodeId ServeSession::append_observe(NodeId target) {
  if (target >= netlist_.size()) {
    throw Error(ErrorKind::kUsage,
                "observe target " + std::to_string(target) +
                    " out of range (session has " +
                    std::to_string(netlist_.size()) + " nodes)");
  }
  if (!netlist_.can_observe(target)) {
    throw Error(ErrorKind::kUsage,
                "node " + std::to_string(target) +
                    " cannot take an observation point");
  }
  const NodeId op = netlist_.insert_observe_point(target);
  update_observability_after_observe(netlist_, target, scoap_);
  levels_.resize(netlist_.size(), 0);
  levels_[op] = levels_[target] + 1;
  const std::vector<NodeId> cone = netlist_.fanin_cone(target);
  std::vector<NodeId> changed_rows;
  append_observe_point(tensors_, netlist_, target, op, scoap_, cone,
                       &changed_rows);
  tracker_.record_new_node(op);
  tracker_.record_edge(target, op);
  for (NodeId v : changed_rows) tracker_.record_feature(v);
  csr_stale_ = true;
  have_plain_ = false;
  return op;
}

Netlist::ControlPoint ServeSession::append_control(NodeId target,
                                                   bool drive_to_one) {
  if (target >= netlist_.size()) {
    throw Error(ErrorKind::kUsage,
                "control target " + std::to_string(target) +
                    " out of range (session has " +
                    std::to_string(netlist_.size()) + " nodes)");
  }
  if (!valid_control_target(netlist_, target)) {
    throw Error(ErrorKind::kUsage,
                "node " + std::to_string(target) +
                    " cannot take a control point");
  }
  const Netlist::ControlPoint cp =
      netlist_.insert_control_point(target, drive_to_one);
  // Structural seeds; feature deltas come from the rebuild diff.
  tracker_.record_new_node(cp.control);
  tracker_.record_new_node(cp.gate);
  if (cp.inverter != kInvalidNode) tracker_.record_new_node(cp.inverter);
  tracker_.record_feature(target);
  for (NodeId w : netlist_.fanouts(cp.gate)) tracker_.record_feature(w);
  structural_rebuild_ = true;
  have_plain_ = false;
  return cp;
}

}  // namespace gcnt::serve
