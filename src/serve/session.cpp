#include "serve/session.h"

#include "common/log.h"
#include "common/stats.h"
#include "common/trace.h"
#include "gcn/serialize.h"

namespace gcnt::serve {

ModelRegistry::ModelRegistry(std::string path)
    : path_(std::move(path)),
      model_(std::make_shared<const GcnModel>(load_model_file(path_))) {}

ModelRegistry::Snapshot ModelRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Snapshot{model_, generation_};
}

std::uint64_t ModelRegistry::reload(const std::string& path) {
  // Load and verify outside the lock: a corrupt artifact throws here and
  // the served model is never touched (load_model_file checks the
  // envelope CRC, the architecture bounds, and weight finiteness).
  const std::string source = path.empty() ? path_ : path;
  auto fresh = std::make_shared<const GcnModel>(load_model_file(source));
  std::lock_guard<std::mutex> lock(mutex_);
  model_ = std::move(fresh);
  path_ = source;
  ++generation_;
  StatsRegistry::instance().counter("serve.model_reloads").add();
  log_info("serve: model reloaded from ", source, " (generation ",
           generation_, ")");
  return generation_;
}

ServeSession::ServeSession(std::string name, Netlist netlist,
                           bool standardize)
    : name_(std::move(name)),
      netlist_(std::move(netlist)),
      design_(netlist_, standardize) {}

const Matrix& ServeSession::logits(const ModelRegistry::Snapshot& snapshot,
                                   ForwardWorkspace& ws) {
  GCNT_KERNEL_SCOPE("serve.session_infer");
  if (model_generation_ != snapshot.generation) {
    // Hot reload: drop every cache derived from the old weights. The next
    // forward rebuilds them; the old model dies with its last snapshot.
    model_ = snapshot.model;
    model_generation_ = snapshot.generation;
    design_.set_models({});
  }

  if (!design_.has_pending_edits() && !design_.primed()) {
    // Pure-infer session: no per-layer embedding cache is kept, the full
    // forward runs through the calling worker's reusable workspace, and
    // repeat requests are cache hits.
    if (plain_logits_.rows() == 0 || plain_generation_ != model_generation_) {
      model_->infer(design_.tensors(), ws, plain_logits_);
      plain_generation_ = model_generation_;
    }
    return plain_logits_;
  }

  // Edited session: the incremental engine caches E_0..E_{D-1} so an
  // insertion batch costs one dirty-cone re-propagation.
  if (!design_.primed()) design_.set_models({model_.get()});
  static Counter& dirty_rows =
      StatsRegistry::instance().counter("serve.dirty_rows");
  dirty_rows.add(design_.predict().dirty_rows);
  return design_.engine(0).logits();
}

const Matrix* ServeSession::cached_logits(
    const ModelRegistry::Snapshot& snapshot) const noexcept {
  // The engine's cached logits stay bit-valid across edits (predict()
  // keeps them current modulo pending edits); the engine is dropped on
  // reload before model_generation_ advances, so the generation check
  // gates both sources.
  if (design_.primed() && model_generation_ == snapshot.generation) {
    return &design_.engine(0).logits();
  }
  if (plain_logits_.rows() != 0 && plain_generation_ == snapshot.generation) {
    return &plain_logits_;
  }
  return nullptr;
}

}  // namespace gcnt::serve
