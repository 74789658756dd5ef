#include "gcn/engine.h"

#include <stdexcept>

#include "common/stats.h"
#include "gcn/incremental.h"
#include "gcn/shard.h"
#include "nn/loss.h"

namespace gcnt {

void GcnEngine::check_tensors(const GraphTensors& tensors) const {
  const std::size_t n = tensors.node_count();
  if (tensors.pred.rows() != n || tensors.succ.rows() != n) {
    throw std::invalid_argument("GcnEngine: tensors need rebuild_csr()");
  }
  if (model_->precision() == Precision::kInt8) {
    static Counter& fallbacks =
        StatsRegistry::instance().counter("quant.fallback");
    fallbacks.add();
  }
}

const Matrix& GcnEngine::refresh(const GraphTensors& tensors) {
  check_tensors(tensors);
  full_pass(tensors);
  cached_nodes_ = tensors.node_count();
  last_was_full_ = true;
  last_dirty_rows_ = cached_nodes_;
  return logits_;
}

const Matrix& GcnEngine::update(const GraphTensors& tensors,
                                const std::vector<NodeId>& dirty) {
  const std::size_t n = tensors.node_count();
  if (cached_nodes_ == 0 || n < cached_nodes_ ||
      static_cast<double>(dirty.size()) >
          full_fallback_fraction_ * static_cast<double>(n)) {
    return refresh(tensors);
  }
  for (const NodeId v : dirty) {
    if (v >= n) {
      throw std::out_of_range("GcnEngine::update: dirty node out of range");
    }
  }
  check_tensors(tensors);
  last_was_full_ = false;
  last_dirty_rows_ = dirty.size();
  dirty_pass(tensors, dirty);
  cached_nodes_ = n;
  return logits_;
}

std::vector<float> GcnEngine::positive_probability() const {
  const Matrix probabilities = softmax(logits_);
  std::vector<float> positive(probabilities.rows());
  for (std::size_t r = 0; r < probabilities.rows(); ++r) {
    positive[r] = probabilities.at(r, 1);
  }
  return positive;
}

std::unique_ptr<GcnEngine> make_gcn_engine(const GcnModel& model,
                                           std::size_t shards, int halo,
                                           std::string spill_dir) {
  if (shards == 0) return std::make_unique<IncrementalGcnEngine>(model);
  ShardedGcnOptions options;
  options.shards = shards;
  options.halo = halo;
  options.spill_dir = std::move(spill_dir);
  return std::make_unique<ShardedGcnEngine>(model, std::move(options));
}

}  // namespace gcnt
