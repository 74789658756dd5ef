#pragma once
// GcnEngine: the one prediction interface the OPI/CPI flows and serve
// sessions hold. Each engine is a schedule over GcnModel::layer_step — all
// rows (refresh), dirty rows (IncrementalGcnEngine) or one shard's rows at
// a time (ShardedGcnEngine, the last engine with a separate fc_head) —
// with bit-identical logits, so callers never need to know which runs.
//
// The base owns the contract both engines share: the dirty-fraction
// fallback to a full pass, the CSR/dirty-id input checks, the cached
// logits, and the int8 downgrade count (engines compute fp32; a model set
// to the library-only int8 tier ticks the `quant.fallback` counter once
// per pass instead of silently mixing tiers).
//
// OPI impact ranking (dft/impact.h) reads the cache read-only: the logits
// and, where an engine keeps them, E_0..E_{D-1}.
//
// The sharded engine is library-only: no command selects it. It stays for
// perfbench's sharded probes and goes with them (ROADMAP item 4).

#include <cstddef>
#include <memory>
#include <vector>

#include "gcn/graph_tensors.h"
#include "gcn/model.h"

namespace gcnt {

/// The dirty fraction past which an engine's update() runs a full pass
/// instead: beyond it the subset bookkeeping costs more than it saves.
inline constexpr double kFullFallbackFraction = 0.25;

class GcnEngine {
 public:
  virtual ~GcnEngine() = default;
  GcnEngine(const GcnEngine&) = delete;
  GcnEngine& operator=(const GcnEngine&) = delete;

  /// Full whole-graph forward; seeds the engine's caches.
  const Matrix& refresh(const GraphTensors& tensors);

  /// Re-propagates only `dirty` rows (a DirtyConeTracker::affected set for
  /// this model's depth, against the *rebuilt* tensors, including every
  /// appended node). Falls back to refresh() when there is no cache yet
  /// or the dirty fraction exceeds the engine's threshold. Returns the
  /// updated whole-graph logits.
  const Matrix& update(const GraphTensors& tensors,
                       const std::vector<NodeId>& dirty);

  /// Logits of the last refresh()/update() (N x num_classes, node order).
  const Matrix& logits() const noexcept { return logits_; }
  /// E_0..E_{D-1} of the last pass in compute row order, or null for an
  /// engine that keeps no whole-graph embeddings (sharded).
  virtual const std::vector<Matrix>* embeddings() const noexcept {
    return nullptr;
  }
  const GcnModel& model() const noexcept { return *model_; }

  /// Positive-class probability per node from the cached logits —
  /// identical to GcnModel::predict_positive_probability.
  std::vector<float> positive_probability() const;

  /// True when the last update() degenerated to a full forward.
  bool last_was_full() const noexcept { return last_was_full_; }
  /// Rows re-propagated by the last update() (node count on fallback).
  std::size_t last_dirty_rows() const noexcept { return last_dirty_rows_; }

 protected:
  GcnEngine(const GcnModel& model, double full_fallback_fraction)
      : model_(&model), full_fallback_fraction_(full_fallback_fraction) {}

  /// Whole-graph pass writing logits_ (node order, resized to N).
  virtual void full_pass(const GraphTensors& tensors) = 0;
  /// Dirty-row pass over validated inputs; cached_nodes_ still holds the
  /// node count of the previous pass (appended rows are n - cached_nodes_).
  virtual void dirty_pass(const GraphTensors& tensors,
                          const std::vector<NodeId>& dirty) = 0;

  const GcnModel* model_;
  Matrix logits_;
  std::size_t cached_nodes_ = 0;  ///< 0 = no valid cache

 private:
  void check_tensors(const GraphTensors& tensors) const;

  double full_fallback_fraction_;
  bool last_was_full_ = false;
  std::size_t last_dirty_rows_ = 0;
};

/// The engine a flow predicts through: IncrementalGcnEngine when
/// `shards` is 0, else a ShardedGcnEngine with that shard count and halo
/// depth. Both use their default dirty-fraction fallback.
std::unique_ptr<GcnEngine> make_gcn_engine(const GcnModel& model,
                                           std::size_t shards = 0,
                                           int halo = 1);

}  // namespace gcnt
