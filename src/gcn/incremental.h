#pragma once
// Incremental whole-graph inference for the OPI/CPI flows (Section 4).
//
// Inserting an observation point perturbs a bounded region of the graph:
// three appended COO tuples plus refreshed observability features in the
// target's fan-in cone. With D aggregation rounds, a node's logits can
// only change if it lies within D hops (along fanins *or* fanouts — Eq. 1
// aggregates both directions) of a perturbed node. DirtyConeTracker
// accumulates the perturbations of an insertion batch and computes that
// D-hop "dirty cone"; IncrementalGcnEngine keeps the per-layer embeddings
// E_0..E_{D-1} of the last full forward cached and re-propagates only the
// dirty rows, falling back to a full pass when the dirty fraction makes
// re-propagation pointless. Both passes run the last layer step through
// the FC head, so E_D is never stored. OPI impact ranking reads the same
// cache, read-only, for every row a tentative OP cannot change.
//
// The incremental path is bit-identical to GcnModel::infer on the updated
// tensors: both run GcnModel::layer_step, whose row-list form runs the
// same per-row aggregation, encoding and FC head as the whole-graph form,
// so recomputing a subset of rows yields exactly the bits a full pass
// would (pinned by tests/incremental_test.cpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gcn/engine.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gcn/workspace.h"

namespace gcnt {

/// Accumulates graph perturbations (appended edges, rewritten feature
/// rows, appended nodes) and expands them into the D-hop affected set.
class DirtyConeTracker {
 public:
  /// An appended edge from -> to perturbs the aggregation of both
  /// endpoints.
  void record_edge(NodeId from, NodeId to);

  /// Feature row `v` was rewritten (e.g. refreshed SCOAP CO).
  void record_feature(NodeId v);

  /// Node `v` was appended since the last sync (new OP / CP cells).
  void record_new_node(NodeId v);

  bool empty() const noexcept { return seeds_.empty(); }
  std::size_t seed_count() const noexcept { return seeds_.size(); }

  /// Forgets every recorded perturbation (after the engines consumed it).
  void clear() { seeds_.clear(); }

  /// The D-hop closure of the recorded seeds over the predecessor and
  /// successor adjacency of `tensors` (CSR forms must be rebuilt already,
  /// i.e. include the recorded edges). Sorted ascending, deduplicated.
  std::vector<NodeId> affected(const GraphTensors& tensors, int depth) const;

 private:
  std::vector<NodeId> seeds_;
};

/// Per-model incremental inference state: cached E_0..E_{D-1} and logits of
/// the last (full or incremental) forward. The model's parameters must not
/// change between calls (the OPI/CPI flows use trained, frozen models).
class IncrementalGcnEngine : public GcnEngine {
 public:
  explicit IncrementalGcnEngine(const GcnModel& model);

  /// Bitwise those of a full forward over the last pass's tensors.
  const std::vector<Matrix>* embeddings() const noexcept override {
    return &embeddings_;
  }

 private:
  /// GcnModel::infer with the embeddings sink, E_0..E_{D-1}.
  void full_pass(const GraphTensors& tensors) override;
  void dirty_pass(const GraphTensors& tensors,
                  const std::vector<NodeId>& dirty) override;

  std::vector<Matrix> embeddings_;  ///< E_0 .. E_{D-1}, compute row order
  /// Scratch reused by every pass; with a stable graph size the
  /// steady-state re-propagation allocates nothing.
  ForwardWorkspace ws_;
  /// Dirty node ids mapped into compute row order (reused scratch).
  std::vector<NodeId> dirty_rows_;
};

}  // namespace gcnt
