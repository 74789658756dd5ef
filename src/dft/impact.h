#pragma once
// Impact evaluation for observation-point candidates (Section 4, Fig. 6):
// the reduction in positive (difficult-to-observe) predictions within the
// fan-in cone of a tentative OP at node `a`, evaluated on a local graph:
//
//  * The (capped) fan-in cone plus `a` gets its SCOAP CO recomputed under
//    "a has an OP" into an overlay. The seeds S are `a`, the virtual OP
//    and the cone rows whose CO moves: the only rows whose features or
//    adjacency the tentative edit changes. dist(v) is v's hop distance
//    from S over pred/succ plus the OP edge, up to the deepest stage's D.
//  * Local rows are the global CSR rows (through row_of/node_of), nonzero
//    order and values kept. The virtual OP's pred row is {a}, and it ends
//    a's succ row, where rebuild_csr() puts a real OP. E_0 holds the
//    features, the overlay in column 3 and the encoded [0, 1, 1, 0] OP row.
//  * A stage of depth D recomputes L_{D-1}, the cone rows all earlier
//    stages kept with dist <= D; L_{d-1} is the rows of L_d and their
//    neighbours with dist <= d. Layer d is GcnModel::layer_step over L_d;
//    its inputs are L_{d-1}'s outputs, E_0 at d = 0, or else the stage
//    engine's cached E_d. The last layer runs through the FC head; a kept
//    cone row outside L_{D-1} reads the engine's cached logits.
//  * Without caches (the five-argument constructor, or the sharded engine,
//    which keeps no whole-graph E_d) every row counts as a seed, so every
//    input of the closure is computed, through the same code.
//
// Exactness: a row farther than d hops from S keeps its E_d bit for bit,
// by induction over d, and layer_step computes a row alike whatever rows
// surround it, so every "after" logit is bitwise the engine's row after
// insert_observe_point, the overlay and rebuild_csr(); uncapped, those of
// EditableDesign::observe(a). A row is positive by predicts_positive()
// (nn/loss.h), as in EditableDesign::predictions().
//
// impacts() ranks candidates over the kernel pool, eight blocks per
// thread. Each running block borrows a scratch made on the calling thread
// (one node -> local row word per node; per-row metadata, per-layer CSRs
// refilled in place, activations and a ForwardWorkspace) and records no
// layer spans. Scratches are kept for the next call. Results are identical
// at any thread count, with or without caches.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gcn/editable_design.h"
#include "gcn/model.h"
#include "scoap/scoap.h"

namespace gcnt {

class ImpactEvaluator {
 public:
  /// `stages` is a prediction cascade (size 1 = single GCN). All models
  /// must share feature conventions with `tensors`; depths may differ.
  /// Reads no caches: every row is recomputed.
  ImpactEvaluator(std::vector<const GcnModel*> stages, const Netlist& netlist,
                  const GraphTensors& tensors, const ScoapMeasures& scoap,
                  const std::vector<std::uint32_t>& levels);

  /// Ranks against `design`'s last predict(), reading the engines' cached
  /// E_d and logits. The design must stay unedited while in use. Throws
  /// Error{kUsage} for stale caches: pending edits, no predict() since
  /// set_models(), or cached row counts that differ from the tensors.
  explicit ImpactEvaluator(EditableDesign& design);
  ~ImpactEvaluator();

  /// Impact = positives in cone(target) now - positives after a tentative
  /// OP insertion at `target`. `predictions` is the current whole-graph
  /// cascade output. The cone is capped at `cone_limit` nodes. Throws
  /// std::invalid_argument unless `predictions`, the netlist and the
  /// rebuilt tensors have one size; std::out_of_range for a bad target.
  int impact_of(NodeId target, const std::vector<std::int32_t>& predictions,
                std::size_t cone_limit = 128) const;

  /// impact_of() for every candidate, in parallel on the kernel pool:
  /// element i is the impact of candidates[i]. Traced as `dft.impact_rank`
  /// (`candidates`, `cone_nodes` and `rows`, the local rows re-predicted)
  /// and counted in `dft.impact_rows_recomputed` / `_cached`.
  std::vector<int> impacts(const std::vector<NodeId>& candidates,
                           const std::vector<std::int32_t>& predictions,
                           std::size_t cone_limit = 128) const;

  /// CsrMatrix::capacity() summed over the local CSRs of the scratches
  /// impacts() keeps between calls; it grows only when a closure
  /// outgrows every earlier one (tests).
  std::size_t csr_capacity() const;

 private:
  struct Scratch;
  struct Counts { std::size_t cone_nodes = 0, rows = 0, cached = 0; };

  int impact_of(NodeId target, const std::vector<std::int32_t>& predictions,
                std::size_t cone_limit, Scratch& scratch,
                Counts& counts) const;

  std::vector<const GcnModel*> stages_;
  std::vector<const GcnEngine*> engines_;  ///< per stage; empty: no caches
  const Netlist* netlist_;
  const GraphTensors* tensors_;
  const ScoapMeasures* scoap_;
  const std::vector<std::uint32_t>* levels_;
  std::size_t depth_ = 0;  ///< the deepest stage's D
  mutable std::mutex mutex_;  ///< guards idle_
  /// Scratches not running a block, kept from call to call.
  mutable std::vector<std::unique_ptr<Scratch>> idle_;
};

}  // namespace gcnt
