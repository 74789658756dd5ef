#pragma once
// Impact evaluation for observation-point candidates (Section 4, Fig. 6):
// the reduction in positive (difficult-to-observe) predictions within the
// fan-in cone of a tentative OP at node `a`, evaluated on a local graph:
//
//  * R_0 is the (capped) fan-in cone plus `a`, its SCOAP CO recomputed
//    under "a has an OP" into an overlay; R_{k+1} is R_k plus the
//    pred/succ neighbours of its rows, up to the deepest stage's R_D.
//  * Local rows are the global CSR rows (through row_of/node_of), nonzero
//    order and values kept. The virtual OP is one extra row: its pred
//    row is {a}, and it ends a's succ row, where rebuild_csr() puts a
//    real OP. E_0 holds the features, the overlay in column 3 of the cone
//    rows and the encoded [0, 1, 1, 0] OP row.
//  * Layer d of a depth-D stage is GcnModel::layer_step over the rows of
//    R_{D-1-d} (a |R_{D-1-d}| x |R_{D-d}| CSR); the last one runs through
//    the FC head for the cone rows all earlier stages kept.
//
// Exactness: rows of R_k read only rows of R_{k+1}, and layer_step
// computes a row alike whatever rows surround it, so every "after" logit
// is bitwise the engine's row after insert_observe_point, the overlay and
// rebuild_csr(); uncapped, those of EditableDesign::observe(a).
//
// impacts() ranks candidates over the kernel pool, eight blocks per
// thread. Each running block borrows a scratch made on the calling thread
// (a node -> local row word per node; local rows, their CSRs refilled in
// place, activations and a ForwardWorkspace sized by the largest closure)
// and records no layer spans. Scratches are kept for the next call.
// Results are identical at any thread count.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gcn/model.h"
#include "scoap/scoap.h"

namespace gcnt {

class ImpactEvaluator {
 public:
  /// `stages` is a prediction cascade (size 1 = single GCN). All models
  /// must share feature conventions with `tensors`; depths may differ.
  ImpactEvaluator(std::vector<const GcnModel*> stages, const Netlist& netlist,
                  const GraphTensors& tensors, const ScoapMeasures& scoap,
                  const std::vector<std::uint32_t>& levels);
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
  /// (`candidates`, `cone_nodes` and `rows`, the local rows re-predicted).
  std::vector<int> impacts(const std::vector<NodeId>& candidates,
                           const std::vector<std::int32_t>& predictions,
                           std::size_t cone_limit = 128) const;

  /// CsrMatrix::capacity() summed over the local CSRs of the scratches
  /// impacts() keeps between calls; it grows only when a closure
  /// outgrows every earlier one (tests).
  std::size_t csr_capacity() const;

 private:
  struct Scratch;
  struct Counts { std::size_t cone_nodes = 0, rows = 0; };  ///< span args

  int impact_of(NodeId target, const std::vector<std::int32_t>& predictions,
                std::size_t cone_limit, Scratch& scratch,
                Counts& counts) const;

  std::vector<const GcnModel*> stages_;
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
