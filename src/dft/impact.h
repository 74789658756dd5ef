#pragma once
// Impact evaluation for observation-point candidates (Section 4, Fig. 6).
//
// The impact of inserting an OP at node `a` is the reduction in positive
// (difficult-to-observe) predictions within a's fan-in cone: one OP can fix
// the observability of its whole upstream region. Evaluating a candidate
// tentatively must not touch the real netlist/tensors, so this evaluator:
//
//  * recomputes SCOAP CO for the (capped) fan-in cone under "a has an OP"
//    into an overlay,
//  * re-predicts the cone nodes with a D-hop recursive cascade evaluation
//    that reads overlay features where present (and models the virtual OP
//    node as an extra successor of `a`), memoizing (stage, depth, node)
//    embeddings within the candidate,
//  * counts positives before (from the whole-graph predictions) and after.
//
// Memo: a flat scratch, reset for every candidate. An epoch-stamped
// open-addressing table maps (stage, depth, node) — the virtual OP is one
// extra node id — to an offset into one float arena that holds every
// embedding; each depth has one aggregation buffer. A reset bumps the
// epoch, so nothing is cleared or freed between candidates. A scratch
// starts with room for a typical D = 3 neighbourhood (about 1.5 MB) and
// grows only with the largest neighbourhood it meets, never with the
// design size.
//
// Threading: impacts() ranks a candidate list over the kernel pool
// (common/parallel.h), eight blocks per thread because cone costs vary.
// Each running block borrows one scratch, made on the calling thread.
// Every impact is computed by the same serial arithmetic as impact_of(),
// so the result is identical for every thread count.

#include <cstdint>
#include <vector>

#include "gcn/model.h"
#include "scoap/scoap.h"

namespace gcnt {

class ImpactEvaluator {
 public:
  /// `stages` is a prediction cascade (size 1 = single GCN). All models
  /// must share depth/feature conventions with `tensors`.
  ImpactEvaluator(std::vector<const GcnModel*> stages, const Netlist& netlist,
                  const GraphTensors& tensors, const ScoapMeasures& scoap,
                  const std::vector<std::uint32_t>& levels);

  /// Impact = positives in cone(target) now - positives after a tentative
  /// OP insertion at `target`. `predictions` is the current whole-graph
  /// cascade output. The cone is capped at `cone_limit` nodes.
  int impact_of(NodeId target, const std::vector<std::int32_t>& predictions,
                std::size_t cone_limit = 128) const;

  /// impact_of() for every candidate, in parallel on the kernel pool:
  /// element i is the impact of candidates[i]. Traced as
  /// `dft.impact_rank` with the candidate count and the number of cone
  /// nodes re-predicted.
  std::vector<int> impacts(const std::vector<NodeId>& candidates,
                           const std::vector<std::int32_t>& predictions,
                           std::size_t cone_limit = 128) const;

 private:
  struct Scratch;

  int impact_of(NodeId target, const std::vector<std::int32_t>& predictions,
                std::size_t cone_limit, Scratch& scratch,
                std::size_t& cone_nodes) const;
  std::uint32_t embed(std::size_t stage, NodeId v, int depth,
                      Scratch& scratch) const;
  bool cascade_positive(NodeId v, Scratch& scratch) const;

  std::vector<const GcnModel*> stages_;
  const Netlist* netlist_;
  const GraphTensors* tensors_;
  const ScoapMeasures* scoap_;
  const std::vector<std::uint32_t>* levels_;
};

}  // namespace gcnt
