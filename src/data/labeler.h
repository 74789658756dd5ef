#pragma once
// Difficult-to-observe labeling — the stand-in for the paper's commercial
// DFT tool labels (Section 3.1: "Labels can be obtained from commercial
// DFT tools").
//
// Two oracles are provided:
//
//  * kEmpirical (default): for every node, inject an inversion and count
//    under how many random patterns the change reaches any observed point
//    (scan cell / PO). A node is labeled difficult-to-observe iff
//    observed / (64 * batches) < `min_observed_rate`. This is the
//    behavioral definition commercial tools approximate.
//    The count only grows, so once it reaches the smallest k with
//    !(k / patterns < rate) the node's label is fixed at 0: its probe stops
//    mid-propagation and later batches skip it. Labels are exactly those of
//    the full count. The cost is one probe per open node per batch, and a
//    probe runs to completion only for a node that has not yet settled by
//    its end. On generated designs most nodes settle within the first
//    batch: 16 batches over a 6.7k-node design take 74-94 ms, against
//    8.6-9.1 s for full counts (`gcnt label`, one thread of a 4-vCPU
//    AVX-512 Xeon).
//  * kCopThreshold: label nodes whose analytic COP observability falls
//    below `cop_threshold`. One linear pass, with no simulation.
//
// Sink pseudo-cells (PO / OP) and sources are labeled easy: there is
// nothing to observe behind a pin, and scan cells are observed directly.

#include <cstdint>
#include <vector>

#include "cop/cop.h"
#include "netlist/netlist.h"

namespace gcnt {

struct LabelerOptions {
  enum class Oracle { kEmpirical, kCopThreshold };
  Oracle oracle = Oracle::kEmpirical;
  /// kEmpirical: number of 64-pattern batches to probe with.
  std::size_t batches = 16;
  /// kEmpirical: observed-fraction below which a node is positive.
  double min_observed_rate = 0.01;
  /// kCopThreshold: COP observability below which a node is positive.
  double cop_threshold = 5e-3;
  std::uint64_t seed = 97;
};

/// Per-node labels: 1 = difficult-to-observe, 0 = easy.
std::vector<std::int32_t> label_difficult_to_observe(
    const Netlist& netlist, const LabelerOptions& options = {});

/// COP-threshold labeling against precomputed measures.
std::vector<std::int32_t> label_by_cop(const Netlist& netlist,
                                       const CopMeasures& cop,
                                       double threshold);

/// Difficult-to-control labels: min(P(=1), P(=0)) below `threshold`
/// (the control-side analog, used by the CPI extension).
std::vector<std::int32_t> label_difficult_to_control(const Netlist& netlist,
                                                     const CopMeasures& cop,
                                                     double threshold);

}  // namespace gcnt
