#pragma once
// SCOAP testability measures (Goldstein & Thigpen, DAC 1980).
//
// Combinational controllability CC0/CC1 and observability CO per node,
// under the full-scan assumption: primary inputs and scan flip-flop outputs
// cost 1 to control; primary outputs, scan D pins and observation points
// cost 0 to observe. These are the [C0, C1, O] node attributes of the
// paper's GCN (Section 3.1), alongside the logic level LL.
//
// Values use saturating arithmetic so deep circuits cannot overflow.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace gcnt {

/// Saturation ceiling for SCOAP values.
constexpr std::uint32_t kScoapInfinity = 1u << 24;

struct ScoapMeasures {
  std::vector<std::uint32_t> cc0;  ///< cost of setting the node's output to 0
  std::vector<std::uint32_t> cc1;  ///< cost of setting the node's output to 1
  std::vector<std::uint32_t> co;   ///< cost of observing the node's output
};

/// Saturating add capped at kScoapInfinity.
constexpr std::uint32_t scoap_add(std::uint32_t a, std::uint32_t b) noexcept {
  const std::uint64_t sum = static_cast<std::uint64_t>(a) + b;
  return sum >= kScoapInfinity ? kScoapInfinity
                               : static_cast<std::uint32_t>(sum);
}

/// Computes all three measures for every node.
ScoapMeasures compute_scoap(const Netlist& netlist);
/// The same from the caller's netlist.topological_order(), so a caller
/// that also needs logic_levels(order) sorts once.
ScoapMeasures compute_scoap(const Netlist& netlist,
                            const std::vector<NodeId>& order);

/// Recomputes only controllability, in `order` (netlist.topological_order()).
void compute_controllability(const Netlist& netlist,
                             const std::vector<NodeId>& order,
                             ScoapMeasures& measures);

/// Recomputes only observability, in reverse `order`
/// (netlist.topological_order()); requires controllability to be up to
/// date.
void compute_observability(const Netlist& netlist,
                           const std::vector<NodeId>& order,
                           ScoapMeasures& measures);

/// Repairs observability after insert_observe_point(target) and returns
/// the nodes whose CO changed, each once, in descending logic level. CC
/// is unaffected, CO(v) reads only v's fanouts' CO, and only `target`
/// gained a fanout: so it recomputes `target`, then the fanins of each
/// node whose CO changed, and every other node keeps its stored CO (which
/// must be the full pass's). Extends `measures` via `resize_for`; counts
/// into the `scoap.co_repair_visited` / `_changed` counters.
std::vector<NodeId> update_observability_after_observe(
    const Netlist& netlist, NodeId target, ScoapMeasures& measures);

/// The same repair with the caller's logic levels instead of a fresh
/// netlist.logic_levels() pass over the whole design (the 3-argument form
/// computes them and forwards here). `levels` must equal logic_levels()
/// on every node of target's fan-in cone; an OP is a sink and never
/// enters a fan-in cone, so levels extended per inserted OP qualify.
std::vector<NodeId> update_observability_after_observe(
    const Netlist& netlist, NodeId target, ScoapMeasures& measures,
    const std::vector<std::uint32_t>& levels);

/// Extends the measure vectors for nodes appended since the last compute
/// (new OBSERVE nodes); new entries get neutral values.
void resize_for(const Netlist& netlist, ScoapMeasures& measures);

/// Observability cost of fanin slot `slot` of gate `g` given the gate's own
/// output observability `gate_co` (cost of sensitizing the path through g,
/// using the controllability in `measures`). Exposed for overlay-style
/// tentative evaluation (OP impact analysis).
std::uint32_t scoap_observe_through(const Netlist& netlist, NodeId g,
                                    std::size_t slot,
                                    const ScoapMeasures& measures,
                                    std::uint32_t gate_co);

/// The SCOAP observability rule for a non-sink node v: the minimum, over
/// every (fanout g, fanin slot of g that v drives), of
/// scoap_observe_through with g's output CO read through `co_of(g)`.
/// Incremental repair and tentative overlays differ only in where a
/// fanout's CO comes from; sinks (CO 0) are left to the caller. The full
/// pass (compute_observability) applies the same rule gate by gate,
/// pushing each gate's cost to all its fanins at once.
template <typename CoOf>
std::uint32_t observability_through_fanouts(const Netlist& netlist, NodeId v,
                                            const ScoapMeasures& measures,
                                            const CoOf& co_of) {
  std::uint32_t best = kScoapInfinity;
  for (NodeId g : netlist.fanouts(v)) {
    const auto& gf = netlist.fanins(g);
    for (std::size_t slot = 0; slot < gf.size(); ++slot) {
      if (gf[slot] != v) continue;
      best = std::min(
          best, scoap_observe_through(netlist, g, slot, measures, co_of(g)));
    }
  }
  return best;
}

}  // namespace gcnt
