#include "scoap/scoap.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/stats.h"
#include "common/trace.h"

namespace gcnt {

namespace {

/// Controllability of a gate output from its fanin measures.
void gate_controllability(const Netlist& netlist, NodeId v,
                          const std::vector<std::uint32_t>& cc0,
                          const std::vector<std::uint32_t>& cc1,
                          std::uint32_t& out0, std::uint32_t& out1) {
  const auto& fanins = netlist.fanins(v);
  const CellType type = netlist.type(v);
  switch (type) {
    case CellType::kInput:
    case CellType::kDff:
    case CellType::kObserve:
      // Sources are fully controllable through the scan chain; observation
      // points carry the paper's fixed [0,1,1,0] attribute convention.
      out0 = 1;
      out1 = 1;
      return;
    case CellType::kBuf:
    case CellType::kOutput:
      out0 = scoap_add(cc0[fanins[0]], 1);
      out1 = scoap_add(cc1[fanins[0]], 1);
      return;
    case CellType::kNot:
      out0 = scoap_add(cc1[fanins[0]], 1);
      out1 = scoap_add(cc0[fanins[0]], 1);
      return;
    case CellType::kAnd:
    case CellType::kNand: {
      std::uint32_t all_one = 0;
      std::uint32_t min_zero = kScoapInfinity;
      for (NodeId u : fanins) {
        all_one = scoap_add(all_one, cc1[u]);
        min_zero = std::min(min_zero, cc0[u]);
      }
      const std::uint32_t zero_cost = scoap_add(min_zero, 1);
      const std::uint32_t one_cost = scoap_add(all_one, 1);
      if (type == CellType::kAnd) {
        out0 = zero_cost;
        out1 = one_cost;
      } else {
        out0 = one_cost;
        out1 = zero_cost;
      }
      return;
    }
    case CellType::kOr:
    case CellType::kNor: {
      std::uint32_t all_zero = 0;
      std::uint32_t min_one = kScoapInfinity;
      for (NodeId u : fanins) {
        all_zero = scoap_add(all_zero, cc0[u]);
        min_one = std::min(min_one, cc1[u]);
      }
      // OR is 0 only when every input is 0; it is 1 via any single input.
      const std::uint32_t all_zero_cost = scoap_add(all_zero, 1);
      const std::uint32_t any_one_cost = scoap_add(min_one, 1);
      if (type == CellType::kOr) {
        out0 = all_zero_cost;
        out1 = any_one_cost;
      } else {
        out0 = any_one_cost;
        out1 = all_zero_cost;
      }
      return;
    }
    case CellType::kXor:
    case CellType::kXnor: {
      // Dynamic program over inputs: cheapest cost of even / odd parity.
      std::uint32_t even = 0;
      std::uint32_t odd = kScoapInfinity;
      for (NodeId u : fanins) {
        const std::uint32_t new_even =
            std::min(scoap_add(even, cc0[u]), scoap_add(odd, cc1[u]));
        const std::uint32_t new_odd =
            std::min(scoap_add(even, cc1[u]), scoap_add(odd, cc0[u]));
        even = new_even;
        odd = new_odd;
      }
      const std::uint32_t parity0 = scoap_add(even, 1);
      const std::uint32_t parity1 = scoap_add(odd, 1);
      if (type == CellType::kXor) {
        out0 = parity0;
        out1 = parity1;
      } else {
        out0 = parity1;
        out1 = parity0;
      }
      return;
    }
  }
  out0 = kScoapInfinity;
  out1 = kScoapInfinity;
}

}  // namespace

void compute_controllability(const Netlist& netlist,
                             const std::vector<NodeId>& order,
                             ScoapMeasures& measures) {
  measures.cc0.assign(netlist.size(), kScoapInfinity);
  measures.cc1.assign(netlist.size(), kScoapInfinity);
  for (NodeId v : order) {
    gate_controllability(netlist, v, measures.cc0, measures.cc1,
                         measures.cc0[v], measures.cc1[v]);
  }
}

namespace {

/// Calls visit(slot, cost) for every fanin slot of gate `g`, cost being
/// the SCOAP cost of observing that slot's driver through `g` given g's
/// own output observability `gate_co`. The side-input costs are summed
/// once per gate and each slot's own term taken back out: every cost is a
/// saturating sum of non-negative terms, which equals min(exact sum,
/// kScoapInfinity) whatever the order, so an exact 64-bit sum gives every
/// slot in O(fanins) instead of O(fanins^2).
template <typename Visit>
void observe_through_each_slot(const Netlist& netlist, NodeId g,
                               const ScoapMeasures& measures,
                               std::uint32_t gate_co, Visit visit) {
  const auto fanins = netlist.fanins(g);
  const auto each_slot = [&](auto cost_of_slot) {
    for (std::size_t slot = 0; slot < fanins.size(); ++slot) {
      visit(slot, cost_of_slot(fanins[slot]));
    }
  };
  const auto through_sides = [&](auto side_cost) {
    std::uint64_t total = std::uint64_t{gate_co} + 1;
    for (const NodeId u : fanins) total += side_cost(u);
    each_slot([&](NodeId u) {
      return static_cast<std::uint32_t>(
          std::min<std::uint64_t>(total - side_cost(u), kScoapInfinity));
    });
  };
  const std::vector<std::uint32_t>& cc0 = measures.cc0;
  const std::vector<std::uint32_t>& cc1 = measures.cc1;
  switch (netlist.type(g)) {
    case CellType::kOutput:
    case CellType::kObserve:
    case CellType::kDff:  // captured by the scan cell
      each_slot([](NodeId) { return 0u; });
      return;
    case CellType::kBuf:
    case CellType::kNot:
      each_slot([&](NodeId) { return scoap_add(gate_co, 1); });
      return;
    case CellType::kAnd:
    case CellType::kNand:
      through_sides([&](NodeId u) { return cc1[u]; });  // side inputs at 1
      return;
    case CellType::kOr:
    case CellType::kNor:
      through_sides([&](NodeId u) { return cc0[u]; });  // side inputs at 0
      return;
    case CellType::kXor:
    case CellType::kXnor:
      through_sides([&](NodeId u) { return std::min(cc0[u], cc1[u]); });
      return;
    case CellType::kInput:
      return;
  }
}

}  // namespace

std::uint32_t scoap_observe_through(const Netlist& netlist, NodeId g,
                                    std::size_t slot,
                                    const ScoapMeasures& measures,
                                    std::uint32_t gate_co) {
  std::uint32_t cost = kScoapInfinity;
  observe_through_each_slot(netlist, g, measures, gate_co,
                            [&](std::size_t s, std::uint32_t c) {
                              if (s == slot) cost = c;
                            });
  return cost;
}

void compute_observability(const Netlist& netlist,
                           const std::vector<NodeId>& order,
                           ScoapMeasures& measures) {
  // Each gate pushes its fanins' costs through it, in reverse order: a
  // node's CO is final once every fanout has pushed. Combinational fanouts
  // follow the node in `order`; a DFF is a source of the order and may
  // precede its D-pin driver, so its (constant 0) cost is pushed first.
  std::vector<std::uint32_t>& co = measures.co;
  co.assign(netlist.size(), kScoapInfinity);
  for (const NodeId ff : netlist.flip_flops()) {
    for (const NodeId u : netlist.fanins(ff)) co[u] = 0;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    if (is_sink(netlist.type(v))) co[v] = 0;  // lands in a scan cell / on a pin
    const auto fanins = netlist.fanins(v);
    observe_through_each_slot(netlist, v, measures, co[v],
                              [&](std::size_t slot, std::uint32_t cost) {
                                const NodeId u = fanins[slot];
                                co[u] = std::min(co[u], cost);
                              });
  }
}

ScoapMeasures compute_scoap(const Netlist& netlist) {
  return compute_scoap(netlist, netlist.topological_order());
}

ScoapMeasures compute_scoap(const Netlist& netlist,
                            const std::vector<NodeId>& order) {
  GCNT_KERNEL_SCOPE("scoap.full");
  ScoapMeasures measures;
  compute_controllability(netlist, order, measures);
  compute_observability(netlist, order, measures);
  return measures;
}

void resize_for(const Netlist& netlist, ScoapMeasures& measures) {
  // New nodes are observation points: fully observable, and their own
  // controllability mirrors a scan cell ([0,1,1,0] attributes in the paper).
  measures.cc0.resize(netlist.size(), 1);
  measures.cc1.resize(netlist.size(), 1);
  measures.co.resize(netlist.size(), 0);
}

std::vector<NodeId> update_observability_after_observe(
    const Netlist& netlist, NodeId target, ScoapMeasures& measures) {
  return update_observability_after_observe(netlist, target, measures,
                                            netlist.logic_levels());
}

std::vector<NodeId> update_observability_after_observe(
    const Netlist& netlist, NodeId target, ScoapMeasures& measures,
    const std::vector<std::uint32_t>& levels) {
  resize_for(netlist, measures);
  // Sinks keep CO 0 and are never expanded, so each push is a fanin one
  // level or more below its pusher: (level, node) pops in descending
  // order, after every changed fanout, with duplicates back to back.
  using Entry = std::pair<std::uint32_t, NodeId>;
  std::priority_queue<Entry> heap;
  heap.emplace(levels[target], target);
  std::vector<NodeId> changed;
  std::size_t recomputed = 0;
  const auto co_of = [&](NodeId g) { return measures.co[g]; };
  while (!heap.empty()) {
    const Entry top = heap.top();
    while (!heap.empty() && heap.top() == top) heap.pop();
    const NodeId v = top.second;
    if (is_sink(netlist.type(v))) continue;
    ++recomputed;
    const std::uint32_t co =
        observability_through_fanouts(netlist, v, measures, co_of);
    if (co == measures.co[v]) continue;
    measures.co[v] = co;
    changed.push_back(v);
    for (const NodeId u : netlist.fanins(v)) heap.emplace(levels[u], u);
  }
  static Counter& visited =
      StatsRegistry::instance().counter("scoap.co_repair_visited");
  static Counter& changed_count =
      StatsRegistry::instance().counter("scoap.co_repair_changed");
  visited.add(recomputed);
  changed_count.add(changed.size());
  return changed;
}

}  // namespace gcnt
