#include "netlist/netlist.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>

namespace gcnt {

NodeId Netlist::add_node(CellType type, std::string name) {
  const NodeId id = static_cast<NodeId>(types_.size());
  if (name.empty()) {
    name = "n" + std::to_string(id);
  }
  types_.push_back(type);
  names_.push_back(std::move(name));
  fanins_.emplace_back();
  fanouts_.emplace_back();
  switch (type) {
    case CellType::kInput:
      pis_.push_back(id);
      break;
    case CellType::kOutput:
      pos_.push_back(id);
      break;
    case CellType::kDff:
      dffs_.push_back(id);
      break;
    case CellType::kObserve:
      ops_.push_back(id);
      break;
    default:
      break;
  }
  return id;
}

void Netlist::reserve(std::size_t nodes) {
  types_.reserve(nodes);
  names_.reserve(nodes);
  fanins_.reserve(nodes);
  fanouts_.reserve(nodes);
}

void Netlist::reserve_edges(NodeId v, std::size_t fanins, std::size_t fanouts) {
  fanins_[v].reserve(fanins);
  fanouts_[v].reserve(fanouts);
}

void Netlist::connect(NodeId from, NodeId to) {
  fanouts_[from].push_back(to);
  fanins_[to].push_back(from);
  ++edge_count_;
}

bool Netlist::edge_is_combinational(NodeId /*from*/, NodeId to) const noexcept {
  // An edge into a DFF is the D-pin capture: a sequential boundary. Every
  // other edge propagates combinationally in the same cycle.
  return types_[to] != CellType::kDff;
}

std::vector<NodeId> Netlist::topological_order() const {
  const std::size_t n = size();
  std::vector<std::uint32_t> pending(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : fanins_[v]) {
      if (edge_is_combinational(u, v)) ++pending[v];
    }
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::deque<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (pending[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    const NodeId v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (NodeId w : fanouts_[v]) {
      if (!edge_is_combinational(v, w)) continue;
      if (--pending[w] == 0) ready.push_back(w);
    }
  }
  if (order.size() != n) {
    throw std::runtime_error("Netlist '" + name_ +
                             "' contains a combinational cycle");
  }
  return order;
}

std::vector<std::uint32_t> Netlist::logic_levels() const {
  const auto order = topological_order();
  std::vector<std::uint32_t> level(size(), 0);
  for (NodeId v : order) {
    std::uint32_t max_in = 0;
    bool any = false;
    for (NodeId u : fanins_[v]) {
      if (!edge_is_combinational(u, v)) continue;
      max_in = std::max(max_in, level[u]);
      any = true;
    }
    // DFF fanin edges are sequential, so a DFF stays at level 0 (it acts as
    // a scan-chain source); everything else is one past its deepest fanin.
    if (types_[v] == CellType::kDff) {
      level[v] = 0;
    } else {
      level[v] = any ? max_in + 1 : 0;
    }
  }
  return level;
}

std::vector<NodeId> Netlist::fanin_cone(NodeId root, std::size_t limit) const {
  std::vector<NodeId> cone;
  if (limit == 0) return cone;
  std::vector<bool> seen(size(), false);
  seen[root] = true;
  std::deque<NodeId> frontier{root};
  while (!frontier.empty() && cone.size() < limit) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    // Sources terminate the traversal: a DFF output or PI has no
    // combinational history.
    if (v != root && is_source(types_[v])) continue;
    for (NodeId u : fanins_[v]) {
      if (seen[u]) continue;
      seen[u] = true;
      cone.push_back(u);
      if (cone.size() >= limit) break;
      frontier.push_back(u);
    }
  }
  return cone;
}

std::vector<NodeId> Netlist::fanout_cone(NodeId root, std::size_t limit) const {
  std::vector<NodeId> cone;
  if (limit == 0) return cone;
  std::vector<bool> seen(size(), false);
  seen[root] = true;
  std::deque<NodeId> frontier{root};
  while (!frontier.empty() && cone.size() < limit) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    // Sinks terminate the traversal: past a DFF/PO/OP the signal is
    // captured, not propagated in this cycle.
    if (v != root && is_sink(types_[v])) continue;
    for (NodeId w : fanouts_[v]) {
      if (seen[w]) continue;
      seen[w] = true;
      cone.push_back(w);
      if (cone.size() >= limit) break;
      frontier.push_back(w);
    }
  }
  return cone;
}

void Netlist::retarget_fanouts(NodeId from, NodeId to, NodeId except) {
  std::vector<NodeId> kept;
  for (NodeId consumer : fanouts_[from]) {
    if (consumer == except) {
      kept.push_back(consumer);
      continue;
    }
    for (NodeId& driver : fanins_[consumer]) {
      if (driver == from) driver = to;
    }
    fanouts_[to].push_back(consumer);
  }
  fanouts_[from] = std::move(kept);
}

Netlist::ControlPoint Netlist::insert_control_point(NodeId target,
                                                    bool drive_to_one) {
  ControlPoint cp;
  cp.control = add_node(CellType::kInput, "cp_" + names_[target]);
  if (drive_to_one) {
    cp.gate = add_node(CellType::kOr, "cp1_" + names_[target]);
    retarget_fanouts(target, cp.gate);
    connect(target, cp.gate);
    connect(cp.control, cp.gate);
  } else {
    cp.inverter = add_node(CellType::kNot, "cpn_" + names_[target]);
    connect(cp.control, cp.inverter);
    cp.gate = add_node(CellType::kAnd, "cp0_" + names_[target]);
    retarget_fanouts(target, cp.gate);
    connect(target, cp.gate);
    connect(cp.inverter, cp.gate);
  }
  return cp;
}

NodeId Netlist::insert_observe_point(NodeId target) {
  const NodeId op =
      add_node(CellType::kObserve, "op_" + names_[target]);
  connect(target, op);
  return op;
}

bool Netlist::can_control(NodeId v) const {
  const CellType t = type(v);
  return !is_sink(t) && t != CellType::kInput;
}

bool Netlist::can_observe(NodeId v) const {
  if (!can_control(v)) return false;
  for (NodeId g : fanouts(v)) {
    if (type(g) == CellType::kObserve) return false;
  }
  return true;
}

std::vector<std::string> Netlist::validate() const {
  std::vector<std::string> problems;
  for (NodeId v = 0; v < size(); ++v) {
    const CellType t = types_[v];
    const int arity = static_cast<int>(fanins_[v].size());
    if (arity < min_fanin(t) || arity > max_fanin(t)) {
      problems.push_back("node " + names_[v] + " (" +
                         std::string(cell_type_name(t)) + ") has illegal fanin count " +
                         std::to_string(arity));
    }
    if (is_sink(t) && t != CellType::kDff && !fanouts_[v].empty()) {
      problems.push_back("sink node " + names_[v] + " has fanout");
    }
    for (NodeId u : fanins_[v]) {
      if (u >= size()) {
        problems.push_back("node " + names_[v] + " has out-of-range fanin");
      }
    }
  }
  try {
    (void)topological_order();
  } catch (const std::runtime_error& e) {
    problems.emplace_back(e.what());
  }
  return problems;
}

}  // namespace gcnt
