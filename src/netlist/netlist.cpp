#include "netlist/netlist.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/error.h"

namespace gcnt {

namespace {

/// Narrows an arena offset, which the arenas keep in 32 bits.
std::uint32_t arena_offset(std::size_t offset) {
  if (offset > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("netlist arena exceeds 2^32 entries");
  }
  return static_cast<std::uint32_t>(offset);
}

}  // namespace

Netlist::EdgeArena::EdgeArena(const EdgeArena& other)
    : slices_(other.slices_) {
  std::size_t edges = 0;
  for (const Slice& s : slices_) edges += s.size;
  edges_.reserve(edges);
  for (Slice& s : slices_) {
    const NodeId* from = other.edges_.data() + s.begin;
    s.begin = static_cast<std::uint32_t>(edges_.size());
    s.capacity = s.size;
    edges_.insert(edges_.end(), from, from + s.size);
  }
}

Netlist::EdgeArena& Netlist::EdgeArena::operator=(const EdgeArena& other) {
  if (this != &other) *this = EdgeArena(other);
  return *this;
}

void Netlist::EdgeArena::reserve(std::size_t lists, std::size_t edges) {
  slices_.reserve(lists);
  edges_.reserve(edges);
}

void Netlist::EdgeArena::reserve_list(NodeId v, std::size_t capacity) {
  if (capacity > slices_[v].capacity) relocate(v, capacity);
}

void Netlist::EdgeArena::grow(NodeId v) {
  Slice& s = slices_[v];
  const std::size_t capacity = s.capacity == 0 ? 2 : 2 * std::size_t{s.capacity};
  if (s.capacity != 0 && s.begin + s.capacity == edges_.size()) {
    // The list ends the arena: extend it where it is.
    const std::uint32_t end = arena_offset(s.begin + capacity);
    edges_.resize(end);
    s.capacity = end - s.begin;
    return;
  }
  relocate(v, capacity);
}

void Netlist::EdgeArena::relocate(NodeId v, std::size_t capacity) {
  Slice& s = slices_[v];
  const std::size_t begin = edges_.size();
  const std::uint32_t end = arena_offset(begin + capacity);
  edges_.resize(end);
  std::copy_n(edges_.begin() + s.begin, s.size, edges_.begin() + begin);
  s.begin = static_cast<std::uint32_t>(begin);
  s.capacity = end - s.begin;
}

NodeId Netlist::add_node(CellType type, std::string_view name) {
  const NodeId id = static_cast<NodeId>(types_.size());
  const std::string generated =
      name.empty() ? "n" + std::to_string(id) : std::string();
  if (name.empty()) name = generated;
  // `name` may view this arena, which the resize below can move: copy it
  // by offset in that case.
  const char* arena = name_chars_.data();
  const std::size_t at = name_chars_.size();
  const bool own = std::less_equal<const char*>()(arena, name.data()) &&
                   std::less<const char*>()(name.data(), arena + at);
  const auto from = own ? static_cast<std::size_t>(name.data() - arena) : 0;
  name_chars_.resize(at + name.size());
  std::copy_n(own ? name_chars_.data() + from : name.data(), name.size(),
              name_chars_.data() + at);
  types_.push_back(type);
  name_end_.push_back(arena_offset(name_chars_.size()));
  fanins_.add_list();
  fanouts_.add_list();
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

void Netlist::reserve(std::size_t nodes, std::size_t name_bytes,
                      std::size_t edges) {
  types_.reserve(nodes);
  name_chars_.reserve(name_bytes);
  name_end_.reserve(nodes);
  fanins_.reserve(nodes, edges);
  fanouts_.reserve(nodes, edges);
}

void Netlist::reserve_edges(NodeId v, std::size_t fanins, std::size_t fanouts) {
  fanins_.reserve_list(v, fanins);
  fanouts_.reserve_list(v, fanouts);
}

bool Netlist::edge_is_combinational(NodeId /*from*/, NodeId to) const noexcept {
  // An edge into a DFF is the D-pin capture: a sequential boundary. Every
  // other edge propagates combinationally in the same cycle.
  return types_[to] != CellType::kDff;
}

std::vector<NodeId> Netlist::topological_order() const {
  const std::size_t n = size();
  // Every fanin edge of a non-DFF node is combinational (see
  // edge_is_combinational), so a node waits on all its fanins or none.
  std::vector<std::uint32_t> pending(n);
  for (NodeId v = 0; v < n; ++v) {
    pending[v] = types_[v] == CellType::kDff
                     ? 0
                     : static_cast<std::uint32_t>(fanins(v).size());
  }
  // Kahn's algorithm with `order` as its FIFO queue: ready nodes are
  // appended and taken from `head` on.
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (pending[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (const NodeId w : fanouts(v)) {
      if (!edge_is_combinational(v, w)) continue;
      if (--pending[w] == 0) order.push_back(w);
    }
  }
  if (order.size() != n) {
    throw Error(ErrorKind::kCorrupt,
                "Netlist '" + name_ + "' contains a combinational cycle");
  }
  return order;
}

std::vector<std::uint32_t> Netlist::logic_levels() const {
  return logic_levels(topological_order());
}

std::vector<std::uint32_t> Netlist::logic_levels(
    const std::vector<NodeId>& order) const {
  std::vector<std::uint32_t> level(size(), 0);
  for (const NodeId v : order) {
    // DFF fanin edges are sequential, so a DFF stays at level 0 (it acts as
    // a scan-chain source); everything else is one past its deepest fanin,
    // and every fanin of a non-DFF is combinational.
    const auto in = fanins(v);
    if (types_[v] == CellType::kDff || in.empty()) continue;
    std::uint32_t max_in = 0;
    for (const NodeId u : in) max_in = std::max(max_in, level[u]);
    level[v] = max_in + 1;
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
    for (NodeId u : fanins(v)) {
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
    for (NodeId w : fanouts(v)) {
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
  // from's list is read by index: a push onto to's list may move the
  // arena, but never from's slice within it. The kept edges are compacted
  // to the front of the same slice.
  const std::size_t count = fanouts(from).size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId consumer = fanouts_.list(from)[i];
    if (consumer == except) {
      fanouts_.list(from)[kept++] = consumer;
      continue;
    }
    for (NodeId& driver : fanins_.list(consumer)) {
      if (driver == from) driver = to;
    }
    fanouts_.push(to, consumer);
  }
  fanouts_.truncate(from, kept);
}

Netlist::ControlPoint Netlist::insert_control_point(NodeId target,
                                                    bool drive_to_one) {
  const std::string name(node_name(target));
  ControlPoint cp;
  cp.control = add_node(CellType::kInput, "cp_" + name);
  if (drive_to_one) {
    cp.gate = add_node(CellType::kOr, "cp1_" + name);
    retarget_fanouts(target, cp.gate);
    connect(target, cp.gate);
    connect(cp.control, cp.gate);
  } else {
    cp.inverter = add_node(CellType::kNot, "cpn_" + name);
    connect(cp.control, cp.inverter);
    cp.gate = add_node(CellType::kAnd, "cp0_" + name);
    retarget_fanouts(target, cp.gate);
    connect(target, cp.gate);
    connect(cp.inverter, cp.gate);
  }
  return cp;
}

NodeId Netlist::insert_observe_point(NodeId target) {
  const NodeId op =
      add_node(CellType::kObserve, "op_" + std::string(node_name(target)));
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
    const auto name = [&] { return std::string(node_name(v)); };
    const int arity = static_cast<int>(fanins(v).size());
    if (arity < min_fanin(t) || arity > max_fanin(t)) {
      problems.push_back("node " + name() + " (" +
                         std::string(cell_type_name(t)) + ") has illegal fanin count " +
                         std::to_string(arity));
    }
    if (is_sink(t) && t != CellType::kDff && !fanouts(v).empty()) {
      problems.push_back("sink node " + name() + " has fanout");
    }
    for (NodeId u : fanins(v)) {
      if (u >= size()) {
        problems.push_back("node " + name() + " has out-of-range fanin");
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
