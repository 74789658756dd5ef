#include "netlist/netlist.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/debug_assert.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace gcnt {

namespace {

/// Narrows an arena offset, which the arenas keep in 32 bits.
std::uint32_t arena_offset(std::size_t offset) {
  if (offset > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("netlist arena exceeds 2^32 entries");
  }
  return static_cast<std::uint32_t>(offset);
}

/// Below this many nodes (or edges) Netlist::build fills its arrays on the
/// calling thread.
constexpr std::size_t kMinParallelNodes = 1 << 13;

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

void Netlist::EdgeArena::assign(std::vector<NodeId> edges,
                                std::span<const std::uint32_t> list_end) {
  edges_ = std::move(edges);
  slices_.resize(list_end.size());
  parallel_blocks(list_end.size(), kMinParallelNodes,
                  [&](std::size_t first, std::size_t last) {
                    for (std::size_t v = first; v < last; ++v) {
                      const std::uint32_t begin = v == 0 ? 0 : list_end[v - 1];
                      slices_[v] = {begin, list_end[v] - begin,
                                    list_end[v] - begin};
                    }
                  });
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
  list_by_type(id);
  return id;
}

void Netlist::list_by_type(NodeId v) {
  switch (types_[v]) {
    case CellType::kInput:
      pis_.push_back(v);
      break;
    case CellType::kOutput:
      pos_.push_back(v);
      break;
    case CellType::kDff:
      dffs_.push_back(v);
      break;
    case CellType::kObserve:
      ops_.push_back(v);
      break;
    default:
      break;
  }
}

Netlist Netlist::build(std::string design_name, std::vector<CellType> types,
                       std::span<const std::string_view> names,
                       std::span<const std::uint32_t> fanin_end,
                       std::vector<NodeId> fanins) {
  const std::size_t n = types.size();
  const std::size_t edges = fanins.size();
  GCNT_DEBUG_ASSERT(fanin_end.size() == n && names.size() <= n &&
                        (n == 0 ? edges == 0 : fanin_end[n - 1] == edges),
                    "Netlist::build: fanin_end does not match the nodes");
  arena_offset(edges);
  Netlist netlist(std::move(design_name));
  netlist.types_ = std::move(types);
  netlist.edge_count_ = edges;
  const std::vector<CellType>& type = netlist.types_;

  // A sink is named after its driver, with its type's prefix.
  const auto name_parts = [&](NodeId v) {
    if (v < names.size()) return std::pair{std::string_view(), names[v]};
    GCNT_DEBUG_ASSERT((type[v] == CellType::kOutput ||
                       type[v] == CellType::kObserve) &&
                          v > 0 && fanin_end[v] - fanin_end[v - 1] == 1 &&
                          fanins[fanin_end[v] - 1] < names.size(),
                      "Netlist::build: an unnamed node is not a sink");
    return std::pair{std::string_view(type[v] == CellType::kOutput ? "out_"
                                                                   : "op_"),
                     names[fanins[fanin_end[v] - 1]]};
  };

  // Names: each block sums its bytes, then writes its names from the sum
  // of the blocks before it.
  const BlockPlan plan = plan_blocks(n, kMinParallelNodes);
  std::vector<std::size_t> block_bytes(plan.count + 1, 0);
  run_blocks(plan, [&](std::size_t block, std::size_t first, std::size_t last) {
    std::size_t bytes = 0;
    for (NodeId v = first; v < last; ++v) {
      const auto [prefix, name] = name_parts(v);
      bytes += prefix.size() + name.size();
    }
    block_bytes[block + 1] = bytes;
  });
  for (std::size_t b = 0; b < plan.count; ++b) {
    block_bytes[b + 1] += block_bytes[b];
  }
  arena_offset(block_bytes[plan.count]);
  netlist.name_chars_.resize(block_bytes[plan.count]);
  netlist.name_end_.resize(n);
  run_blocks(plan, [&](std::size_t block, std::size_t first, std::size_t last) {
    char* chars = netlist.name_chars_.data();
    std::size_t at = block_bytes[block];
    for (NodeId v = first; v < last; ++v) {
      const auto [prefix, name] = name_parts(v);
      std::copy_n(prefix.data(), prefix.size(), chars + at);
      std::copy_n(name.data(), name.size(), chars + at + prefix.size());
      at += prefix.size() + name.size();
      netlist.name_end_[v] = static_cast<std::uint32_t>(at);
    }
  });

  // Fanouts: each block owns a range of drivers and walks every fanin in
  // consumer order, first counting the edges out of its drivers, then
  // placing them. Consumers land in ascending order, as an edge-by-edge
  // build in id order places them, with no atomics and no sort.
  const auto each_edge_from = [&](std::size_t first, std::size_t last,
                                  auto visit) {
    std::uint32_t e = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (; e < fanin_end[v]; ++e) {
        if (fanins[e] >= first && fanins[e] < last) visit(fanins[e], v);
      }
    }
  };
  std::vector<std::uint32_t> fanout_at(n, 0);
  std::vector<std::size_t> block_edges(plan.count + 1, 0);
  run_blocks(plan, [&](std::size_t block, std::size_t first, std::size_t last) {
    each_edge_from(first, last, [&](NodeId u, NodeId) { ++fanout_at[u]; });
    std::size_t count = 0;
    for (std::size_t u = first; u < last; ++u) count += fanout_at[u];
    block_edges[block + 1] = count;
  });
  for (std::size_t b = 0; b < plan.count; ++b) {
    block_edges[b + 1] += block_edges[b];
  }
  std::vector<NodeId> fanouts(edges);
  run_blocks(plan, [&](std::size_t block, std::size_t first, std::size_t last) {
    // fanout_at[u]: u's count, then where its next consumer goes, then,
    // once all are placed, where its list ends.
    std::size_t at = block_edges[block];
    for (std::size_t u = first; u < last; ++u) {
      const std::uint32_t count = fanout_at[u];
      fanout_at[u] = static_cast<std::uint32_t>(at);
      at += count;
    }
    each_edge_from(first, last,
                   [&](NodeId u, NodeId v) { fanouts[fanout_at[u]++] = v; });
  });
  netlist.fanins_.assign(std::move(fanins), fanin_end);
  netlist.fanouts_.assign(std::move(fanouts), fanout_at);

  for (NodeId v = 0; v < n; ++v) netlist.list_by_type(v);
  return netlist;
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
  TraceSpan span("netlist.topo");
  span.arg("nodes", static_cast<double>(n));
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
  TraceSpan span("netlist.levels");
  span.arg("nodes", static_cast<double>(size()));
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
