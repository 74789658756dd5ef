// Differential test of the flat netlist storage (edge arenas, name arena)
// and the SCOAP pass over it against the vector-of-vectors Netlist and the
// pull-style compute_scoap they replaced. Both are driven through the same
// random build and edit sequences and compared after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "gen/generator.h"
#include "netlist/netlist.h"
#include "netlist_diff.h"
#include "scoap/scoap.h"

namespace gcnt {
namespace {

/// The Netlist storage and compute_scoap that the flat storage replaced,
/// kept as the oracle: one std::vector per adjacency list and one
/// std::string per name.
namespace oracle {

class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  std::size_t size() const noexcept { return types_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }

  NodeId add_node(CellType type, std::string name = {}) {
    const NodeId id = static_cast<NodeId>(types_.size());
    if (name.empty()) name = "n" + std::to_string(id);
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

  void connect(NodeId from, NodeId to) {
    fanouts_[from].push_back(to);
    fanins_[to].push_back(from);
    ++edge_count_;
  }

  CellType type(NodeId v) const noexcept { return types_[v]; }
  const std::string& node_name(NodeId v) const noexcept { return names_[v]; }
  const std::vector<NodeId>& fanins(NodeId v) const noexcept {
    return fanins_[v];
  }
  const std::vector<NodeId>& fanouts(NodeId v) const noexcept {
    return fanouts_[v];
  }
  const std::vector<NodeId>& primary_inputs() const noexcept { return pis_; }
  const std::vector<NodeId>& primary_outputs() const noexcept { return pos_; }
  const std::vector<NodeId>& flip_flops() const noexcept { return dffs_; }
  const std::vector<NodeId>& observe_points() const noexcept { return ops_; }

  std::vector<NodeId> topological_order() const {
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

  std::vector<std::uint32_t> logic_levels() const {
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
      if (types_[v] == CellType::kDff) {
        level[v] = 0;
      } else {
        level[v] = any ? max_in + 1 : 0;
      }
    }
    return level;
  }

  void retarget_fanouts(NodeId from, NodeId to,
                        NodeId except = kInvalidNode) {
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

  gcnt::Netlist::ControlPoint insert_control_point(NodeId target,
                                                   bool drive_to_one) {
    gcnt::Netlist::ControlPoint cp;
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

  NodeId insert_observe_point(NodeId target) {
    const NodeId op = add_node(CellType::kObserve, "op_" + names_[target]);
    connect(target, op);
    return op;
  }

  bool can_control(NodeId v) const {
    const CellType t = type(v);
    return !is_sink(t) && t != CellType::kInput;
  }

  bool can_observe(NodeId v) const {
    if (!can_control(v)) return false;
    for (NodeId g : fanouts(v)) {
      if (type(g) == CellType::kObserve) return false;
    }
    return true;
  }

  std::vector<std::string> validate() const {
    std::vector<std::string> problems;
    for (NodeId v = 0; v < size(); ++v) {
      const CellType t = types_[v];
      const int arity = static_cast<int>(fanins_[v].size());
      if (arity < min_fanin(t) || arity > max_fanin(t)) {
        problems.push_back("node " + names_[v] + " (" +
                           std::string(cell_type_name(t)) +
                           ") has illegal fanin count " +
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

 private:
  bool edge_is_combinational(NodeId /*from*/, NodeId to) const noexcept {
    return types_[to] != CellType::kDff;
  }

  std::string name_;
  std::vector<CellType> types_;
  std::vector<std::string> names_;
  std::vector<std::vector<NodeId>> fanins_;
  std::vector<std::vector<NodeId>> fanouts_;
  std::vector<NodeId> pis_, pos_, dffs_, ops_;
  std::size_t edge_count_ = 0;
};

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
      out0 = type == CellType::kAnd ? zero_cost : one_cost;
      out1 = type == CellType::kAnd ? one_cost : zero_cost;
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
      const std::uint32_t all_zero_cost = scoap_add(all_zero, 1);
      const std::uint32_t any_one_cost = scoap_add(min_one, 1);
      out0 = type == CellType::kOr ? all_zero_cost : any_one_cost;
      out1 = type == CellType::kOr ? any_one_cost : all_zero_cost;
      return;
    }
    case CellType::kXor:
    case CellType::kXnor: {
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
      out0 = type == CellType::kXor ? parity0 : parity1;
      out1 = type == CellType::kXor ? parity1 : parity0;
      return;
    }
  }
  out0 = kScoapInfinity;
  out1 = kScoapInfinity;
}

std::uint32_t observe_through(const Netlist& netlist, NodeId g,
                              std::size_t slot, const ScoapMeasures& measures,
                              std::uint32_t gate_co) {
  const std::vector<std::uint32_t>& cc0 = measures.cc0;
  const std::vector<std::uint32_t>& cc1 = measures.cc1;
  const auto& fanins = netlist.fanins(g);
  switch (netlist.type(g)) {
    case CellType::kOutput:
    case CellType::kObserve:
    case CellType::kDff:
      return 0;
    case CellType::kBuf:
    case CellType::kNot:
      return scoap_add(gate_co, 1);
    case CellType::kAnd:
    case CellType::kNand: {
      std::uint32_t cost = scoap_add(gate_co, 1);
      for (std::size_t j = 0; j < fanins.size(); ++j) {
        if (j != slot) cost = scoap_add(cost, cc1[fanins[j]]);
      }
      return cost;
    }
    case CellType::kOr:
    case CellType::kNor: {
      std::uint32_t cost = scoap_add(gate_co, 1);
      for (std::size_t j = 0; j < fanins.size(); ++j) {
        if (j != slot) cost = scoap_add(cost, cc0[fanins[j]]);
      }
      return cost;
    }
    case CellType::kXor:
    case CellType::kXnor: {
      std::uint32_t cost = scoap_add(gate_co, 1);
      for (std::size_t j = 0; j < fanins.size(); ++j) {
        if (j == slot) continue;
        cost = scoap_add(cost, std::min(cc0[fanins[j]], cc1[fanins[j]]));
      }
      return cost;
    }
    case CellType::kInput:
      break;
  }
  return kScoapInfinity;
}

ScoapMeasures compute_scoap(const Netlist& netlist) {
  ScoapMeasures measures;
  const std::vector<NodeId> order = netlist.topological_order();
  measures.cc0.assign(netlist.size(), kScoapInfinity);
  measures.cc1.assign(netlist.size(), kScoapInfinity);
  for (NodeId v : order) {
    gate_controllability(netlist, v, measures.cc0, measures.cc1,
                         measures.cc0[v], measures.cc1[v]);
  }
  measures.co.assign(netlist.size(), kScoapInfinity);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    if (is_sink(netlist.type(v))) {
      measures.co[v] = 0;
      continue;
    }
    std::uint32_t best = kScoapInfinity;
    for (NodeId g : netlist.fanouts(v)) {
      const auto& gf = netlist.fanins(g);
      for (std::size_t slot = 0; slot < gf.size(); ++slot) {
        if (gf[slot] != v) continue;
        best = std::min(best, observe_through(netlist, g, slot, measures,
                                              measures.co[g]));
      }
    }
    measures.co[v] = best;
  }
  return measures;
}

}  // namespace oracle

/// Every observable field of `got` against the oracle, plus the derived
/// orders, levels, validation and SCOAP measures. Returns the topological
/// order (empty on a cycle) so the caller can keep edits acyclic.
std::vector<NodeId> expect_same(const Netlist& got, const oracle::Netlist& want) {
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  if (got.size() != want.size()) return {};
  for (NodeId v = 0; v < want.size(); ++v) {
    EXPECT_EQ(got.type(v), want.type(v)) << "node " << v;
    EXPECT_EQ(got.node_name(v), want.node_name(v)) << "node " << v;
    expect_same_list(got.fanins(v), want.fanins(v), "fanin", v);
    expect_same_list(got.fanouts(v), want.fanouts(v), "fanout", v);
    EXPECT_EQ(got.can_observe(v), want.can_observe(v)) << "node " << v;
  }
  EXPECT_EQ(got.primary_inputs(), want.primary_inputs());
  EXPECT_EQ(got.primary_outputs(), want.primary_outputs());
  EXPECT_EQ(got.flip_flops(), want.flip_flops());
  EXPECT_EQ(got.observe_points(), want.observe_points());
  EXPECT_EQ(got.validate(), want.validate());

  std::vector<NodeId> order;
  bool want_cycle = false;
  try {
    order = want.topological_order();
  } catch (const std::runtime_error&) {
    want_cycle = true;
  }
  if (want_cycle) {
    try {
      (void)got.topological_order();
      ADD_FAILURE() << "the oracle finds a cycle, the netlist does not";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
    }
    EXPECT_THROW(got.logic_levels(), Error);
    return {};
  }
  EXPECT_EQ(got.topological_order(), order);
  EXPECT_EQ(got.logic_levels(), want.logic_levels());
  const ScoapMeasures got_scoap = compute_scoap(got);
  const ScoapMeasures want_scoap = oracle::compute_scoap(want);
  EXPECT_EQ(got_scoap.cc0, want_scoap.cc0);
  EXPECT_EQ(got_scoap.cc1, want_scoap.cc1);
  EXPECT_EQ(got_scoap.co, want_scoap.co);
  return order;
}

/// A netlist under test and its oracle, edited in lockstep.
struct Pair {
  Netlist got{"pair"};
  oracle::Netlist want{"pair"};

  /// `name` may view got's own name arena, which got.add_node may move.
  NodeId add_node(CellType type, std::string_view name) {
    std::string copy(name);
    const NodeId id = got.add_node(type, name);
    EXPECT_EQ(want.add_node(type, std::move(copy)), id);
    return id;
  }
  void connect(NodeId from, NodeId to) {
    got.connect(from, to);
    want.connect(from, to);
  }
};

CellType random_gate(Rng& rng) {
  static constexpr CellType kGates[] = {
      CellType::kBuf, CellType::kNot, CellType::kAnd,  CellType::kNand,
      CellType::kOr,  CellType::kNor, CellType::kXor, CellType::kXnor};
  return kGates[rng.below(std::size(kGates))];
}

/// A random node whose output may drive logic: not an OUTPUT or OBSERVE.
NodeId random_driver(const Netlist& netlist, Rng& rng) {
  for (;;) {
    const NodeId v = static_cast<NodeId>(rng.below(netlist.size()));
    const CellType t = netlist.type(v);
    if (t != CellType::kOutput && t != CellType::kObserve) return v;
  }
}

/// One random build or edit step on both netlists. `order` is the current
/// topological order (empty when the netlist already has a cycle); new
/// edges follow it, so the graph stays acyclic unless `allow_cycle`.
void random_step(Pair& pair, const std::vector<NodeId>& order,
                 bool allow_cycle, Rng& rng) {
  Netlist& got = pair.got;
  const std::size_t n = got.size();
  std::vector<std::size_t> position(n, 0);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  switch (rng.below(10)) {
    case 0:
    case 1: {  // a gate with its minimum fanin from anywhere
      const CellType type = random_gate(rng);
      // Sometimes named after an existing node: a view into the arena
      // that this very add_node may grow.
      const std::string_view name =
          rng.chance(0.3) ? got.node_name(static_cast<NodeId>(rng.below(n)))
                          : std::string_view{};
      const NodeId g = pair.add_node(type, name);
      for (int k = 0; k < min_fanin(type); ++k) {
        pair.connect(random_driver(got, rng), g);
      }
      if (type == CellType::kAnd && rng.chance(0.3)) {
        const NodeId a = got.fanins(g).front();
        pair.connect(a, g);  // AND(a, a)
      }
      break;
    }
    case 2: {  // an extra fanin, in order (or a back edge when allowed)
      const NodeId to = static_cast<NodeId>(rng.below(n));
      if (!is_logic(got.type(to)) || order.empty()) break;
      const NodeId from = random_driver(got, rng);
      if (position[from] < position[to] ||
          (allow_cycle && rng.chance(0.5))) {
        pair.connect(from, to);
      }
      break;
    }
    case 3: {  // a primary input, a scan flop or a primary output
      const std::size_t kind = rng.below(3);
      if (kind == 0) {
        pair.add_node(CellType::kInput, {});
      } else {
        const CellType type = kind == 1 ? CellType::kDff : CellType::kOutput;
        const NodeId sink = pair.add_node(type, {});
        pair.connect(random_driver(got, rng), sink);
      }
      break;
    }
    case 4:
    case 5: {  // an observation point
      const NodeId target = static_cast<NodeId>(rng.below(n));
      if (!got.can_observe(target)) break;
      EXPECT_EQ(got.insert_observe_point(target),
                pair.want.insert_observe_point(target));
      break;
    }
    case 6:
    case 7: {  // a control point of either polarity
      const NodeId target = static_cast<NodeId>(rng.below(n));
      if (!got.can_control(target)) break;
      const bool one = rng.chance(0.5);
      const Netlist::ControlPoint a = got.insert_control_point(target, one);
      const Netlist::ControlPoint b =
          pair.want.insert_control_point(target, one);
      EXPECT_EQ(a.control, b.control);
      EXPECT_EQ(a.gate, b.gate);
      EXPECT_EQ(a.inverter, b.inverter);
      break;
    }
    case 8: {  // re-drive a node's consumers through a new buffer
      const NodeId from = random_driver(got, rng);
      const auto fanouts = got.fanouts(from);
      const NodeId except =
          !fanouts.empty() && rng.chance(0.5)
              ? fanouts[rng.below(fanouts.size())]
              : kInvalidNode;
      const NodeId buffer = pair.add_node(CellType::kBuf, {});
      got.retarget_fanouts(from, buffer, except);
      pair.want.retarget_fanouts(from, buffer, except);
      pair.connect(from, buffer);
      break;
    }
    default: {  // room reserved ahead, which moves lists but changes none
      const NodeId v = static_cast<NodeId>(rng.below(n));
      got.reserve_edges(v, rng.below(6), rng.below(6));
      break;
    }
  }
}

/// Builds the pair from `design` edge by edge: nodes in id order, then
/// each node's fanins in slot order.
void replay(const Netlist& design, Pair& pair) {
  for (NodeId v = 0; v < design.size(); ++v) {
    pair.add_node(design.type(v), design.node_name(v));
  }
  for (NodeId v = 0; v < design.size(); ++v) {
    for (const NodeId u : design.fanins(v)) pair.connect(u, v);
  }
}

void run_sequence(Pair& pair, std::size_t steps, bool allow_cycle, Rng& rng) {
  std::vector<NodeId> order = expect_same(pair.got, pair.want);
  for (std::size_t step = 0; step < steps; ++step) {
    random_step(pair, order, allow_cycle && rng.chance(0.05), rng);
    order = expect_same(pair.got, pair.want);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first difference after step " << step;
    }
    if (step % 16 == 15) {
      // A copy lays every list out packed; it must read the same, and
      // keep matching through further edits.
      Netlist copy = pair.got;
      expect_same(copy, pair.want);
      pair.got = copy;
    }
  }
}

TEST(NetlistDiff, RandomBuildsAndEditsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Pair pair;
    for (int i = 0; i < 4; ++i) pair.add_node(CellType::kInput, {});
    run_sequence(pair, 150, /*allow_cycle=*/false, rng);
  }
}

TEST(NetlistDiff, GeneratedDesignsMatchOracleThroughEdits) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GeneratorConfig config;
    config.target_gates = 300 + 100 * seed;
    config.seed = seed;
    config.flip_flops = 12;  // scan flops: sequential edges
    const Netlist design = generate_circuit(config);
    ASSERT_FALSE(design.flip_flops().empty());
    Pair pair;
    replay(design, pair);
    // AND(a, a) on a generated signal.
    const NodeId a = design.primary_inputs().front();
    const NodeId g = pair.add_node(CellType::kAnd, "dup");
    pair.connect(a, g);
    pair.connect(a, g);
    Rng rng(seed * 977);
    run_sequence(pair, 60, /*allow_cycle=*/false, rng);
  }
}

TEST(NetlistDiff, CyclesMatchOracle) {
  int cyclic = 0;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Pair pair;
    for (int i = 0; i < 3; ++i) pair.add_node(CellType::kInput, {});
    run_sequence(pair, 120, /*allow_cycle=*/true, rng);
    cyclic += pair.got.validate().empty() ? 0 : 1;
  }
  EXPECT_GT(cyclic, 0) << "no sequence closed a cycle";
}

}  // namespace
}  // namespace gcnt
