#pragma once
// Gate-level netlist represented as a directed graph.
//
// Nodes are cells; a directed edge u -> v means the output of u drives an
// input of v. This is exactly the graph the paper feeds to the GCN: source
// nodes are primary inputs (and scan-cell outputs), sink nodes are primary
// outputs (and scan-cell / observation-point inputs).
//
// NodeId values are dense indices, stable across appends; nodes are never
// removed (the DFT flows only ever add observation points).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/cell.h"

namespace gcnt {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Number of nodes (cells) in the graph.
  std::size_t size() const noexcept { return types_.size(); }
  /// Number of directed edges (wires).
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Adds a cell and returns its id. Names must be unique only if the
  /// netlist will be written out; an empty name is auto-generated.
  NodeId add_node(CellType type, std::string name = {});

  /// Reserves room for `nodes` nodes in total, so adding up to that many
  /// does not reallocate the per-node arrays.
  void reserve(std::size_t nodes);

  /// Reserves room for `fanins` fanin and `fanouts` fanout edges at `v`,
  /// so connecting that many does not reallocate v's adjacency lists.
  void reserve_edges(NodeId v, std::size_t fanins, std::size_t fanouts);

  /// Adds the directed edge `from -> to` (output of `from` drives an input
  /// of `to`). Duplicate edges are allowed (multi-input from same driver).
  void connect(NodeId from, NodeId to);

  CellType type(NodeId v) const noexcept { return types_[v]; }
  const std::string& node_name(NodeId v) const noexcept { return names_[v]; }
  const std::vector<NodeId>& fanins(NodeId v) const noexcept {
    return fanins_[v];
  }
  const std::vector<NodeId>& fanouts(NodeId v) const noexcept {
    return fanouts_[v];
  }

  /// All primary inputs, in insertion order.
  const std::vector<NodeId>& primary_inputs() const noexcept { return pis_; }
  /// All primary outputs, in insertion order.
  const std::vector<NodeId>& primary_outputs() const noexcept { return pos_; }
  /// All scan flip-flops, in insertion order.
  const std::vector<NodeId>& flip_flops() const noexcept { return dffs_; }
  /// All observation points, in insertion order.
  const std::vector<NodeId>& observe_points() const noexcept { return ops_; }

  /// Nodes in a topological order of the combinational graph (sources
  /// first). DFF outputs count as sources; DFF inputs as sinks, so the
  /// graph is acyclic under the full-scan assumption. Throws
  /// std::runtime_error on a combinational cycle.
  std::vector<NodeId> topological_order() const;

  /// Logic level per node: sources are level 0; every other node is
  /// 1 + max(level of combinational fanins). This is the LL attribute.
  std::vector<std::uint32_t> logic_levels() const;

  /// Transitive fanin cone of `root` (excluding `root`), breadth-first,
  /// stopping at sources; at most `limit` nodes are returned.
  std::vector<NodeId> fanin_cone(NodeId root,
                                 std::size_t limit = static_cast<std::size_t>(-1)) const;

  /// Transitive fanout cone of `root` (excluding `root`), breadth-first,
  /// stopping at sinks; at most `limit` nodes are returned.
  std::vector<NodeId> fanout_cone(NodeId root,
                                  std::size_t limit = static_cast<std::size_t>(-1)) const;

  /// Inserts an observation point on the output of `target`: adds an
  /// OBSERVE node and the edge target -> op. Returns the new node's id.
  NodeId insert_observe_point(NodeId target);

  /// True when `v` may take an observation point: it drives a real signal
  /// (not a sink or primary input) and does not already feed an OBSERVE.
  bool can_observe(NodeId v) const;

  /// True when `v` may take a control point: it drives a real signal (not
  /// a sink or primary input).
  bool can_control(NodeId v) const;

  /// Result of insert_control_point().
  struct ControlPoint {
    NodeId control;  ///< the new tester-driven INPUT
    NodeId gate;     ///< OR (control-1) or AND-with-inverter (control-0)
    NodeId inverter = kInvalidNode;  ///< only for control-0 points
  };

  /// Inserts a control point on the output of `target` (Fig. 2 of the
  /// paper): a new primary input `cp` and a gate g = OR(target, cp) for a
  /// control-1 point, or g = AND(target, NOT(cp)) for a control-0 point;
  /// every existing consumer of `target` is re-driven by g. With cp at its
  /// inactive value (0) the circuit behaves exactly as before.
  ControlPoint insert_control_point(NodeId target, bool drive_to_one);

  /// Re-routes every fanout edge of `from` (except edges into `except`)
  /// to leave `to` instead: consumers' fanin slots are rewritten and both
  /// fanout lists updated. Edge count is preserved.
  void retarget_fanouts(NodeId from, NodeId to, NodeId except = kInvalidNode);

  /// Structural validation: fanin arities, source/sink conventions,
  /// acyclicity. Returns a list of human-readable problems (empty = valid).
  std::vector<std::string> validate() const;

 private:
  /// True if edges from `v` carry combinational data (DFF outputs do, but
  /// the DFF's *input* edge is a sequential boundary).
  bool edge_is_combinational(NodeId from, NodeId to) const noexcept;

  std::string name_;
  std::vector<CellType> types_;
  std::vector<std::string> names_;
  std::vector<std::vector<NodeId>> fanins_;
  std::vector<std::vector<NodeId>> fanouts_;
  std::vector<NodeId> pis_, pos_, dffs_, ops_;
  std::size_t edge_count_ = 0;
};

}  // namespace gcnt
