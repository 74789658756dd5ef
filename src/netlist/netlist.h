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
//
// Storage is flat. Each direction's adjacency is one edge arena in which
// every node owns one contiguous slice, and every node name lives in one
// character arena. fanins(v) and fanouts(v) are spans into the arenas and
// node_name(v) is a view; an edit may move an arena, so a span or view
// stays valid only until the next non-const call on the netlist.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
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
  /// netlist will be written out; an empty name is auto-generated. `name`
  /// may be a node_name() of this netlist.
  NodeId add_node(CellType type, std::string_view name = {});

  /// Builds a netlist in one pass, as a reader does once every name is
  /// resolved. Node v has type types[v] and the fanins
  /// fanins[fanin_end[v - 1], fanin_end[v]) (from 0 for v = 0) in slot
  /// order, and is named names[v]. A node past names.size() must be an
  /// OUTPUT or OBSERVE sink with one fanin; it is named "out_" or "op_"
  /// plus its driver's name, as insert_observe_point names an OP.
  /// fanouts(u) lists u's consumers in ascending id order, which is what
  /// connecting the fanins node by node in id order gives. The name arena
  /// and both edge arenas are filled as kernel-pool blocks into arrays
  /// sized on the calling thread; the result does not depend on the
  /// thread count.
  static Netlist build(std::string design_name, std::vector<CellType> types,
                       std::span<const std::string_view> names,
                       std::span<const std::uint32_t> fanin_end,
                       std::vector<NodeId> fanins);

  /// Reserves room for `nodes` nodes in total, `name_bytes` bytes of names
  /// and `edges` edges, so adding up to that many does not reallocate.
  void reserve(std::size_t nodes, std::size_t name_bytes = 0,
               std::size_t edges = 0);

  /// Gives `v` room for `fanins` fanin and `fanouts` fanout edges, so
  /// connecting that many does not move v's lists. Called for every node
  /// in id order before any connect(), it lays all lists out packed.
  void reserve_edges(NodeId v, std::size_t fanins, std::size_t fanouts);

  /// Adds the directed edge `from -> to` (output of `from` drives an input
  /// of `to`). Duplicate edges are allowed (multi-input from same driver).
  /// Amortized O(1).
  void connect(NodeId from, NodeId to) {
    fanouts_.push(from, to);
    fanins_.push(to, from);
    ++edge_count_;
  }

  CellType type(NodeId v) const noexcept { return types_[v]; }
  std::string_view node_name(NodeId v) const noexcept {
    const std::uint32_t begin = v == 0 ? 0 : name_end_[v - 1];
    return {name_chars_.data() + begin, name_end_[v] - begin};
  }
  std::span<const NodeId> fanins(NodeId v) const noexcept {
    return fanins_.list(v);
  }
  std::span<const NodeId> fanouts(NodeId v) const noexcept {
    return fanouts_.list(v);
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
  /// graph is acyclic under the full-scan assumption. Throws a kCorrupt
  /// gcnt::Error on a combinational cycle.
  std::vector<NodeId> topological_order() const;

  /// Logic level per node: sources are level 0; every other node is
  /// 1 + max(level of combinational fanins). This is the LL attribute.
  std::vector<std::uint32_t> logic_levels() const;
  /// The same levels from the caller's topological_order(), so a caller
  /// that also needs the order (SCOAP) sorts once.
  std::vector<std::uint32_t> logic_levels(
      const std::vector<NodeId>& order) const;

  /// Transitive fanin cone of `root` (excluding `root`), breadth-first,
  /// stopping at sources; at most `limit` nodes are returned.
  std::vector<NodeId> fanin_cone(NodeId root,
                                 std::size_t limit = static_cast<std::size_t>(-1)) const;
  /// fanin_cone(root, limit) into `cone` without a graph-sized
  /// allocation: `seen` holds one word per node, ~0u where unvisited, and
  /// leaves `mark` on the root and every cone node, which the caller
  /// resets.
  void fanin_cone(NodeId root, std::size_t limit, std::vector<NodeId>& cone,
                  std::vector<std::uint32_t>& seen, std::uint32_t mark) const;

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
  /// fanout lists updated. Edge count is preserved. O(fanouts of `from`
  /// plus their fanins).
  void retarget_fanouts(NodeId from, NodeId to, NodeId except = kInvalidNode);

  /// Structural validation: fanin arities, source/sink conventions,
  /// acyclicity. Returns a list of human-readable problems (empty = valid).
  std::vector<std::string> validate() const;

 private:
  /// One direction's adjacency: a single edge arena in which node v's list
  /// is the slice [begin, begin + size) with room for `capacity` entries. A
  /// push onto a full list extends it in place when it ends the arena, and
  /// otherwise moves it to the arena's end with doubled capacity, so an
  /// append is amortized O(1) and every list stays one contiguous span. A
  /// moved list leaves its old slots unused until the next copy, which lays
  /// every list out packed.
  class EdgeArena {
   public:
    EdgeArena() = default;
    EdgeArena(const EdgeArena& other);
    EdgeArena& operator=(const EdgeArena& other);
    EdgeArena(EdgeArena&&) noexcept = default;
    EdgeArena& operator=(EdgeArena&&) noexcept = default;

    std::span<const NodeId> list(NodeId v) const noexcept {
      const Slice& s = slices_[v];
      return {edges_.data() + s.begin, s.size};
    }
    std::span<NodeId> list(NodeId v) noexcept {
      const Slice& s = slices_[v];
      return {edges_.data() + s.begin, s.size};
    }

    /// Adds an empty list for the next node.
    void add_list() { slices_.emplace_back(); }
    /// Replaces every list: list v becomes edges[list_end[v - 1],
    /// list_end[v]) (from 0 for v = 0), packed.
    void assign(std::vector<NodeId> edges,
                std::span<const std::uint32_t> list_end);
    /// Reserves room for `lists` lists and `edges` arena slots in total.
    void reserve(std::size_t lists, std::size_t edges);
    /// Gives v's list room for `capacity` entries (a no-op when it has it).
    void reserve_list(NodeId v, std::size_t capacity);
    void push(NodeId v, NodeId x) {
      Slice& s = slices_[v];
      if (s.size == s.capacity) grow(v);
      edges_[s.begin + s.size++] = x;
    }
    /// Keeps the first `size` entries of v's list.
    void truncate(NodeId v, std::size_t size) noexcept {
      slices_[v].size = static_cast<std::uint32_t>(size);
    }

   private:
    struct Slice {
      std::uint32_t begin = 0;
      std::uint32_t size = 0;
      std::uint32_t capacity = 0;
    };

    /// Moves or extends v's list so it has room for at least one more entry.
    void grow(NodeId v);
    /// Places v's list at the arena's end with `capacity` slots.
    void relocate(NodeId v, std::size_t capacity);

    std::vector<Slice> slices_;
    std::vector<NodeId> edges_;
  };

  /// Appends `v` to the PI/PO/DFF/OP list its type belongs to.
  void list_by_type(NodeId v);

  /// True if edges from `v` carry combinational data (DFF outputs do, but
  /// the DFF's *input* edge is a sequential boundary).
  bool edge_is_combinational(NodeId from, NodeId to) const noexcept;

  std::string name_;
  std::vector<CellType> types_;
  std::vector<char> name_chars_;          // every name, back to back
  std::vector<std::uint32_t> name_end_;   // node v's name ends here
  EdgeArena fanins_;
  EdgeArena fanouts_;
  std::vector<NodeId> pis_, pos_, dffs_, ops_;
  std::size_t edge_count_ = 0;
};

}  // namespace gcnt
