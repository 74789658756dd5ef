// Sharded execution (graph/partition.h + gcn/shard.h): the equivalence
// suite pinning the bitwise-identity claim — sharded logits must equal
// the monolithic GcnModel::infer and IncrementalGcnEngine results for
// every shard count, halo depth and reorder policy — plus partition
// invariant tests (disjoint cover, exact D-hop halo closure, owner/halo
// bijection, extend-after-append). Registered whole-binary at
// GCNT_THREADS 1 and 8 (tests/CMakeLists.txt), mirroring the serve suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "gcn/graph_tensors.h"
#include "gcn/incremental.h"
#include "gcn/model.h"
#include "gcn/shard.h"
#include "gen/generator.h"
#include "graph/partition.h"
#include "netlist/netlist.h"
#include "scoap/scoap.h"

namespace gcnt {
namespace {

Netlist test_netlist(std::uint64_t seed, std::size_t gates = 2000) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = gates;
  config.primary_inputs = 30;
  config.primary_outputs = 12;
  config.flip_flops = 32;
  return generate_circuit(config);
}

GcnConfig small_config(int depth = 3) {
  GcnConfig config;
  config.depth = depth;
  config.embed_dims = {8, 12, 16};
  config.embed_dims.resize(static_cast<std::size_t>(depth));
  config.fc_dims = {16};
  config.seed = 77;
  return config;
}

std::vector<NodeId> op_targets(const Netlist& netlist, std::size_t count,
                               std::size_t skip = 0) {
  std::vector<NodeId> targets;
  std::size_t seen = 0;
  for (NodeId v = 0; v < netlist.size() && targets.size() < count; ++v) {
    const CellType t = netlist.type(v);
    if (is_sink(t) || t == CellType::kInput) continue;
    if (seen++ < skip) continue;
    targets.push_back(v);
  }
  return targets;
}

/// Applies OP insertions exactly as run_gcn_opi does and rebuilds the CSR
/// forms; records the dirty seeds into `tracker`.
void insert_ops(Netlist& netlist, GraphTensors& tensors, ScoapMeasures& scoap,
                std::vector<std::uint32_t>& levels,
                const std::vector<NodeId>& targets, DirtyConeTracker& tracker) {
  for (const NodeId target : targets) {
    const NodeId op = netlist.insert_observe_point(target);
    update_observability_after_observe(netlist, target, scoap);
    levels.resize(netlist.size(), 0);
    levels[op] = levels[target] + 1;
    const std::vector<NodeId> cone = netlist.fanin_cone(target);
    std::vector<NodeId> changed_rows;
    append_observe_point(tensors, netlist, target, op, scoap, cone,
                         &changed_rows);
    tracker.record_new_node(op);
    tracker.record_edge(target, op);
    for (NodeId v : changed_rows) tracker.record_feature(v);
  }
  tensors.rebuild_csr();
}

ErrorKind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a gcnt::Error";
  return ErrorKind::kInternal;
}

// ---------------------------------------------------------------------------
// GraphPartition invariants

TEST(GraphPartition, DisjointCoverWithExactHalo) {
  for (const int halo : {1, 2}) {
    Netlist netlist = test_netlist(21, 600);
    GraphTensors tensors = build_graph_tensors(netlist);
    ScoapMeasures scoap = compute_scoap(netlist);
    std::vector<std::uint32_t> levels = netlist.logic_levels();
    const std::size_t built_rows = tensors.node_count();
    PartitionOptions options;
    options.shards = 4;
    options.halo = halo;
    GraphPartition partition =
        GraphPartition::build(tensors.pred, tensors.succ, options);
    ASSERT_EQ(partition.shard_count(), 4u);

    const auto check = [&] {
      ASSERT_EQ(partition.row_count(), tensors.node_count());
      // validate() checks the disjoint exhaustive cover, the exact D-hop
      // BFS closure (list and distances), and the recv regrouping.
      partition.validate(tensors.pred, tensors.succ);

      const std::size_t shards = partition.shard_count();
      std::size_t owned = 0;
      for (std::size_t k = 0; k < shards; ++k) {
        const Shard& shard = partition.shard(k);
        owned += shard.owners.size();
        // Shard k owns exactly the contiguous build-time range
        // [n*k/K, n*(k+1)/K); extend() only appends rows past n.
        std::vector<std::uint32_t> built_owners;
        for (const std::uint32_t row : shard.owners) {
          if (row < built_rows) built_owners.push_back(row);
        }
        std::vector<std::uint32_t> range(built_rows * (k + 1) / shards -
                                         built_rows * k / shards);
        std::iota(range.begin(), range.end(),
                  static_cast<std::uint32_t>(built_rows * k / shards));
        EXPECT_EQ(built_owners, range) << "shard " << k;
        // Every fanin/fanout of an owner that is not owned here must be
        // in the halo (the D >= 1 closure property the compute rounds
        // rely on).
        for (const std::uint32_t row : shard.owners) {
          const auto check_neighbors = [&](const CsrMatrix& adjacency) {
            const auto& ptr = adjacency.row_ptr();
            const auto& cols = adjacency.col_index();
            for (std::uint32_t e = ptr[row]; e < ptr[row + 1]; ++e) {
              if (partition.owner_of(cols[e]) != k) {
                EXPECT_TRUE(std::binary_search(shard.halo.begin(),
                                               shard.halo.end(), cols[e]));
              }
            }
          };
          check_neighbors(tensors.pred);
          check_neighbors(tensors.succ);
        }
      }
      EXPECT_EQ(owned, tensors.node_count());
    };
    check();

    DirtyConeTracker tracker;
    insert_ops(netlist, tensors, scoap, levels, op_targets(netlist, 12),
               tracker);
    partition.extend(tensors.pred, tensors.succ);
    ASSERT_GT(tensors.node_count(), built_rows);
    check();
  }
}

TEST(GraphPartition, OwnerHaloBijectionRoundTrip) {
  const Netlist netlist = test_netlist(22, 400);
  const GraphTensors tensors = build_graph_tensors(netlist);
  PartitionOptions options;
  options.shards = 3;
  options.halo = 2;
  const GraphPartition partition =
      GraphPartition::build(tensors.pred, tensors.succ, options);
  for (std::size_t k = 0; k < partition.shard_count(); ++k) {
    const Shard& shard = partition.shard(k);
    // owners and halo are disjoint ascending lists; their merge (the
    // shard's active set) maps global -> local -> global losslessly.
    std::vector<std::uint32_t> active;
    std::merge(shard.owners.begin(), shard.owners.end(), shard.halo.begin(),
               shard.halo.end(), std::back_inserter(active));
    ASSERT_TRUE(std::is_sorted(active.begin(), active.end()));
    ASSERT_TRUE(std::adjacent_find(active.begin(), active.end()) ==
                active.end());
    for (std::size_t local = 0; local < active.size(); ++local) {
      const auto it = std::lower_bound(active.begin(), active.end(),
                                       active[local]);
      EXPECT_EQ(static_cast<std::size_t>(it - active.begin()), local);
    }
    // recv groups partition the halo exactly.
    std::vector<std::uint32_t> regrouped;
    for (const ShardRecv& recv : shard.recv) {
      for (const std::uint32_t row : recv.rows) regrouped.push_back(row);
    }
    std::sort(regrouped.begin(), regrouped.end());
    EXPECT_EQ(regrouped, shard.halo);
  }
}

TEST(GraphPartition, SingleShardHasEmptyHalo) {
  const Netlist netlist = test_netlist(23, 300);
  const GraphTensors tensors = build_graph_tensors(netlist);
  PartitionOptions options;
  options.shards = 1;
  options.halo = 2;
  const GraphPartition partition =
      GraphPartition::build(tensors.pred, tensors.succ, options);
  partition.validate(tensors.pred, tensors.succ);
  EXPECT_EQ(partition.shard(0).owners.size(), tensors.node_count());
  EXPECT_TRUE(partition.shard(0).halo.empty());
  EXPECT_EQ(partition.total_halo_rows(), 0u);
}

TEST(GraphPartition, RejectsBadOptions) {
  const Netlist netlist = test_netlist(25, 100);
  const GraphTensors tensors = build_graph_tensors(netlist);
  PartitionOptions options;
  options.shards = 0;
  EXPECT_EQ(kind_of([&] {
              GraphPartition::build(tensors.pred, tensors.succ, options);
            }),
            ErrorKind::kUsage);
  options.shards = 2;
  options.halo = 0;
  EXPECT_EQ(kind_of([&] {
              GraphPartition::build(tensors.pred, tensors.succ, options);
            }),
            ErrorKind::kUsage);
}

TEST(GraphPartition, ExtendFollowsAppendedRowsExactly) {
  Netlist netlist = test_netlist(26, 800);
  GraphTensors tensors = build_graph_tensors(netlist);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  PartitionOptions options;
  options.shards = 4;
  options.halo = 2;
  GraphPartition partition =
      GraphPartition::build(tensors.pred, tensors.succ, options);

  DirtyConeTracker tracker;
  const std::vector<NodeId> targets = op_targets(netlist, 12);
  insert_ops(netlist, tensors, scoap, levels, targets, tracker);

  const std::vector<std::size_t> affected =
      partition.extend(tensors.pred, tensors.succ);
  EXPECT_FALSE(affected.empty());
  EXPECT_TRUE(std::is_sorted(affected.begin(), affected.end()));
  // After extend the full invariant set must hold again — including the
  // exact-closure property for shards whose halo changed through paths
  // crossing the appended nodes.
  ASSERT_EQ(partition.row_count(), tensors.node_count());
  partition.validate(tensors.pred, tensors.succ);
  // An observe point's only fanin is its target, so it joins the
  // target's shard.
  for (const NodeId target : targets) {
    const auto& fanouts = netlist.fanouts(target);
    for (const NodeId w : fanouts) {
      if (netlist.type(w) == CellType::kObserve) {
        EXPECT_EQ(partition.owner_of(tensors.row_of(w)),
                  partition.owner_of(tensors.row_of(target)));
      }
    }
  }
}

TEST(GraphPartition, ExtendWithZeroAppendedRows) {
  const Netlist netlist = test_netlist(27, 500);
  const GraphTensors tensors = build_graph_tensors(netlist);
  PartitionOptions options;
  options.shards = 3;
  options.halo = 2;
  GraphPartition partition =
      GraphPartition::build(tensors.pred, tensors.succ, options);
  std::vector<std::vector<std::uint32_t>> owners_before, halo_before;
  for (std::size_t k = 0; k < partition.shard_count(); ++k) {
    owners_before.push_back(partition.shard(k).owners);
    halo_before.push_back(partition.shard(k).halo);
  }
  // Extend with nothing appended: a no-op that must touch no shard.
  const std::vector<std::size_t> affected =
      partition.extend(tensors.pred, tensors.succ);
  EXPECT_TRUE(affected.empty());
  EXPECT_EQ(partition.row_count(), tensors.node_count());
  for (std::size_t k = 0; k < partition.shard_count(); ++k) {
    EXPECT_EQ(partition.shard(k).owners, owners_before[k]);
    EXPECT_EQ(partition.shard(k).halo, halo_before[k]);
  }
  partition.validate(tensors.pred, tensors.succ);
}

/// Rows within `hops` BFS steps of `start` over the pred+succ union.
std::vector<std::uint32_t> neighborhood(const CsrMatrix& pred,
                                        const CsrMatrix& succ,
                                        std::uint32_t start, int hops) {
  std::vector<std::uint32_t> frontier{start};
  std::vector<std::uint32_t> seen{start};
  for (int d = 0; d < hops; ++d) {
    std::vector<std::uint32_t> next;
    for (const std::uint32_t row : frontier) {
      const auto expand = [&](const CsrMatrix& adjacency) {
        const auto& ptr = adjacency.row_ptr();
        const auto& cols = adjacency.col_index();
        for (std::uint32_t e = ptr[row]; e < ptr[row + 1]; ++e) {
          if (std::find(seen.begin(), seen.end(), cols[e]) == seen.end()) {
            seen.push_back(cols[e]);
            next.push_back(cols[e]);
          }
        }
      };
      expand(pred);
      expand(succ);
    }
    frontier = std::move(next);
  }
  return seen;
}

TEST(GraphPartition, ExtendAppendTouchingNoExistingHalo) {
  Netlist netlist = test_netlist(28, 900);
  GraphTensors tensors = build_graph_tensors(netlist);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  PartitionOptions options;
  options.shards = 2;
  options.halo = 2;
  GraphPartition partition =
      GraphPartition::build(tensors.pred, tensors.succ, options);

  // An OP target deep inside one shard: everything within halo+1 hops is
  // owned by that shard, so the appended OP row (one hop from the target)
  // can reach no row of the other shard within the halo depth. Shard 0 is
  // tried first; under RCM its rows can all sit near the cut.
  const auto interior_target = [&](std::size_t shard) {
    for (const NodeId v : op_targets(netlist, netlist.size())) {
      if (partition.owner_of(tensors.row_of(v)) != shard) continue;
      bool interior = true;
      for (const std::uint32_t row :
           neighborhood(tensors.pred, tensors.succ, tensors.row_of(v),
                        options.halo + 1)) {
        if (partition.owner_of(row) != shard) {
          interior = false;
          break;
        }
      }
      if (interior) return v;
    }
    return kInvalidNode;
  };
  std::size_t home = 0;
  NodeId target = interior_target(home);
  if (target == kInvalidNode) target = interior_target(++home);
  ASSERT_NE(target, kInvalidNode) << "no interior target found in any shard";
  const std::size_t other = 1 - home;

  const std::vector<std::uint32_t> owners_before =
      partition.shard(other).owners;
  const std::vector<std::uint32_t> halo_before = partition.shard(other).halo;

  DirtyConeTracker tracker;
  insert_ops(netlist, tensors, scoap, levels, {target}, tracker);
  const std::vector<std::size_t> affected =
      partition.extend(tensors.pred, tensors.succ);
  // Only the owning shard rebuilds; the untouched shard keeps its exact
  // owner and halo lists (the incremental-extend contract).
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0], home);
  EXPECT_EQ(partition.shard(other).owners, owners_before);
  EXPECT_EQ(partition.shard(other).halo, halo_before);
  EXPECT_EQ(partition.owner_of(tensors.row_of(
                static_cast<NodeId>(netlist.size() - 1))),
            home);
  partition.validate(tensors.pred, tensors.succ);
}

// ---------------------------------------------------------------------------
// Sharded forward: bitwise identity vs the monolithic model

TEST(ShardedForward, BitIdenticalAcrossShardAndHaloSweep) {
  const Netlist netlist = test_netlist(31);
  const GraphTensors tensors = build_graph_tensors(netlist);
  GcnModel model(small_config());
  const Matrix reference = model.infer(tensors);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const int halo : {1, 2}) {
      ShardedGcnOptions options;
      options.shards = shards;
      options.halo = halo;
      ShardedGcnEngine engine(model, options);
      engine.refresh(tensors);
      EXPECT_EQ(engine.logits(), reference)
          << "shards=" << shards << " halo=" << halo;
      engine.partition().validate(tensors.pred, tensors.succ);
      EXPECT_TRUE(engine.last_was_full());
    }
  }
}

TEST(ShardedForward, BitIdenticalUnderRcmReorder) {
  set_graph_reorder(GraphReorder::kRcm);
  const Netlist netlist = test_netlist(32);
  const GraphTensors tensors = build_graph_tensors(netlist);
  ASSERT_TRUE(tensors.reordered());
  GcnModel model(small_config());
  const Matrix reference = model.infer(tensors);
  for (const std::size_t shards : {2u, 4u}) {
    for (const int halo : {1, 2}) {
      ShardedGcnOptions options;
      options.shards = shards;
      options.halo = halo;
      ShardedGcnEngine engine(model, options);
      engine.refresh(tensors);
      EXPECT_EQ(engine.logits(), reference)
          << "shards=" << shards << " halo=" << halo;
    }
  }
  reset_graph_reorder();
}

// ---------------------------------------------------------------------------
// Sharded incremental updates: the OPI dirty-cone path

TEST(ShardedIncremental, MatchesMonolithicAcrossInsertionBatches) {
  Netlist netlist = test_netlist(41);
  GraphTensors tensors = build_graph_tensors(netlist);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  const GcnConfig config = small_config();
  GcnModel model(config);

  ShardedGcnOptions options;
  options.shards = 3;
  options.halo = 2;
  // Depth-3 dirty cones on a graph this small exceed the default 25%
  // fallback fraction; raise it so the updates exercise the incremental
  // path rather than degenerating to full forwards.
  options.full_fallback_fraction = 0.9;
  ShardedGcnEngine sharded(model, options);
  IncrementalGcnEngine monolithic(model);
  sharded.refresh(tensors);
  monolithic.refresh(tensors);
  ASSERT_EQ(sharded.logits(), monolithic.logits());

  std::size_t skip = 0;
  for (const std::size_t batch : {1u, 5u, 16u}) {
    DirtyConeTracker tracker;
    const std::vector<NodeId> targets = op_targets(netlist, batch, skip);
    skip += 40;
    ASSERT_EQ(targets.size(), batch);
    insert_ops(netlist, tensors, scoap, levels, targets, tracker);
    const std::vector<NodeId> dirty = tracker.affected(tensors, config.depth);
    sharded.update(tensors, dirty);
    monolithic.update(tensors, dirty);
    EXPECT_FALSE(sharded.last_was_full()) << "batch=" << batch;
    EXPECT_EQ(sharded.last_dirty_rows(), dirty.size());
    EXPECT_EQ(sharded.logits(), monolithic.logits()) << "batch=" << batch;
    EXPECT_EQ(sharded.logits(), model.infer(tensors)) << "batch=" << batch;
    sharded.partition().validate(tensors.pred, tensors.succ);
  }
}

TEST(ShardedIncremental, RcmReorderStaysIdentical) {
  set_graph_reorder(GraphReorder::kRcm);
  Netlist netlist = test_netlist(42);
  GraphTensors tensors = build_graph_tensors(netlist);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  const GcnConfig config = small_config();
  GcnModel model(config);

  ShardedGcnOptions options;
  options.shards = 4;
  options.halo = 1;
  options.full_fallback_fraction = 0.9;
  ShardedGcnEngine engine(model, options);
  engine.refresh(tensors);

  std::size_t skip = 10;
  for (const std::size_t batch : {2u, 8u}) {
    DirtyConeTracker tracker;
    const std::vector<NodeId> targets = op_targets(netlist, batch, skip);
    skip += 30;
    insert_ops(netlist, tensors, scoap, levels, targets, tracker);
    const std::vector<NodeId> dirty = tracker.affected(tensors, config.depth);
    engine.update(tensors, dirty);
    EXPECT_FALSE(engine.last_was_full());
    EXPECT_EQ(engine.logits(), model.infer(tensors)) << "batch=" << batch;
  }
  reset_graph_reorder();
}

TEST(ShardedIncremental, OversizedDirtySetFallsBackToFullForward) {
  const Netlist netlist = test_netlist(43, 500);
  const GraphTensors tensors = build_graph_tensors(netlist);
  GcnModel model(small_config());
  ShardedGcnEngine engine(model, ShardedGcnOptions{});
  engine.refresh(tensors);
  std::vector<NodeId> all(tensors.node_count());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  engine.update(tensors, all);
  EXPECT_TRUE(engine.last_was_full());
  EXPECT_EQ(engine.logits(), model.infer(tensors));
}

}  // namespace
}  // namespace gcnt
