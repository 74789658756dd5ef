#pragma once
// Sharded GCN execution (forward + incremental OPI updates).
//
// The monolithic engines run every layer over the whole graph at once.
// ShardedGcnEngine instead partitions the compute rows into K shards
// (graph/partition.h) and walks them one at a time: for each shard it
// gathers the owner + halo embeddings, runs up to D aggregation layers on
// the shard-local sub-matrices, and scatters the owner results back out.
// Off-shard state stays in the engine as keyed in-memory blocks.
//
// The tier is library-only: no command selects it. It loses to the
// monolithic engine in time and memory, and stays only for perfbench's
// sharded probes (ROADMAP item 4).
//
// Bitwise identity with the monolithic path is a hard invariant, pinned
// by tests/shard_test.cpp: the shard-local CSR forms are carved out of
// the global CSR with each row's nonzero order preserved
// (CsrMatrix::from_parts), and every layer runs the row-subset form of
// GcnModel::layer_step, which accumulates per output element in the same
// order as the whole-graph step — so sharded logits equal GcnModel::infer
// bit-for-bit for any K, halo depth, thread count, or reorder policy.
//
// Round structure: with halo depth D and L encoder layers, a full forward
// runs ceil(L / D) rounds. Within a round of m <= D layers a shard
// computes the shrinking row sets {dist <= m-1} ... {dist == 0}; each
// computed row reads only rows computed (or gathered) one layer earlier,
// so the halo exchange happens once per round, not once per layer.
// Incremental updates are layer-synchronous instead (all dirty shards
// advance one layer before any advances to the next) because the dirty
// cone already bounds the work.

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "gcn/engine.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gcn/workspace.h"
#include "graph/partition.h"

namespace gcnt {

struct ShardedGcnOptions {
  std::size_t shards = 2;
  /// Halo depth D >= 1; also the number of encoder layers per resident
  /// round. Deeper halos trade larger shard working sets for fewer halo
  /// exchanges. Independent of the model depth (rounds repeat).
  int halo = 1;
  /// Dirty fractions beyond this make update() run a full sharded refresh
  /// instead.
  double full_fallback_fraction = kFullFallbackFraction;
};

/// Shard-at-a-time counterpart of IncrementalGcnEngine: same GcnEngine
/// contract and bit-exact logits. refresh() (re)partitions when
/// the graph changed shape; update() re-propagates the dirty rows through
/// the stored blocks shard by shard and layer-synchronously, extending
/// the partition over appended rows. The engine tracks one evolving graph
/// across calls, exactly like the incremental engine's cache.
class ShardedGcnEngine : public GcnEngine {
 public:
  explicit ShardedGcnEngine(const GcnModel& model,
                            ShardedGcnOptions options = {});

  const ShardedGcnOptions& options() const noexcept { return options_; }

  /// The active partition. Throws Error{kUsage} before the first
  /// refresh().
  const GraphPartition& partition() const;

  /// Owner and export blocks currently stored.
  std::size_t block_count() const noexcept {
    return owner_blocks_.size() + export_blocks_.size();
  }

 private:
  /// Resident working set of one shard: the active rows (owners + halo,
  /// ascending global ids), their halo distances, the carved local CSR
  /// forms (columns remapped to active-local indices; rows filled only
  /// for dist <= D-1 — deeper rows are never computed locally), and the
  /// precomputed index lists the round loop needs.
  struct LocalShard {
    std::vector<std::uint32_t> active;
    std::vector<std::uint8_t> dist;
    CsrMatrix pred;
    CsrMatrix succ;
    /// rows_within[t]: local ids with dist <= t (the layer-t compute
    /// set), ascending; rows_within[0] is the owners' local positions.
    std::vector<std::vector<std::uint32_t>> rows_within;
    /// owner_pos_in[t][i]: index of owner i inside rows_within[t].
    std::vector<std::vector<std::uint32_t>> owner_pos_in;
    /// recv_local[g][i]: active-local position of partition recv group
    /// g's row i (where gathered halo embeddings land).
    std::vector<std::vector<std::uint32_t>> recv_local;
  };

  /// Rows one producer exports to one consumer, as positions into the
  /// producer's owner block.
  struct ExportPlan {
    std::size_t consumer = 0;
    std::vector<std::uint32_t> positions;
  };

  void full_pass(const GraphTensors& tensors) override;
  void dirty_pass(const GraphTensors& tensors,
                  const std::vector<NodeId>& dirty) override;
  void rebuild_all(const GraphTensors& tensors);
  void rebuild_local(const GraphTensors& tensors, std::size_t k);
  void rebuild_send_views();
  /// Loads shard k's full active block of E_layer into `out` (layer 0
  /// reads the feature matrix directly; deeper layers read the owner +
  /// export blocks).
  void gather_active(const GraphTensors& tensors, std::size_t k, int layer,
                     Matrix& out);
  /// Writes every export block of producer p at `layer` from its owner
  /// block.
  void put_exports(int layer, std::size_t p, const Matrix& owner_block);
  /// FC head over a compact block whose row i belongs to global compute
  /// row rows[i]; scatters the final logits into logits_ (node order).
  void run_fc(const GraphTensors& tensors, const Matrix& input,
              const std::vector<std::uint32_t>& rows);

  ShardedGcnOptions options_;
  GraphPartition partition_;
  bool has_partition_ = false;
  std::vector<LocalShard> locals_;
  std::vector<std::vector<ExportPlan>> send_;
  /// E_layer of one shard's owner rows, keyed (layer, shard).
  std::map<std::pair<int, std::size_t>, Matrix> owner_blocks_;
  /// The rows of a producer's owner block that a consumer's halo needs,
  /// in the consumer's recv-group row order; keyed (layer, producer,
  /// consumer).
  std::map<std::tuple<int, std::size_t, std::size_t>, Matrix> export_blocks_;
  ForwardWorkspace ws_;
  Matrix active_a_;     ///< shard active-block ping
  Matrix active_b_;     ///< shard active-block pong
  Matrix compact_out_;  ///< per-layer compact activation output
  std::size_t cached_pred_nnz_ = 0;
  std::size_t cached_succ_nnz_ = 0;
};

}  // namespace gcnt
