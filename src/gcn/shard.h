#pragma once
// Sharded out-of-core GCN execution (forward + incremental OPI updates).
//
// The monolithic engines hold every per-layer embedding E_0..E_D for the
// whole graph in memory at once. ShardedGcnEngine instead partitions the
// compute rows into K shards (graph/partition.h) and walks them one at a
// time: for each shard it gathers the owner + halo embeddings, runs up to
// D aggregation layers on the shard-local sub-matrices, and scatters the
// owner results back out — so only one shard's tensors are ever resident.
// Off-shard state lives in a ShardStore, either as in-memory blocks or
// spilled to disk in the checksummed artifact envelope (common/artifact.h).
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
#include <set>
#include <string>
#include <vector>

#include "gcn/engine.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gcn/workspace.h"
#include "graph/partition.h"

namespace gcnt {

/// Keyed storage for off-shard embedding blocks: per-(layer, shard) owner
/// blocks and per-(layer, producer, consumer) halo export blocks. In
/// memory mode blocks live in a map; in disk mode each block is one
/// "shard-block" artifact file (u64 rows, u64 cols, then row-major floats,
/// native-endian — spill files are host-local scratch, not interchange).
/// Disk writes are atomic (temp + fsync + rename), so a crash mid-spill
/// leaves the previous block or none — never a torn file; reads verify
/// the envelope CRC and the header shape against the payload size and
/// throw Error{kCorrupt} on any damage, Error{kIo} when a block file is
/// missing or unreadable.
class ShardStore {
 public:
  ShardStore() = default;

  /// Switches to disk mode rooted at `dir` (created if missing); an empty
  /// dir reverts to memory mode. Call before any put().
  void configure(std::string dir);

  bool on_disk() const noexcept { return !dir_.empty(); }
  const std::string& dir() const noexcept { return dir_; }

  /// Owner block: embeddings E_layer of one shard's owner rows.
  void put(int layer, std::size_t shard, const Matrix& block);
  void get(int layer, std::size_t shard, Matrix& out) const;

  /// Export block: the rows of `producer`'s E_layer owner block that
  /// `consumer`'s halo needs, in the consumer's recv-group row order.
  void put_export(int layer, std::size_t producer, std::size_t consumer,
                  const Matrix& block);
  void get_export(int layer, std::size_t producer, std::size_t consumer,
                  Matrix& out) const;

  /// Spill file paths (disk mode; tests use these to corrupt/delete).
  std::string block_path(int layer, std::size_t shard) const;
  std::string export_path(int layer, std::size_t producer,
                          std::size_t consumer) const;

  /// Drops every stored block; disk mode removes the files it wrote.
  void clear();

  /// Blocks currently stored (memory entries or files written).
  std::size_t block_count() const noexcept {
    return on_disk() ? written_.size() : memory_.size();
  }

 private:
  void put_block(const std::string& key, const Matrix& block);
  void get_block(const std::string& key, Matrix& out) const;
  std::string path_of(const std::string& key) const;

  std::string dir_;
  std::map<std::string, Matrix> memory_;
  std::set<std::string> written_;  ///< disk keys, for clear()
};

struct ShardedGcnOptions {
  std::size_t shards = 2;
  /// Halo depth D >= 1; also the number of encoder layers per resident
  /// round. Deeper halos trade larger shard working sets for fewer halo
  /// exchanges. Independent of the model depth (rounds repeat).
  int halo = 1;
  /// Non-empty: spill off-shard blocks to artifact files under this
  /// directory instead of keeping them in memory (true out-of-core mode).
  std::string spill_dir;
  /// Same semantics as IncrementalGcnOptions: dirty fractions beyond this
  /// make update() run a full sharded refresh instead.
  double full_fallback_fraction = 0.25;
};

/// Shard-at-a-time counterpart of IncrementalGcnEngine: same GcnEngine
/// contract and bit-exact logits, but peak residency of one shard's
/// working set instead of the whole graph. refresh() (re)partitions when
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

  ShardStore& store() noexcept { return store_; }
  const ShardStore& store() const noexcept { return store_; }

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
  /// reads the feature matrix directly; deeper layers read the stored
  /// owner + export blocks).
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
  ShardStore store_;
  ForwardWorkspace ws_;
  Matrix active_a_;     ///< shard active-block ping
  Matrix active_b_;     ///< shard active-block pong
  Matrix compact_out_;  ///< per-layer compact activation output
  Matrix owner_block_;  ///< owner-row block staging
  Matrix xbuf_;         ///< export-row staging
  std::size_t cached_pred_nnz_ = 0;
  std::size_t cached_succ_nnz_ = 0;
};

}  // namespace gcnt
