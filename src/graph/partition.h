#pragma once
// Graph partitioning for sharded GCN execution (gcn/shard.h).
//
// A GraphPartition splits the CSR compute-row space into K disjoint
// *owner* sets plus, per shard, a D-hop *halo*: the rows within D hops
// (along predecessor or successor edges — Eq. 1 aggregates both
// directions) of the shard's owners that the shard does not own itself.
// A shard holding its owners' and halo rows' layer-(d-1) embeddings can
// compute D aggregation layers for its owners without touching any other
// row — the same closure argument the incremental engine's dirty cone
// uses (gcn/incremental.h), applied spatially instead of temporally.
//
// The halo rows carry their hop distance (1..D). A sharded engine
// running m <= D layers in one resident round computes the shrinking
// row sets {dist <= m-1}, {dist <= m-2}, ..., {dist == 0}: every row it
// computes at layer j reads only rows it computed (or loaded) at layer
// j-1, so the round needs exactly one gather of the halo embeddings —
// the "halo exchange" — per m layers.
//
// Owners are contiguous compute-row ranges of balanced size: shard k of
// K owns rows [n*k/K, n*(k+1)/K). Under GCNT_REORDER=rcm the compute
// order is already bandwidth-minimized, so contiguous ranges are locality
// (cone) clusters with thin halos. Partitioning is purely structural
// (CsrMatrix forms only), so the library sits below gcn/: callers
// operating on GraphTensors pass the pred/succ compute forms.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/sparse.h"

namespace gcnt {

struct PartitionOptions {
  std::size_t shards = 1;
  /// Halo depth D >= 1: hop radius of the boundary closure.
  int halo = 1;
};

/// Halo rows a shard receives from one producer shard: `rows` is the
/// ascending list of global compute rows, a subset of the producer's
/// owners. The union over a shard's recv groups is exactly its halo.
struct ShardRecv {
  std::uint32_t producer = 0;
  std::vector<std::uint32_t> rows;
};

struct Shard {
  /// Globally disjoint; every row is owned by exactly one shard.
  /// Ascending.
  std::vector<std::uint32_t> owners;
  /// Rows within halo-depth hops of an owner, excluding owners.
  /// Ascending, disjoint from every shard's owner set intersection with
  /// this shard (a halo row is always some *other* shard's owner).
  std::vector<std::uint32_t> halo;
  /// Exact hop distance of halo[i] from the nearest owner (1..D).
  std::vector<std::uint8_t> halo_dist;
  /// Halo grouped by owning shard, producers ascending.
  std::vector<ShardRecv> recv;
};

/// Disjoint K-way cover of the compute rows with exact D-hop halos and
/// the derived exchange lists. Built once per graph; extend() follows
/// the OPI flow's appended rows without a full rebuild.
class GraphPartition {
 public:
  GraphPartition() = default;

  /// Partitions rows [0, pred.rows()) — pred and succ must be the two
  /// adjacency compute forms of the same graph (equal row counts).
  /// Throws Error{kUsage} on bad options, Error{kInternal} on
  /// mismatched inputs.
  static GraphPartition build(const CsrMatrix& pred, const CsrMatrix& succ,
                              const PartitionOptions& options);

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t row_count() const noexcept { return owner_of_.size(); }
  int halo_depth() const noexcept { return halo_; }

  const Shard& shard(std::size_t k) const { return shards_.at(k); }
  std::uint32_t owner_of(std::uint32_t row) const { return owner_of_.at(row); }

  /// Total halo rows across shards (duplicates counted — the exchange
  /// volume of one full halo gather).
  std::size_t total_halo_rows() const noexcept;

  /// Follows appended rows: pred/succ are the *rebuilt* forms whose row
  /// count grew past row_count(). Each new row joins the shard owning
  /// its first predecessor (else successor) neighbor — OPI appends
  /// observe points whose only fanin is their target, so an OP lands in
  /// its target's shard. Halos (and recv lists) of every shard within
  /// halo-depth hops of a new row are recomputed exactly; returns the
  /// ascending list of shards whose owner set, halo, or recv lists may
  /// have changed.
  std::vector<std::size_t> extend(const CsrMatrix& pred,
                                  const CsrMatrix& succ);

  /// Checks every structural invariant against the adjacency (owners
  /// form a disjoint cover, halo = exact D-hop BFS closure with exact
  /// distances, recv groups partition the halo by owner). O(K * (rows +
  /// nnz)) — test/debug tier, not a hot path. Throws Error{kInternal}
  /// with a description of the first violation.
  void validate(const CsrMatrix& pred, const CsrMatrix& succ) const;

 private:
  /// Recomputes shard k's halo/halo_dist/recv from its owners by BFS.
  void rebuild_halo(std::size_t k, const CsrMatrix& pred,
                    const CsrMatrix& succ);

  std::vector<Shard> shards_;
  std::vector<std::uint32_t> owner_of_;
  int halo_ = 1;
};

}  // namespace gcnt
