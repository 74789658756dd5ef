#pragma once
// Iterative GCN-guided observation point insertion (Section 4, Fig. 7).
//
// Loop: predict difficult-to-observe nodes with the trained cascade →
// evaluate each positive's impact (positive-prediction reduction in its
// fan-in cone) → insert OPs at the top-ranked locations → incrementally
// update the graph (COO tuples, SCOAP CO in the affected cones, feature
// rows) → re-predict. Exit when no positive predictions remain (or the
// iteration/OP budget is exhausted).

#include <cstdint>
#include <vector>

#include "gcn/model.h"
#include "netlist/netlist.h"

namespace gcnt {

struct GcnOpiOptions {
  std::size_t max_iterations = 12;
  /// Fraction of ranked candidates inserted per iteration.
  double insert_fraction = 0.3;
  /// At least this many insertions per iteration (when candidates exist).
  std::size_t min_inserts_per_iteration = 8;
  /// Fan-in cone cap for impact evaluation.
  std::size_t impact_cone_limit = 96;
  /// Candidates with impact below this are deferred (paper inserts the
  /// "largest impact" locations first).
  int min_impact = 1;
  /// Standardize node features before prediction. MUST match how the
  /// supplied models were trained (true when they saw
  /// GraphTensors::standardize_features() data, false for raw features).
  bool standardize_features = false;
  /// Re-predict via the dirty-cone incremental engine (bit-identical to a
  /// full re-inference; see gcn/incremental.h) instead of re-running the
  /// whole-graph forward every iteration.
  bool incremental = true;
  /// > 0: predict with the sharded out-of-core engine (gcn/shard.h) at
  /// this shard count instead of the monolithic incremental engine —
  /// bit-identical logits, one-shard peak residency. 0 = monolithic.
  std::size_t shards = 0;
  /// Halo depth for the sharded engine (>= 1; also its layers-per-round).
  int shard_halo = 1;
  /// With shards > 0: non-empty spills off-shard embedding blocks under
  /// this directory (one subdirectory per cascade stage) instead of
  /// keeping them in memory.
  std::string shard_spill_dir;
  /// When non-empty, each iteration's accepted insertion batch is appended
  /// to this journal — fsync'd *before* it is applied (dft/flow_journal.h)
  /// — so an interrupted sweep can be resumed mid-flow.
  std::string journal_path;
  /// With a journal_path: replay a matching journal left by an interrupted
  /// sweep (re-applying its insertions on the original netlist without
  /// re-running prediction), then continue at the next iteration. Safe to
  /// pass always — with no journal on disk the sweep simply starts fresh.
  bool resume = false;
  /// Identity recorded in the journal header (e.g. the netlist file name);
  /// a resumed journal must have been written for the same design.
  std::string journal_design = "netlist";
};

struct OpiResult {
  std::vector<NodeId> inserted;   ///< targets that received an OP
  std::size_t iterations = 0;
  std::size_t final_positive_predictions = 0;
};

/// Runs the flow on `netlist` in place (OP nodes are appended). `stages`
/// is the trained prediction cascade (single model = one entry).
OpiResult run_gcn_opi(Netlist& netlist,
                      const std::vector<const GcnModel*>& stages,
                      const GcnOpiOptions& options = {});

}  // namespace gcnt
