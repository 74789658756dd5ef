#pragma once
// GCN-guided control point insertion — the control-side twin of
// run_gcn_opi(), realizing Section 2.2's claim that the methodology
// "can be applied to both CPs insertion and OPs insertion".
//
// A classifier trained on difficult-to-control labels
// (label_difficult_to_control) predicts nodes random patterns cannot
// drive to one of their values; candidates are ranked by how many other
// positive predictions sit in their fan-OUT cone (a controlled node feeds
// easier values downstream, so one CP can cure a whole region), the
// top-ranked get CP1/CP0 gates, and the loop re-predicts on the updated
// graph until no positives remain.

#include <cstdint>
#include <vector>

#include "gcn/model.h"
#include "netlist/netlist.h"

namespace gcnt {

struct GcnCpiOptions {
  std::size_t max_iterations = 10;
  double insert_fraction = 0.3;
  std::size_t min_inserts_per_iteration = 4;
  /// Fan-out cone cap for the coverage ranking.
  std::size_t rank_cone_limit = 96;
  /// Must match the training-time feature convention of `stages`.
  bool standardize_features = false;
  /// Re-predict via the dirty-cone incremental engine: the tensors are
  /// rebuilt after each batch (CP insertion rewires fanouts and shifts
  /// SCOAP globally) in the previous locality order, and only rows whose
  /// features or structure changed are re-propagated. Bit-identical to a
  /// full re-inference. standardize_features recenters every row on each
  /// rebuild, so the engine then always takes its full-graph fallback.
  bool incremental = true;
  /// When non-empty, each iteration's accepted insertion batch — target
  /// plus drive-toward-one flag — is journaled (fsync'd) before it is
  /// applied, making an interrupted sweep resumable (dft/flow_journal.h).
  std::string journal_path;
  /// With a journal_path: replay a matching journal left by an interrupted
  /// sweep, then continue at the next iteration. Safe to pass always.
  bool resume = false;
  /// Identity recorded in the journal header (e.g. the netlist file name).
  std::string journal_design = "netlist";
};

struct GcnCpiResult {
  std::vector<Netlist::ControlPoint> inserted;
  std::size_t iterations = 0;
  std::size_t final_positive_predictions = 0;
};

/// Runs the flow on `netlist` in place. `stages` is a cascade trained on
/// difficult-to-control labels (single model = one entry).
GcnCpiResult run_gcn_cpi(Netlist& netlist,
                         const std::vector<const GcnModel*>& stages,
                         const GcnCpiOptions& options = {});

}  // namespace gcnt
