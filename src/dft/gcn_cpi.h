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
// top-ranked get CP1/CP0 gates, and the loop (dft/insertion_loop.cpp)
// re-predicts the rows the rebuild after each batch changed until no
// positives remain (with standardize_features every row changes).

#include <cstdint>
#include <vector>

#include "dft/flow_journal.h"
#include "gcn/model.h"
#include "netlist/netlist.h"

namespace gcnt {

struct GcnCpiOptions : FlowJournalOptions {
  std::size_t max_iterations = 10;
  double insert_fraction = 0.3;
  std::size_t min_inserts_per_iteration = 4;
  /// Fan-out cone cap for the coverage ranking.
  std::size_t rank_cone_limit = 96;
  /// Must match the training-time feature convention of `stages`.
  bool standardize_features = false;
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
