// The iterative test point insertion loop of Section 4 (Fig. 7), shared by
// the GCN-guided OPI flow (dft/gcn_opi.h) and its control-point twin
// (dft/gcn_cpi.h): predict, rank the candidates by score, journal the
// planned batch, apply it, re-predict. A flow supplies only its candidate
// test, its score, its plan and its edit.

#include "dft/insertion_loop.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "common/trace.h"
#include "cop/cop.h"
#include "dft/flow_journal.h"
#include "dft/gcn_cpi.h"
#include "dft/gcn_opi.h"
#include "dft/impact.h"
#include "gcn/editable_design.h"

namespace gcnt {

std::size_t insertion_budget(std::size_t candidates, double fraction,
                             std::size_t minimum) {
  const auto top =
      static_cast<std::size_t>(fraction * static_cast<double>(candidates));
  return std::min(std::max(minimum, top), candidates);
}

namespace {

/// A flow's names: its journal id, which also prefixes its counters and
/// tags its log lines ("gcn-<flow>"); its spans and the insert span's
/// batch-size arg (literals, as spans keep the pointers); and the noun
/// for one insertion in its log lines.
struct InsertionNames {
  const char *flow, *replay, *iteration, *predict, *insert, *insert_arg;
  const char* points;
};

/// Runs the loop over `netlist` through `design`, which edits it and has
/// its models set. `options` holds max_iterations, insert_fraction,
/// min_inserts_per_iteration and the journal fields; `result` gets
/// inserted, iterations and final_positive_predictions. `Flow` supplies
/// kNames and the four flow-specific steps:
///   bool candidate(NodeId v) const;  // besides a positive prediction
///   std::vector<int> scores(EditableDesign&, candidates, predictions);
///   std::vector<std::pair<NodeId, int>> plan(ranked, budget);  // flags
///   auto apply(EditableDesign&, NodeId target, int flag);  // -> inserted
template <class Flow, class Options, class Result>
void run_insertion_loop(EditableDesign& design, const Netlist& netlist,
                        const Options& options, Flow& flow, Result& result) {
  constexpr const InsertionNames& names = Flow::kNames;
  const std::string prefix = names.flow;
  StatsRegistry& stats = StatsRegistry::instance();
  static Counter& iterations_counter = stats.counter(prefix + ".iterations");
  static Counter& inserted_counter = stats.counter(prefix + ".inserted_points");
  static Counter& dirty_nodes_counter = stats.counter(prefix + ".dirty_nodes");
  static Counter& fallbacks_counter = stats.counter(prefix + ".full_fallbacks");
  static Counter& replays_counter = stats.counter(prefix + ".replayed_records");

  // The journal must record the pre-insertion node count: resume replays
  // onto the original netlist, so identity is checked against it.
  FlowJournal journal;
  if (!options.journal_path.empty()) {
    journal.open(options.journal_path, names.flow, options.journal_design,
                 netlist.size(), options.resume);
  }

  // The live sweep and journal replay both apply a journal record.
  const auto apply = [&](const FlowJournalRecord& record) {
    for (const auto& [target, flag] : record.entries) {
      result.inserted.push_back(flow.apply(design, target, flag));
    }
    inserted_counter.add(record.entries.size());
  };

  // A resumed sweep replays the journal through the same edits, without
  // prediction or ranking, so it reproduces the interrupted netlist. Its
  // first predict() refreshes: the same bits as the dirty-cone updates.
  for (const FlowJournalRecord& record : journal.records()) {
    TraceSpan replay_span(names.replay);
    apply(record);
    replays_counter.add();
    result.iterations = record.iteration + 1;
  }
  if (!journal.records().empty()) {
    log_info("gcn-", names.flow, " resume: replayed ", journal.records().size(),
             " journaled iterations (", result.inserted.size(), " ",
             names.points, ")");
  }

  for (std::size_t iteration = result.iterations;
       iteration < options.max_iterations; ++iteration) {
    TraceSpan iteration_span(names.iteration);
    iterations_counter.add();

    // A full forward on the first pass seeds the caches; later passes
    // re-propagate the last batch's dirty cone.
    {
      TraceSpan predict_span(names.predict);
      const EditableDesign::Prediction p = design.predict();
      dirty_nodes_counter.add(p.dirty_rows);
      fallbacks_counter.add(p.full_fallbacks);
      if (!p.refreshed) {
        predict_span.arg("dirty", static_cast<double>(p.dirty_rows));
      }
    }
    const std::vector<std::int32_t> predictions = design.predictions();

    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < predictions.size(); ++v) {
      if (predictions[v] == 1 && flow.candidate(v)) candidates.push_back(v);
    }
    result.final_positive_predictions = candidates.size();
    if (candidates.empty()) break;
    result.iterations = iteration + 1;

    // std::sort is not stable: equal scores land in the order this sort
    // gives over this candidate order, and that decides which of them
    // fit in the budget.
    const std::vector<int> scores =
        flow.scores(design, candidates, predictions);
    std::vector<std::pair<int, NodeId>> ranked;
    ranked.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      ranked.emplace_back(scores[i], candidates[i]);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first > b.first;
    });

    // The batch is fixed before the netlist mutates, so it is journaled,
    // durably, first: a crash mid-application replays all of it.
    FlowJournalRecord record;
    record.iteration = iteration;
    record.entries = flow.plan(
        ranked, insertion_budget(ranked.size(), options.insert_fraction,
                                 options.min_inserts_per_iteration));
    if (journal.is_open()) journal.append(record);
    const std::size_t inserted = record.entries.size();
    {
      TraceSpan insert_span(names.insert);
      insert_span.arg(names.insert_arg, static_cast<double>(inserted));
      apply(record);
    }
    iteration_span.arg("positives", static_cast<double>(candidates.size()));
    iteration_span.arg("inserted", static_cast<double>(inserted));
    log_info("gcn-", names.flow, " iteration ", iteration + 1, ": ",
             candidates.size(), " positives, inserted ", inserted, " ",
             names.points);
  }
  // The sweep ran to completion; a stale journal must not replay into a
  // future run over the modified netlist.
  journal.remove();
}

/// OPI's part of the insertion loop: impact-ranked observation points.
struct OpiFlow {
  static constexpr InsertionNames kNames{
      .flow = "opi", .replay = "opi.replay", .iteration = "opi.iteration",
      .predict = "opi.predict", .insert = "opi.insert", .insert_arg = "ops",
      .points = "OPs"};

  const Netlist& netlist;
  const GcnOpiOptions& options;

  bool candidate(NodeId v) const { return netlist.can_observe(v); }

  /// Impact of each positive prediction (Fig. 6), against the engines'
  /// cached rows.
  std::vector<int> scores(EditableDesign& design,
                          const std::vector<NodeId>& candidates,
                          const std::vector<std::int32_t>& predictions) const {
    const ImpactEvaluator evaluator(design);
    return evaluator.impacts(candidates, predictions,
                             options.impact_cone_limit);
  }

  std::vector<std::pair<NodeId, int>> plan(
      const std::vector<std::pair<int, NodeId>>& ranked,
      std::size_t budget) const {
    std::vector<std::pair<NodeId, int>> planned;
    for (const auto& [impact, target] : ranked) {
      if (planned.size() >= budget) break;
      // Low-impact candidates are deferred, but always make progress: a
      // positive with no upstream coverage still needs its own OP.
      if (impact < options.min_impact && !planned.empty()) break;
      planned.emplace_back(target, 0);
    }
    return planned;
  }

  NodeId apply(EditableDesign& design, NodeId target, int /*flag*/) {
    design.observe(target);
    return target;
  }
};

/// CPI's part of the insertion loop: coverage-ranked control points.
struct CpiFlow {
  static constexpr InsertionNames kNames{
      .flow = "cpi", .replay = "cpi.replay", .iteration = "cpi.iteration",
      .predict = "cpi.predict", .insert = "cpi.insert", .insert_arg = "cps",
      .points = "CPs"};

  const Netlist& netlist;
  const GcnCpiOptions& options;
  std::unordered_set<NodeId> controlled;

  bool candidate(NodeId v) const {
    return netlist.can_control(v) && !controlled.count(v);
  }

  /// Downstream coverage: positives in the fan-out cone benefit from this
  /// node becoming controllable.
  std::vector<int> scores(EditableDesign& /*design*/,
                          const std::vector<NodeId>& candidates,
                          const std::vector<std::int32_t>& predictions) const {
    std::vector<int> coverage(candidates.size(), 1);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      for (NodeId w :
           netlist.fanout_cone(candidates[i], options.rank_cone_limit)) {
        coverage[i] += predictions[w] == 1 ? 1 : 0;
      }
    }
    return coverage;
  }

  /// The top `budget`, each driven toward its rare value (from COP
  /// probabilities); the flag is 1 for drive-toward-one.
  std::vector<std::pair<NodeId, int>> plan(
      const std::vector<std::pair<int, NodeId>>& ranked,
      std::size_t budget) const {
    const CopMeasures cop = compute_cop(netlist);
    std::vector<std::pair<NodeId, int>> planned;
    planned.reserve(budget);
    for (std::size_t k = 0; k < budget; ++k) {
      const NodeId target = ranked[k].second;
      planned.emplace_back(target, cop.prob_one[target] < 0.5 ? 1 : 0);
    }
    return planned;
  }

  Netlist::ControlPoint apply(EditableDesign& design, NodeId target,
                              int flag) {
    controlled.insert(target);
    return design.control(target, flag != 0);
  }
};

}  // namespace

OpiResult run_gcn_opi(Netlist& netlist,
                      const std::vector<const GcnModel*>& stages,
                      const GcnOpiOptions& options) {
  GCNT_KERNEL_SCOPE("opi.run");
  // The cascade's engines (monolithic incremental or sharded,
  // bit-identical either way) and all derived state live in the design.
  EditableDesign design(netlist, options.standardize_features);
  design.set_models(stages, options.shards, options.shard_halo);
  OpiFlow flow{netlist, options};
  OpiResult result;
  run_insertion_loop(design, netlist, options, flow, result);
  return result;
}

GcnCpiResult run_gcn_cpi(Netlist& netlist,
                         const std::vector<const GcnModel*>& stages,
                         const GcnCpiOptions& options) {
  GCNT_KERNEL_SCOPE("cpi.run");
  EditableDesign design(netlist, options.standardize_features);
  design.set_models(stages);
  CpiFlow flow{netlist, options, {}};
  GcnCpiResult result;
  run_insertion_loop(design, netlist, options, flow, result);
  return result;
}

}  // namespace gcnt
