#include "dft/gcn_cpi.h"

#include <algorithm>
#include <unordered_set>

#include "common/log.h"
#include "common/trace.h"
#include "cop/cop.h"
#include "dft/flow_journal.h"
#include "gcn/editable_design.h"

namespace gcnt {

GcnCpiResult run_gcn_cpi(Netlist& netlist,
                         const std::vector<const GcnModel*>& stages,
                         const GcnCpiOptions& options) {
  GCNT_KERNEL_SCOPE("cpi.run");
  static Counter& dirty_nodes_counter =
      StatsRegistry::instance().counter("cpi.dirty_nodes");
  static Counter& full_fallbacks_counter =
      StatsRegistry::instance().counter("cpi.full_fallbacks");
  static Counter& replayed_counter =
      StatsRegistry::instance().counter("cpi.replayed_records");
  GcnCpiResult result;
  std::unordered_set<NodeId> controlled;

  FlowJournal journal;
  if (!options.journal_path.empty()) {
    journal.open(options.journal_path, "cpi", options.journal_design,
                 netlist.size(), options.resume);
  }

  EditableDesign design(netlist, options.standardize_features);
  design.set_models(stages);

  // The live sweep and journal replay both apply a journal record.
  const auto apply = [&](const FlowJournalRecord& record) {
    for (const auto& [target, flag] : record.entries) {
      result.inserted.push_back(design.control(target, flag != 0));
      controlled.insert(target);
    }
  };

  // Replay journaled batches from an interrupted sweep; the drive
  // polarity is taken from the journal, not recomputed, so the resumed
  // netlist matches the interrupted one exactly. The first live predict()
  // does a full refresh.
  std::size_t start_iteration = 0;
  for (const FlowJournalRecord& record : journal.records()) {
    TraceSpan replay_span("cpi.replay");
    apply(record);
    replayed_counter.add();
    result.iterations = record.iteration + 1;
    start_iteration = record.iteration + 1;
  }
  if (start_iteration != 0) {
    log_info("gcn-cpi resume: replayed ", journal.records().size(),
             " journaled iterations (", result.inserted.size(), " CPs)");
  }

  for (std::size_t iteration = start_iteration;
       iteration < options.max_iterations; ++iteration) {
    TraceSpan iteration_span("cpi.iteration");
    // CP insertion rewires fanouts, so the design rebuilds the tensors
    // after each batch; the engines then re-propagate only the rows the
    // rebuild actually changed.
    const EditableDesign::Prediction p = design.predict(options.incremental);
    dirty_nodes_counter.add(p.dirty_rows);
    full_fallbacks_counter.add(p.full_fallbacks);
    if (!p.refreshed) {
      iteration_span.arg("dirty", static_cast<double>(p.dirty_rows));
    }
    const auto predictions = design.predictions();

    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < predictions.size(); ++v) {
      if (predictions[v] == 1 && netlist.can_control(v) &&
          !controlled.count(v)) {
        candidates.push_back(v);
      }
    }
    result.final_positive_predictions = candidates.size();
    if (candidates.empty()) break;
    result.iterations = iteration + 1;

    // Rank by downstream coverage: positives in the fan-out cone benefit
    // from this node becoming controllable.
    std::vector<std::pair<int, NodeId>> ranked;
    ranked.reserve(candidates.size());
    for (NodeId v : candidates) {
      int coverage = 1;
      for (NodeId w : netlist.fanout_cone(v, options.rank_cone_limit)) {
        coverage += predictions[w] == 1 ? 1 : 0;
      }
      ranked.emplace_back(coverage, v);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first > b.first;
    });

    std::size_t budget = std::max<std::size_t>(
        options.min_inserts_per_iteration,
        static_cast<std::size_t>(options.insert_fraction *
                                 static_cast<double>(ranked.size())));
    budget = std::min(budget, ranked.size());

    // Drive each target toward its rare value (from COP probabilities).
    // Both target and polarity are fixed before any mutation, so the whole
    // accepted batch can be journaled durably before it is applied.
    const CopMeasures cop = compute_cop(netlist);
    FlowJournalRecord record;
    record.iteration = iteration;
    record.entries.reserve(budget);
    for (std::size_t k = 0; k < budget; ++k) {
      const NodeId target = ranked[k].second;
      record.entries.emplace_back(target, cop.prob_one[target] < 0.5 ? 1 : 0);
    }
    if (journal.is_open()) journal.append(record);
    apply(record);
    log_info("gcn-cpi iteration ", iteration + 1, ": ", candidates.size(),
             " positives, inserted ", budget, " CPs");
  }
  journal.remove();
  return result;
}

}  // namespace gcnt
