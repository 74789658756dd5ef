#include "dft/gcn_opi.h"

#include <algorithm>

#include "common/log.h"
#include "common/trace.h"
#include "dft/flow_journal.h"
#include "dft/impact.h"
#include "gcn/editable_design.h"

namespace gcnt {

OpiResult run_gcn_opi(Netlist& netlist,
                      const std::vector<const GcnModel*>& stages,
                      const GcnOpiOptions& options) {
  GCNT_KERNEL_SCOPE("opi.run");
  static Counter& iterations_counter =
      StatsRegistry::instance().counter("opi.iterations");
  static Counter& inserted_counter =
      StatsRegistry::instance().counter("opi.inserted_points");
  static Counter& dirty_nodes_counter =
      StatsRegistry::instance().counter("opi.dirty_nodes");
  static Counter& full_fallbacks_counter =
      StatsRegistry::instance().counter("opi.full_fallbacks");
  static Counter& replayed_counter =
      StatsRegistry::instance().counter("opi.replayed_records");

  // The journal must record the pre-insertion node count: resume replays
  // onto the original netlist, so identity is checked against it.
  FlowJournal journal;
  if (!options.journal_path.empty()) {
    journal.open(options.journal_path, "opi", options.journal_design,
                 netlist.size(), options.resume);
  }

  // The cascade's engines (monolithic incremental or sharded out-of-core,
  // bit-identical either way) and all derived state live in the design.
  EditableDesign design(netlist, options.standardize_features);
  design.set_models(stages, options.shards, options.shard_halo,
                    options.shard_spill_dir);

  OpiResult result;
  // Replay journaled batches from an interrupted sweep through the same
  // observe() the live sweep uses, so a resumed run reproduces the
  // interrupted run's netlist exactly. Prediction and ranking are skipped
  // — the journal already holds their outcome — and the first live
  // predict() does a full refresh, which is bit-identical to the
  // incremental updates the interrupted run performed.
  std::size_t start_iteration = 0;
  for (const FlowJournalRecord& record : journal.records()) {
    TraceSpan replay_span("opi.replay");
    for (const auto& entry : record.entries) {
      design.observe(entry.first);
      result.inserted.push_back(entry.first);
    }
    inserted_counter.add(record.entries.size());
    replayed_counter.add();
    result.iterations = record.iteration + 1;
    start_iteration = record.iteration + 1;
  }
  if (start_iteration != 0) {
    log_info("gcn-opi resume: replayed ", journal.records().size(),
             " journaled iterations (", result.inserted.size(), " OPs)");
  }

  for (std::size_t iteration = start_iteration;
       iteration < options.max_iterations; ++iteration) {
    TraceSpan iteration_span("opi.iteration");
    iterations_counter.add();

    // Predict: full forward on the first pass (seeds the caches), then
    // dirty-cone re-propagation of the insertion batch's D-hop closure —
    // bit-identical to a full re-inference, but proportional to the cone.
    {
      TraceSpan predict_span("opi.predict");
      const EditableDesign::Prediction p = design.predict(options.incremental);
      dirty_nodes_counter.add(p.dirty_rows);
      full_fallbacks_counter.add(p.full_fallbacks);
      if (!p.refreshed) {
        predict_span.arg("dirty", static_cast<double>(p.dirty_rows));
      }
    }
    const auto predictions = design.predictions();

    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < predictions.size(); ++v) {
      if (predictions[v] == 1 && netlist.can_observe(v)) {
        candidates.push_back(v);
      }
    }
    result.final_positive_predictions = candidates.size();
    if (candidates.empty()) break;
    result.iterations = iteration + 1;

    // Rank every positive prediction by impact (Fig. 6).
    ImpactEvaluator evaluator(stages, netlist, design.tensors(),
                              design.scoap(), design.levels());
    const std::vector<int> impacts = evaluator.impacts(
        candidates, predictions, options.impact_cone_limit);
    std::vector<std::pair<int, NodeId>> ranked;
    ranked.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      ranked.emplace_back(impacts[i], candidates[i]);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first > b.first;
    });

    std::size_t budget = std::max<std::size_t>(
        options.min_inserts_per_iteration,
        static_cast<std::size_t>(options.insert_fraction *
                                 static_cast<double>(ranked.size())));
    budget = std::min(budget, ranked.size());

    // The accepted batch is a pure function of the ranked list, so it can
    // be planned — and journaled, durably — before the netlist mutates:
    // a crash mid-application replays the complete batch on resume.
    std::vector<NodeId> planned;
    for (const auto& [impact, target] : ranked) {
      if (planned.size() >= budget) break;
      // Low-impact candidates are deferred, but always make progress: a
      // positive with no upstream coverage still needs its own OP.
      if (impact < options.min_impact && !planned.empty()) break;
      planned.push_back(target);
    }
    if (journal.is_open()) {
      FlowJournalRecord record;
      record.iteration = iteration;
      record.entries.reserve(planned.size());
      for (NodeId target : planned) record.entries.emplace_back(target, 0);
      journal.append(record);
    }
    {
      TraceSpan insert_span("opi.insert");
      insert_span.arg("ops", static_cast<double>(planned.size()));
      for (NodeId target : planned) design.observe(target);
    }
    result.inserted.insert(result.inserted.end(), planned.begin(),
                           planned.end());
    const std::size_t inserted = planned.size();
    iteration_span.arg("positives", static_cast<double>(candidates.size()));
    iteration_span.arg("inserted", static_cast<double>(inserted));
    inserted_counter.add(inserted);
    log_info("gcn-opi iteration ", iteration + 1, ": ", candidates.size(),
             " positives, inserted ", inserted, " OPs");
  }
  // The sweep ran to completion; a stale journal must not replay into a
  // future run over the modified netlist.
  journal.remove();
  return result;
}

}  // namespace gcnt
