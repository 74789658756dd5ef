#include "dft/gcn_opi.h"

#include <algorithm>

#include "common/log.h"
#include "common/trace.h"
#include "dft/flow_journal.h"
#include "dft/impact.h"
#include "gcn/engine.h"
#include "gcn/graph_tensors.h"
#include "gcn/incremental.h"
#include "scoap/scoap.h"

#include <memory>
#include <string>

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

  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  if (options.standardize_features) tensors.standardize_features();

  // One prediction engine per cascade stage (monolithic incremental or
  // sharded out-of-core, bit-identical either way); the dirty cone is
  // expanded to the deepest stage so every engine's closure is covered.
  // Cascade stages must not collide on spill block keys.
  std::vector<std::unique_ptr<GcnEngine>> engines;
  int max_depth = 0;
  for (std::size_t stage = 0; stage < stages.size(); ++stage) {
    engines.push_back(make_gcn_engine(
        *stages[stage], options.shards, options.shard_halo,
        options.shard_spill_dir.empty()
            ? std::string()
            : options.shard_spill_dir + "/stage" + std::to_string(stage)));
    max_depth = std::max(max_depth, stages[stage]->config().depth);
  }
  DirtyConeTracker tracker;
  bool have_cache = false;

  OpiResult result;

  // Single mutation path, shared by the live sweep and journal replay, so
  // a resumed run reproduces the interrupted run's netlist exactly.
  const auto apply_insertion = [&](NodeId target) {
    const NodeId op = netlist.insert_observe_point(target);
    update_observability_after_observe(netlist, target, scoap);
    levels.resize(netlist.size(), 0);
    levels[op] = levels[target] + 1;
    const std::vector<NodeId> cone = netlist.fanin_cone(target);
    std::vector<NodeId> changed_rows;
    append_observe_point(tensors, netlist, target, op, scoap, cone,
                         &changed_rows);
    // Record the perturbation for the next iteration's dirty cone: the
    // appended edge, the new node, and the feature rows whose stored
    // value actually changed (a tight subset of the refreshed cone).
    tracker.record_new_node(op);
    tracker.record_edge(target, op);
    for (NodeId v : changed_rows) tracker.record_feature(v);
    result.inserted.push_back(target);
  };

  // Replay journaled batches from an interrupted sweep. Prediction and
  // ranking are skipped — the journal already holds their outcome — and
  // the first live iteration afterwards does a full refresh (have_cache
  // is still false), which is bit-identical to the incremental updates
  // the interrupted run performed.
  std::size_t start_iteration = 0;
  for (const FlowJournalRecord& record : journal.records()) {
    TraceSpan replay_span("opi.replay");
    for (const auto& [target, flag] : record.entries) {
      (void)flag;
      apply_insertion(target);
    }
    inserted_counter.add(record.entries.size());
    replayed_counter.add();
    result.iterations = record.iteration + 1;
    start_iteration = record.iteration + 1;
  }
  if (start_iteration != 0) {
    tensors.rebuild_csr();
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
      if (!have_cache || !options.incremental) {
        for (auto& engine : engines) engine->refresh(tensors);
        have_cache = true;
      } else {
        const std::vector<NodeId> dirty = tracker.affected(tensors, max_depth);
        dirty_nodes_counter.add(dirty.size());
        predict_span.arg("dirty", static_cast<double>(dirty.size()));
        for (auto& engine : engines) {
          engine->update(tensors, dirty);
          if (engine->last_was_full()) full_fallbacks_counter.add();
        }
      }
      tracker.clear();
    }
    const auto predictions = cascade_predictions(engines, tensors.node_count());

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
    ImpactEvaluator evaluator(stages, netlist, tensors, scoap, levels);
    std::vector<std::pair<int, NodeId>> ranked;
    ranked.reserve(candidates.size());
    for (NodeId v : candidates) {
      ranked.emplace_back(
          evaluator.impact_of(v, predictions, options.impact_cone_limit), v);
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
    for (NodeId target : planned) apply_insertion(target);
    const std::size_t inserted = planned.size();
    tensors.rebuild_csr();
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
