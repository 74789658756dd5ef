#include "dft/gcn_cpi.h"

#include <algorithm>
#include <unordered_set>

#include "common/log.h"
#include "common/trace.h"
#include "cop/cop.h"
#include "dft/flow_journal.h"
#include "gcn/engine.h"
#include "gcn/graph_tensors.h"
#include "gcn/incremental.h"
#include "scoap/scoap.h"

namespace gcnt {

namespace {

bool valid_target(const Netlist& netlist, NodeId v,
                  const std::unordered_set<NodeId>& controlled) {
  const CellType t = netlist.type(v);
  return !is_sink(t) && t != CellType::kInput && !controlled.count(v);
}

}  // namespace

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

  std::vector<std::unique_ptr<GcnEngine>> engines;
  int max_depth = 0;
  for (const GcnModel* stage : stages) {
    engines.push_back(make_gcn_engine(*stage));
    max_depth = std::max(max_depth, stage->config().depth);
  }
  DirtyConeTracker tracker;
  GraphTensors tensors;
  bool have_cache = false;

  // Single mutation path shared by the live sweep and journal replay.
  const auto apply_insertion = [&](NodeId target, bool rare_is_one) {
    const Netlist::ControlPoint cp =
        netlist.insert_control_point(target, rare_is_one);
    controlled.insert(target);
    // Structural seeds for the next iteration's dirty cone: the new
    // cells, the retargeted driver, and every rewired consumer.
    tracker.record_new_node(cp.control);
    tracker.record_new_node(cp.gate);
    if (cp.inverter != kInvalidNode) tracker.record_new_node(cp.inverter);
    tracker.record_feature(target);
    for (NodeId w : netlist.fanouts(cp.gate)) tracker.record_feature(w);
    result.inserted.push_back(cp);
  };

  // Replay journaled batches from an interrupted sweep; the drive
  // polarity is taken from the journal, not recomputed, so the resumed
  // netlist matches the interrupted one exactly. Tensors are rebuilt at
  // the top of the first live iteration as usual.
  std::size_t start_iteration = 0;
  for (const FlowJournalRecord& record : journal.records()) {
    TraceSpan replay_span("cpi.replay");
    for (const auto& [target, flag] : record.entries) {
      apply_insertion(target, flag != 0);
    }
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
    // CP insertion rewires fanouts, so tensors are rebuilt per iteration
    // (the graph deltas are not append-only as in the OPI flow). The
    // engines then re-propagate only the rows the rebuild actually
    // changed: the structural seeds recorded at insertion time plus every
    // feature row that differs from the previous iteration.
    GraphTensors fresh = build_graph_tensors(netlist);
    if (options.standardize_features) fresh.standardize_features();
    if (!have_cache || !options.incremental) {
      tensors = std::move(fresh);
      for (auto& engine : engines) engine->refresh(tensors);
      have_cache = true;
      tracker.clear();
    } else {
      tracker.record_rebuild(tensors, fresh);
      tensors = std::move(fresh);
      const std::vector<NodeId> dirty = tracker.affected(tensors, max_depth);
      dirty_nodes_counter.add(dirty.size());
      iteration_span.arg("dirty", static_cast<double>(dirty.size()));
      for (auto& engine : engines) {
        engine->update(tensors, dirty);
        if (engine->last_was_full()) full_fallbacks_counter.add();
      }
      tracker.clear();
    }
    const auto predictions = cascade_predictions(engines, tensors.node_count());

    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < predictions.size(); ++v) {
      if (predictions[v] == 1 && valid_target(netlist, v, controlled)) {
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
    for (const auto& [target, flag] : record.entries) {
      apply_insertion(target, flag != 0);
    }
    log_info("gcn-cpi iteration ", iteration + 1, ": ", candidates.size(),
             " positives, inserted ", budget, " CPs");
  }
  journal.remove();
  return result;
}

}  // namespace gcnt
