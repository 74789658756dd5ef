// Incremental OPI inference benchmark: dirty-cone re-propagation
// (gcn/incremental.h) vs a full whole-graph forward, on the workload the
// OPI loop actually runs — insert a small batch of observation points,
// then re-predict. At a dirty fraction below ~5% the incremental path
// must be several times faster than re-running GcnModel::infer while
// producing bit-identical logits (verified every round; mismatch fails
// the binary).
//
// Sizes sweep 10^4..3*10^5 gates capped by GCNT_BENCH_MAX_NODES, so the
// per-push CI smoke run (cap 10^4) and the nightly-scale run (full sweep)
// share JSON key prefixes. With GCNT_BENCH_JSON=<path> a flat record per
// size is written for tools/bench_gate:
//
//   OPI_Incremental/nodes:N.full_infer.real_time_ns   (gated, lower better)
//   OPI_Incremental/nodes:N.update.real_time_ns       (gated, lower better)
//   OPI_Incremental_speedup/nodes:N                   (context only)
//   OPI_Incremental_dirty_fraction/nodes:N            (context only)

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/trace.h"
#include "gcn/editable_design.h"
#include "gen/generator.h"
#include "netlist/netlist.h"

namespace {

using namespace gcnt;

constexpr std::size_t kRounds = 5;     ///< insertion batches per size
constexpr std::size_t kBatch = 8;      ///< OPs per batch (late-stage OPI)
constexpr std::size_t kConeCap = 256;  ///< target fan-in cone bound

/// Valid OP targets with a bounded fan-in cone, spread across the graph.
/// (The SCOAP observability refresh walks the whole cone, so an unbounded
/// cone would make the dirty set graph-sized — real OPI targets sit in
/// bounded regions too.)
std::vector<NodeId> pick_targets(const Netlist& netlist, std::size_t count) {
  std::vector<NodeId> targets;
  const std::size_t step =
      std::max<std::size_t>(1, netlist.size() / (count * 4 + 1));
  for (NodeId v = 0; v < netlist.size() && targets.size() < count;
       v += static_cast<NodeId>(step)) {
    const CellType t = netlist.type(v);
    if (is_sink(t) || t == CellType::kInput) continue;
    if (netlist.fanin_cone(v, kConeCap).size() >= kConeCap) continue;
    targets.push_back(v);
  }
  return targets;
}

struct SizeResult {
  std::size_t nodes = 0;
  double full_infer_s = 0.0;  ///< mean whole-graph forward
  double update_s = 0.0;      ///< mean dirty-cone update (affected+update)
  double dirty_fraction = 0.0;
  bool identical = true;
  bool fallback_hit = false;
};

SizeResult run_size(const GcnModel& model, std::size_t gates) {
  GeneratorConfig config;
  config.seed = 0x0919;
  config.target_gates = gates;
  config.primary_inputs = 64;
  config.primary_outputs = 32;
  config.flip_flops = gates / 24;
  config.trap_fraction = 0.0;  // timing only
  Netlist netlist = generate_circuit(config);

  EditableDesign design(netlist, false);

  SizeResult result;
  result.nodes = netlist.size();
  TraceSpan size_span("opi_bench.size");
  size_span.arg("nodes", static_cast<double>(result.nodes));

  design.set_models({&model});
  design.predict();

  const std::vector<NodeId> targets =
      pick_targets(netlist, kRounds * kBatch);
  const std::size_t rounds = targets.size() / kBatch;
  if (rounds == 0) {
    std::cerr << "opi_incremental: no valid targets at " << gates
              << " gates\n";
    return result;
  }

  double update_total = 0.0;
  double infer_total = 0.0;
  std::size_t dirty_total = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      design.observe(targets[round * kBatch + i]);
    }
    const GraphTensors& tensors = design.tensors();  // one rebuild_csr

    // Incremental re-prediction: cone expansion + dirty-row forward.
    Timer update_timer;
    design.predict();
    update_total += update_timer.seconds();
    const GcnEngine& engine = design.engine(0);
    dirty_total += engine.last_dirty_rows();
    result.fallback_hit |= engine.last_was_full();

    // The from-scratch forward the incremental path replaces — also the
    // bit-identity check for this round.
    Timer infer_timer;
    const Matrix full = model.infer(tensors);
    infer_total += infer_timer.seconds();
    result.identical &= engine.logits() == full;
  }

  const auto r = static_cast<double>(rounds);
  result.full_infer_s = infer_total / r;
  result.update_s = update_total / r;
  result.dirty_fraction = static_cast<double>(dirty_total) /
                          (r * static_cast<double>(netlist.size()));
  return result;
}

}  // namespace

int main() {
  trace_set_thread_name("main");
  const std::size_t cap = bench::bench_max_nodes();
  const GcnModel model(bench::paper_model_config());

  std::cout << "# Incremental OPI inference: dirty-cone update vs full "
               "forward (batch of "
            << kBatch << " OPs per round, " << kRounds << " rounds)\n";
  std::cout << "nodes,full_infer_s,update_s,speedup,dirty_fraction,"
               "identical\n";
  Table table("Incremental OPI inference",
              {"#Nodes", "Full infer (s)", "Update (s)", "Speedup",
               "Dirty %", "Identical"});

  std::vector<std::pair<std::string, double>> entries;
  bool all_identical = true;
  for (const std::size_t gates : {10000ul, 100000ul, 300000ul}) {
    if (gates > cap) break;
    const SizeResult r = run_size(model, gates);
    if (r.nodes == 0) continue;
    const double speedup = r.full_infer_s / std::max(r.update_s, 1e-12);
    all_identical &= r.identical;

    std::cout << r.nodes << "," << Table::num(r.full_infer_s, 4) << ","
              << Table::num(r.update_s, 4) << "," << Table::num(speedup, 2)
              << "," << Table::num(100.0 * r.dirty_fraction, 2) << ","
              << (r.identical ? "yes" : "NO")
              << (r.fallback_hit ? " (fallback hit)" : "") << "\n";
    table.add_row({std::to_string(r.nodes), Table::num(r.full_infer_s, 4),
                   Table::num(r.update_s, 4), Table::num(speedup, 2),
                   Table::num(100.0 * r.dirty_fraction, 2),
                   r.identical ? "yes" : "NO"});

    const std::string base =
        "OPI_Incremental/nodes:" + std::to_string(r.nodes);
    entries.emplace_back(base + ".full_infer.real_time_ns",
                         r.full_infer_s * 1e9);
    entries.emplace_back(base + ".update.real_time_ns", r.update_s * 1e9);
    entries.emplace_back(
        "OPI_Incremental_speedup/nodes:" + std::to_string(r.nodes), speedup);
    entries.emplace_back(
        "OPI_Incremental_dirty_fraction/nodes:" + std::to_string(r.nodes),
        r.dirty_fraction);
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nTarget: >= 3x per-iteration speedup at < 5% dirty "
               "fraction on >= 100k-gate designs.\n";

  if (const char* path = std::getenv("GCNT_BENCH_JSON")) {
    if (!bench::write_bench_json(path, entries)) {
      std::cerr << "opi_incremental: failed to write GCNT_BENCH_JSON to "
                << path << "\n";
      return 1;
    }
  }
  publish_kernel_pool_stats();
  if (stats_enabled()) StatsRegistry::instance().write_text(std::cerr);
  if (!all_identical) {
    std::cerr << "opi_incremental: incremental logits DIVERGED from full "
                 "inference\n";
    return 1;
  }
  return 0;
}
