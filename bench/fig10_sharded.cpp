// Figure 10, sharded leg: whole-graph inference runtime and peak
// resident set vs graph size with the sharded engine (gcn/shard.h), which
// walks the graph one shard at a time with its off-shard blocks in
// memory. The per-push scale-smoke job runs the small sizes plus the
// bit-identity sweep.
//
// Sizes sweep 3*10^4..10^7 gates capped by GCNT_BENCH_MAX_NODES (so every
// cap shares JSON key prefixes).
//
// Knobs (environment variables):
//   GCNT_SHARDS                 shard count K              (default 8)
//   GCNT_HALO                   halo depth D               (default 2)
//   GCNT_SHARD_CHECK_MAX_NODES  run the monolithic engine and assert
//                               bitwise logit identity up to this size
//                               (default 200000; the whole point of
//                               sharding is that the monolithic engine
//                               does not fit at the top sizes)
//   GCNT_SHARD_SWEEP            comma list of shard counts — runs a
//   GCNT_HALO_SWEEP             comma list of halo depths — K x D
//                               bit-identity sweep at the smallest size
//
// Any identity violation makes the binary exit 1. With
// GCNT_BENCH_JSON=<path> a flat record is written for tools/bench_gate
// (schema v5 adds these shard.* keys):
//
//   shard.fig10/nodes:N.sharded_infer.real_time_ns  (gated, lower better)
//   shard.identical                                 (gated, 1 = all checks
//                                                    passed)
//   shard_rss/nodes:N.peak_kb                       (context only)
//   shard_blocks/nodes:N.count                      (context only)

#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/trace.h"
#include "gcn/shard.h"
#include "gen/generator.h"

namespace {

using namespace gcnt;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  return value ? static_cast<std::size_t>(std::strtoull(value, nullptr, 10))
               : fallback;
}

std::vector<std::size_t> env_list(const char* name) {
  std::vector<std::size_t> values;
  const char* value = std::getenv(name);
  if (!value) return values;
  std::stringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      values.push_back(
          static_cast<std::size_t>(std::strtoull(item.c_str(), nullptr, 10)));
    }
  }
  return values;
}

/// Process peak resident set in KB (ru_maxrss is KB on Linux). Monotone
/// across the sweep.
double peak_rss_kb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

GraphTensors make_tensors(std::size_t gates, Netlist& netlist) {
  GeneratorConfig config;
  config.seed = 0xF16;  // same designs as fig10_scalability
  config.target_gates = gates;
  config.primary_inputs = 64;
  config.primary_outputs = 32;
  config.flip_flops = gates / 24;
  config.trap_fraction = 0.0;  // timing only
  netlist = generate_circuit(config);
  return build_graph_tensors(netlist);
}

ShardedGcnOptions engine_options(std::size_t shards, int halo) {
  ShardedGcnOptions options;
  options.shards = shards;
  options.halo = halo;
  return options;
}

}  // namespace

int main() {
  trace_set_thread_name("main");
  const std::size_t cap = bench::bench_max_nodes();
  const std::size_t shards = env_size("GCNT_SHARDS", 8);
  const int halo = static_cast<int>(env_size("GCNT_HALO", 2));
  const std::size_t check_cap = env_size("GCNT_SHARD_CHECK_MAX_NODES", 200000);
  GcnModel model(bench::paper_model_config());

  std::cout << "# Figure 10 (sharded): inference, K=" << shards
            << " halo=" << halo << " (in-memory blocks)"
            << "\nnodes,edges,sharded_s,peak_rss_kb,blocks,identical\n";
  Table table("Figure 10 sharded: inference runtime / peak RSS",
              {"#Nodes", "Sharded (s)", "Peak RSS (KB)", "Blocks",
               "Identical"});

  std::vector<std::pair<std::string, double>> entries;
  bool all_identical = true;
  bool any_check = false;
  std::size_t smallest = 0;

  for (std::size_t gates :
       {30000ul, 100000ul, 300000ul, 1000000ul, 3000000ul, 10000000ul}) {
    if (gates > cap) break;
    if (smallest == 0) smallest = gates;
    Netlist netlist;
    const GraphTensors tensors = make_tensors(gates, netlist);
    const std::size_t n = tensors.node_count();
    TraceSpan size_span("fig10.shard.size");
    size_span.arg("nodes", static_cast<double>(n));
    size_span.arg("shards", static_cast<double>(shards));

    ShardedGcnEngine engine(model, engine_options(shards, halo));
    Timer timer;
    const Matrix& logits = engine.refresh(tensors);
    const double seconds = timer.seconds();
    const double rss_kb = peak_rss_kb();
    const std::size_t blocks = engine.block_count();

    // Bitwise identity vs the monolithic forward, where it still fits.
    std::string identical = "(skipped)";
    if (n <= check_cap) {
      any_check = true;
      const bool match = logits == model.infer(tensors);
      identical = match ? "yes" : "NO";
      if (!match) all_identical = false;
    }

    std::cout << n << "," << netlist.edge_count() << ","
              << Table::num(seconds, 4) << "," << rss_kb << "," << blocks
              << "," << identical << "\n";
    table.add_row({std::to_string(n), Table::num(seconds, 4),
                   Table::num(rss_kb, 0), std::to_string(blocks), identical});

    const std::string key = "shard.fig10/nodes:" + std::to_string(n);
    entries.emplace_back(key + ".sharded_infer.real_time_ns",
                         seconds * 1e9);
    entries.emplace_back("shard_rss/nodes:" + std::to_string(n) + ".peak_kb",
                         rss_kb);
    entries.emplace_back("shard_blocks/nodes:" + std::to_string(n) + ".count",
                         static_cast<double>(blocks));
  }

  // K x D bit-identity sweep at the smallest swept size: every combination
  // must reproduce the monolithic logits exactly.
  const std::vector<std::size_t> sweep_shards = env_list("GCNT_SHARD_SWEEP");
  const std::vector<std::size_t> sweep_halos = env_list("GCNT_HALO_SWEEP");
  if (!sweep_shards.empty() && smallest > 0) {
    Netlist netlist;
    const GraphTensors tensors = make_tensors(smallest, netlist);
    const Matrix reference = model.infer(tensors);
    std::cout << "\n# bit-identity sweep at " << tensors.node_count()
              << " nodes\nshards,halo,identical\n";
    for (std::size_t k : sweep_shards) {
      for (std::size_t d :
           (sweep_halos.empty() ? std::vector<std::size_t>{1} : sweep_halos)) {
        any_check = true;
        ShardedGcnEngine engine(model,
                                engine_options(k, static_cast<int>(d)));
        const bool match = engine.refresh(tensors) == reference;
        if (!match) all_identical = false;
        std::cout << k << "," << d << "," << (match ? "yes" : "NO") << "\n";
      }
    }
  }

  if (any_check) {
    entries.emplace_back("shard.identical", all_identical ? 1.0 : 0.0);
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nfinal peak RSS: " << peak_rss_kb() << " KB\n";

  if (const char* path = std::getenv("GCNT_BENCH_JSON")) {
    if (!bench::write_bench_json(path, entries)) {
      std::cerr << "fig10_sharded: failed to write GCNT_BENCH_JSON to "
                << path << "\n";
      return 1;
    }
  }
  publish_kernel_pool_stats();
  if (stats_enabled()) StatsRegistry::instance().write_text(std::cerr);

  if (!all_identical) {
    std::cerr << "fig10_sharded: sharded logits DIVERGED from the "
                 "monolithic forward\n";
    return 1;
  }
  return 0;
}
