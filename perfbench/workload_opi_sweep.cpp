// opi_sweep: the paper's application (Table 3). The GCN-guided OPI loop
// on fresh copies of the run's designs: many small dirty-cone updates,
// impact evaluations and SCOAP repairs, the opposite of infer_large's
// whole-graph passes. It is also the only workload where the sharded
// engine and ATPG do real work.

#include <algorithm>

#include "atpg/atpg.h"
#include "dft/gcn_opi.h"
#include "netlist/bench_io.h"
#include "suite.h"

namespace gcnt::perfbench {

namespace {

struct Inputs {
  GcnModel model;
  std::vector<std::string> texts;
};

OpiResult sweep(const GcnModel& model, Netlist& netlist, std::size_t shards,
                std::size_t iterations) {
  GcnOpiOptions options;
  options.max_iterations = iterations;
  // The shared model trains on standardized features; `gcnt opi` and
  // `gcnt flow` currently leave this off, which makes their OPI stage
  // predict no positives (see README.md).
  options.standardize_features = true;
  options.shards = shards;
  options.shard_halo = 1;
  TraceSpan span("dft.run_gcn_opi");
  return run_gcn_opi(netlist, {&model}, options);
}

}  // namespace

void run_opi_sweep(const RunConfig& config, Report& report) {
  const Sizes& sizes = config.sizes;
  const Inputs inputs = repeated_setup(
      report, 3,
      [&] {
        Inputs made{train_shared_model(sizes), {}};
        for (std::size_t k = 0; k < sizes.opi_designs; ++k) {
          made.texts.push_back(write_bench_string(
              make_design(config.design_seed(1 + k), sizes.opi_gates)));
        }
        return made;
      },
      [](const Inputs& a, const Inputs& b) {
        return a.texts == b.texts && same_params(a.model, b.model);
      });
  std::vector<Netlist> designs;
  for (const std::string& text : inputs.texts) {
    designs.push_back(parse_design(text));
  }

  // One operation: the OPI flow on a fresh copy of one design, rotating
  // over the run's designs, so the median spans several designs' differing
  // positive counts instead of repeating one.
  std::vector<std::vector<NodeId>> op_lists(designs.size());
  std::size_t first_iterations = 0;
  Netlist first_modified;
  measure_ops(config, report, [&](std::size_t index) {
    const std::size_t k = index % designs.size();
    Netlist copy = designs[k];
    const OpiResult result = sweep(inputs.model, copy, 0, 12);
    if (index >= designs.size()) {
      report.check(result.inserted == op_lists[k],
                   "repeated OPI sweeps insert the same OP list");
      return;
    }
    op_lists[k] = result.inserted;
    report.check(result.inserted.size() >= sizes.opi_min_ops,
                 "OPI inserts at least " + std::to_string(sizes.opi_min_ops) +
                     " OPs (got " + std::to_string(result.inserted.size()) +
                     ")");
    if (k == 0) {
      first_iterations = result.iterations;
      first_modified = std::move(copy);
    }
  });

  if (!config.traced()) {
    // The sharded engine (K=4, halo 1) over the first two iterations must
    // insert exactly the monolithic sweep's first OPs.
    Netlist copy = designs[0];
    const OpiResult sharded = sweep(inputs.model, copy, 4, 2);
    const auto& mono = op_lists[0];
    report.check(!sharded.inserted.empty() &&
                     sharded.inserted.size() <= mono.size() &&
                     std::equal(sharded.inserted.begin(),
                                sharded.inserted.end(), mono.begin()),
                 "sharded OPI sweep inserts the monolithic OP list");
    forward_probe(inputs.model, inference_tensors(designs[0]), false, report);
    const std::size_t prefix = std::min(mono.size(), sizes.replay_targets);
    edit_replay(inputs.model, designs[0],
                std::vector<NodeId>(mono.begin(), mono.begin() + prefix),
                sizes.replay_batch, false, report);
    return;
  }

  // Traced extras: full monolithic and sharded sweeps of the first design,
  // ATPG on its modified netlist, then the probes.
  Timer mono_timer;
  {
    Netlist copy = designs[0];
    report.check(sweep(inputs.model, copy, 0, 12).inserted == op_lists[0],
                 "repeated OPI sweeps insert the same OP list");
  }
  const double mono_s = mono_timer.seconds();
  Timer sharded_timer;
  {
    Netlist copy = designs[0];
    report.check(sweep(inputs.model, copy, 4, 12).inserted == op_lists[0],
                 "sharded OPI sweep inserts the monolithic OP list");
  }
  report.metric("opi.sharded_over_mono", sharded_timer.seconds() / mono_s,
                "ratio");
  report.metric("opi.ops_inserted", static_cast<double>(op_lists[0].size()),
                "count");
  report.metric("opi.iterations", static_cast<double>(first_iterations),
                "count");

  AtpgOptions atpg_options;
  atpg_options.seed = 17;
  atpg_options.fault_sample = sizes.atpg_faults;
  Timer atpg_timer;
  const AtpgResult atpg = [&] {
    TraceSpan span("atpg.run");
    return run_atpg(first_modified, atpg_options);
  }();
  const double atpg_s = atpg_timer.seconds();
  report.check(atpg.test_coverage() >= 0.9,
               "ATPG reaches 90% test coverage on the OPI design");
  report.metric("atpg.test_coverage", atpg.test_coverage(), "ratio");
  report.metric("atpg.patterns", static_cast<double>(atpg.pattern_count),
                "count");
  report.metric("atpg.faults_per_s",
                static_cast<double>(atpg.total_faults) / atpg_s, "1/s");

  host_probes(report);
  forward_probe(inputs.model, inference_tensors(designs[0]), true, report);
  edit_replay(inputs.model, designs[0], op_lists[0], sizes.replay_batch, true,
              report);
}

}  // namespace gcnt::perfbench
