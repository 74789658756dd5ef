// infer_large: single-shot inference of a 200k-gate design, the paper's
// Fig. 10 regime. Its working set is larger than the last-level cache, so
// tensor SpMM/GEMM memory traffic and netlist parsing dominate; dft,
// serve and the labeler do no work in the timed section.

#include "netlist/bench_io.h"
#include "suite.h"

namespace gcnt::perfbench {

namespace {

struct Inputs {
  GcnModel model;
  std::string text;
};

}  // namespace

void run_infer_large(const RunConfig& config, Report& report) {
  const Sizes& sizes = config.sizes;
  const Inputs inputs = repeated_setup(
      report, 3,
      [&] {
        return Inputs{train_shared_model(sizes),
                      write_bench_string(make_design(config.design_seed(4),
                                                     sizes.large_gates))};
      },
      [](const Inputs& a, const Inputs& b) {
        return a.text == b.text && same_params(a.model, b.model);
      });

  // One operation: .bench text -> logits in a fresh workspace, as
  // `gcnt infer` pays it on every call.
  Matrix first;
  measure_ops(config, report, [&](std::size_t index) {
    const Netlist netlist = parse_design(inputs.text);
    const GraphTensors tensors = inference_tensors(netlist);
    ForwardWorkspace ws;
    Matrix logits;
    {
      TraceSpan span("gcn.infer_cold");
      inputs.model.infer(tensors, ws, logits);
    }
    if (index == 0) {
      first = std::move(logits);
    } else {
      report.check(bitwise_equal(first, logits),
                   "repeated single-shot inferences give identical logits");
    }
  });

  const Netlist netlist = parse_design(inputs.text);
  const GraphTensors tensors = inference_tensors(netlist);
  if (config.traced()) host_probes(report);
  forward_probe(inputs.model, tensors, config.traced(), report);
  // The edit replay's engine checks run on every workload's smaller
  // graphs; at this size they would double the run, so only the traced
  // run (which reports the edit-path metrics) replays here.
  if (config.traced()) {
    edit_replay(inputs.model, netlist,
                top_predicted_targets(netlist, first, sizes.replay_targets),
                sizes.replay_batch, true, report);
  }
}

}  // namespace gcnt::perfbench
