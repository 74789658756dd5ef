// model_build: what `gcnt train` does, from .bench text to a trained
// model. Labeling (sim fault propagation) and training (nn/tensor forward
// and backward) do almost all the work here and almost none in the other
// workloads, so a change to either shows up here first.

#include "netlist/bench_io.h"
#include "suite.h"

namespace gcnt::perfbench {

void run_model_build(const RunConfig& config, Report& report) {
  const Sizes& sizes = config.sizes;
  const std::string text = repeated_setup(
      report, 3,
      [&] {
        return write_bench_string(
            make_design(config.design_seed(0), sizes.build_gates));
      },
      [](const std::string& a, const std::string& b) { return a == b; });

  // One operation: parse -> SCOAP -> labels -> tensors -> train.
  Netlist netlist;
  GcnModel first(model_config());
  GcnModel model(model_config());
  measure_ops(config, report, [&](std::size_t index) {
    netlist = parse_design(text);
    model = train_on(netlist, sizes.build_batches, sizes.build_epochs, 8.0f);
    if (index == 0) {
      first = model;
    } else {
      report.check(same_params(first, model),
                   "repeated model builds give bitwise-identical weights");
    }
  });

  const GraphTensors tensors = inference_tensors(netlist);
  if (config.traced()) host_probes(report);
  forward_probe(model, tensors, config.traced(), report);
  edit_replay(model, netlist,
              top_predicted_targets(netlist, model.infer(tensors),
                                    sizes.replay_targets),
              sizes.replay_batch, config.traced(), report);
}

}  // namespace gcnt::perfbench
