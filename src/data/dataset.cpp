#include "data/dataset.h"

#include <algorithm>

#include "common/rng.h"
#include "common/trace.h"
#include "gen/generator.h"

namespace gcnt {

Dataset make_dataset(Netlist netlist, const LabelerOptions& options) {
  TraceSpan span("dataset.build");
  span.arg("nodes", static_cast<double>(netlist.size()));
  Dataset dataset;
  dataset.netlist = std::move(netlist);
  const std::vector<NodeId> order = dataset.netlist.topological_order();
  dataset.scoap = compute_scoap(dataset.netlist, order);
  dataset.levels = dataset.netlist.logic_levels(order);
  dataset.tensors =
      build_graph_tensors(dataset.netlist, dataset.scoap, dataset.levels);
  dataset.tensors.labels = label_difficult_to_observe(dataset.netlist, options);
  for (std::uint32_t v = 0; v < dataset.netlist.size(); ++v) {
    if (dataset.tensors.labels[v] == 1) {
      dataset.positive_rows.push_back(v);
    } else {
      dataset.negative_rows.push_back(v);
    }
  }
  return dataset;
}

std::vector<Dataset> make_benchmark_suite(std::size_t target_gates,
                                          const LabelerOptions& options) {
  std::vector<Dataset> suite;
  suite.reserve(4);
  for (int i = 0; i < 4; ++i) {
    suite.push_back(
        make_dataset(generate_benchmark_design(i, target_gates), options));
  }
  return suite;
}

std::vector<std::uint32_t> balanced_rows(const Dataset& dataset,
                                         std::uint64_t seed) {
  std::vector<std::uint32_t> rows = dataset.positive_rows;
  Rng rng(seed);
  const std::size_t take =
      std::min(dataset.negative_rows.size(), dataset.positive_rows.size());
  for (std::size_t index : rng.sample_indices(dataset.negative_rows.size(), take)) {
    rows.push_back(dataset.negative_rows[index]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace gcnt
