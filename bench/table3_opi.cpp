// Table 3 reproduction: testability results of the GCN-guided iterative
// OPI flow vs the analytic "industrial tool" baseline, both evaluated by
// the same ATPG engine (#OPs inserted, #patterns, fault coverage).
//
// Paper: GCN flow reaches equal coverage with 0.89x the OPs and 0.94x the
// patterns of the commercial tool.
//
// With GCNT_BENCH_JSON=<path> the averages and ratios are also written as
// flat bench JSON ("table3.ops_ratio", "table3.pas_ratio",
// "table3.coverage_ratio", ...), which the nightly quality floor reads.

#include <cstdlib>
#include <iostream>

#include "atpg/atpg.h"
#include "bench_common.h"
#include "common/table.h"
#include "dft/baseline_opi.h"
#include "dft/gcn_opi.h"

int main() {
  using namespace gcnt;
  const auto suite = bench::load_suite();

  Table table("Table 3: testability results comparison",
              {"Design", "Tool #OPs", "Tool #PAs", "Tool Cov", "GCN #OPs",
               "GCN #PAs", "GCN Cov"});

  double tool_ops = 0, tool_pas = 0, tool_cov = 0;
  double gcn_ops = 0, gcn_pas = 0, gcn_cov = 0;

  for (std::size_t held_out = 0; held_out < suite.size(); ++held_out) {
    const Dataset& design = suite[held_out];

    // Train the classifier on the other three designs (inductive use), with
    // a class weight so positives survive on imbalanced data.
    GcnModel model(bench::paper_model_config());
    TrainerOptions options;
    options.epochs = bench::bench_epochs() / 2;
    options.learning_rate = 1e-2f;
    options.positive_class_weight = 4.0f;
    options.eval_interval = options.epochs;
    Trainer trainer(model, options);
    std::vector<TrainGraph> training;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (i != held_out) training.push_back(TrainGraph{&suite[i].tensors, {}});
    }
    trainer.train(training, nullptr);

    AtpgOptions atpg;
    atpg.seed = 17;

    Netlist tool_netlist = design.netlist;
    const auto tool = run_baseline_opi(tool_netlist, BaselineOpiOptions{});
    const auto tool_result = run_atpg(tool_netlist, atpg);

    Netlist gcn_netlist = design.netlist;
    GcnOpiOptions gcn_options;
    gcn_options.standardize_features = true;  // model trained on std features
    const auto gcn = run_gcn_opi(gcn_netlist, {&model}, gcn_options);
    const auto gcn_result = run_atpg(gcn_netlist, atpg);

    table.add_row({design.name(), std::to_string(tool.inserted.size()),
                   std::to_string(tool_result.pattern_count),
                   Table::percent(tool_result.test_coverage()),
                   std::to_string(gcn.inserted.size()),
                   std::to_string(gcn_result.pattern_count),
                   Table::percent(gcn_result.test_coverage())});

    tool_ops += static_cast<double>(tool.inserted.size());
    tool_pas += static_cast<double>(tool_result.pattern_count);
    tool_cov += tool_result.test_coverage();
    gcn_ops += static_cast<double>(gcn.inserted.size());
    gcn_pas += static_cast<double>(gcn_result.pattern_count);
    gcn_cov += gcn_result.test_coverage();
  }

  const double designs = static_cast<double>(suite.size());
  table.add_row({"Average", Table::num(tool_ops / designs, 0),
                 Table::num(tool_pas / designs, 0),
                 Table::percent(tool_cov / designs),
                 Table::num(gcn_ops / designs, 0),
                 Table::num(gcn_pas / designs, 0),
                 Table::percent(gcn_cov / designs)});
  table.add_row({"Ratio", "1.00", "1.00", "1.00",
                 Table::num(gcn_ops / tool_ops, 2),
                 Table::num(gcn_pas / tool_pas, 2),
                 Table::num(gcn_cov / tool_cov, 2)});
  table.print(std::cout);
  std::cout << "\nPaper reference ratios (GCN flow / industrial tool): "
               "#OPs 0.89, #PAs 0.94, coverage 1.00\n";

  if (const char* path = std::getenv("GCNT_BENCH_JSON")) {
    const std::vector<std::pair<std::string, double>> entries = {
        {"table3.tool_ops", tool_ops / designs},
        {"table3.tool_pas", tool_pas / designs},
        {"table3.tool_coverage", tool_cov / designs},
        {"table3.gcn_ops", gcn_ops / designs},
        {"table3.gcn_pas", gcn_pas / designs},
        {"table3.gcn_coverage", gcn_cov / designs},
        {"table3.ops_ratio", gcn_ops / tool_ops},
        {"table3.pas_ratio", gcn_pas / tool_pas},
        {"table3.coverage_ratio", gcn_cov / tool_cov},
    };
    if (!bench::write_bench_json(path, entries)) {
      std::cerr << "table3_opi: failed to write GCNT_BENCH_JSON to " << path
                << "\n";
      return 1;
    }
  }
  return 0;
}
