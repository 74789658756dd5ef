// Figure 10 reproduction: inference runtime vs graph size, comparing
//
//   * ours     — whole-graph sparse-matrix inference (Eq. 3),
//   * exact    — per-node recursion without sharing (lower bound on [12]),
//   * sampled  — GraphSAGE-style fixed-fanout sampled recursion, the cost
//                model of the released implementation of [12] the paper
//                measured (25/10/10 neighbors per hop, with replacement).
//
// Paper shape: the sparse engine handles 10^6 nodes in seconds while the
// recursion-based pipeline takes >1 hour — three orders of magnitude.
// The per-node baselines are timed on a node sample and extrapolated
// (marked with *) once a full run would exceed the time budget.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/trace.h"
#include "gcn/graphsage_inference.h"
#include "gcn/recursive_inference.h"
#include "gen/generator.h"

namespace {

using namespace gcnt;

/// Times `infer_node` on `sample` nodes and extrapolates to the full graph.
template <typename Engine>
double extrapolated_seconds(Engine&& engine, std::size_t node_count,
                            std::size_t sample) {
  Timer timer;
  const std::size_t step = std::max<std::size_t>(1, node_count / sample);
  std::size_t measured = 0;
  for (NodeId v = 0; v < node_count; v += step) {
    (void)engine.infer_node(v);
    ++measured;
  }
  return timer.seconds() * static_cast<double>(node_count) /
         static_cast<double>(measured);
}

/// Thread-count sweep over the parallel kernels at the largest swept size:
/// times SpMM aggregation and full sparse inference at 1/2/4/N kernel
/// threads and checks the outputs stay bitwise identical (the determinism
/// guarantee of common/parallel.h). Speedups are relative to 1 thread.
void thread_sweep(const GcnModel& model, const GraphTensors& tensors,
                  std::size_t node_count) {
  std::vector<std::size_t> counts{1, 2, 4, 8};
  const std::size_t hardware = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  if (hardware > counts.back()) counts.push_back(hardware);

  std::cout << "\n# SpMM/inference thread sweep at " << node_count
            << " nodes\nthreads,spmm_s,spmm_speedup,infer_s,infer_speedup,"
               "identical\n";
  Table table("Thread sweep at " + std::to_string(node_count) + " nodes",
              {"Threads", "SpMM (s)", "SpMM x", "Inference (s)",
               "Inference x", "Identical"});

  const Matrix embedding(tensors.node_count(), 64, 0.5f);
  Matrix spmm_reference;
  Matrix infer_reference;
  double spmm_base = 0.0;
  double infer_base = 0.0;
  for (const std::size_t threads : counts) {
    set_kernel_threads(threads);
    Matrix spmm_out;
    Timer spmm_timer;
    tensors.pred.spmm(embedding, spmm_out);
    const double spmm_seconds = spmm_timer.seconds();
    Timer infer_timer;
    const Matrix logits = model.infer(tensors);
    const double infer_seconds = infer_timer.seconds();

    bool identical = true;
    if (threads == counts.front()) {
      spmm_reference = std::move(spmm_out);
      infer_reference = logits;
      spmm_base = spmm_seconds;
      infer_base = infer_seconds;
    } else {
      identical = spmm_out == spmm_reference && logits == infer_reference;
    }
    const double spmm_speedup = spmm_base / std::max(spmm_seconds, 1e-12);
    const double infer_speedup = infer_base / std::max(infer_seconds, 1e-12);
    std::cout << threads << "," << Table::num(spmm_seconds, 4) << ","
              << Table::num(spmm_speedup, 2) << ","
              << Table::num(infer_seconds, 4) << ","
              << Table::num(infer_speedup, 2) << ","
              << (identical ? "yes" : "NO") << "\n";
    table.add_row({std::to_string(threads), Table::num(spmm_seconds, 4),
                   Table::num(spmm_speedup, 2), Table::num(infer_seconds, 4),
                   Table::num(infer_speedup, 2), identical ? "yes" : "NO"});
  }
  set_kernel_threads(0);
  std::cout << "\n";
  table.print(std::cout);
}

/// Precision sweep at the largest swept size: one full sparse inference
/// per tier (fp32, then int8 after calibrating the same weights), plus a
/// thread-count rerun of the int8 tier to confirm its bitwise
/// determinism contract (gcn/quant.h). Returns the flat entries for
/// GCNT_BENCH_JSON; leaves the model back on fp32.
std::vector<std::pair<std::string, double>> precision_sweep(
    GcnModel& model, const GraphTensors& tensors, std::size_t node_count) {
  std::cout << "\n# Inference precision sweep at " << node_count
            << " nodes\nprecision,infer_s,speedup,deterministic\n";
  Table table("Precision sweep at " + std::to_string(node_count) + " nodes",
              {"Precision", "Inference (s)", "Speedup", "Deterministic"});

  set_kernel_threads(8);
  Timer fp32_timer;
  (void)model.infer(tensors);
  const double fp32_seconds = fp32_timer.seconds();

  model.set_precision(Precision::kInt8);
  Timer int8_timer;
  const Matrix int8_logits = model.infer(tensors);
  const double int8_seconds = int8_timer.seconds();
  set_kernel_threads(2);
  const Matrix int8_rerun = model.infer(tensors);
  const bool deterministic = int8_rerun == int8_logits;
  set_kernel_threads(0);
  model.set_precision(Precision::kFp32);

  const double speedup = fp32_seconds / std::max(int8_seconds, 1e-12);
  std::cout << "fp32," << Table::num(fp32_seconds, 4) << ",1.00,yes\n"
            << "int8," << Table::num(int8_seconds, 4) << ","
            << Table::num(speedup, 2) << ","
            << (deterministic ? "yes" : "NO") << "\n\n";
  table.add_row({"fp32", Table::num(fp32_seconds, 4), "1.00", "yes"});
  table.add_row({"int8", Table::num(int8_seconds, 4),
                 Table::num(speedup, 2), deterministic ? "yes" : "NO"});
  table.print(std::cout);

  return {{"fig10.infer_fp32_s", fp32_seconds},
          {"fig10.infer_int8_s", int8_seconds},
          {"fig10.quant_speedup", speedup}};
}

}  // namespace

int main() {
  trace_set_thread_name("main");
  const std::size_t cap = bench::bench_max_nodes();
  GcnModel model(bench::paper_model_config());

  std::cout << "# Figure 10: inference runtime vs number of nodes\n";
  std::cout << "nodes,edges,ours_s,recursive_exact_s,graphsage_sampled_s"
               " (star = extrapolated from a node sample)\n";

  Table table("Figure 10: inference runtime (seconds)",
              {"#Nodes", "Ours (sparse)", "Recursion (exact)",
               "Recursion ([12]-style sampled)"});

  GraphTensors last_tensors;
  std::size_t last_nodes = 0;

  for (std::size_t gates :
       {1000ul, 3000ul, 10000ul, 30000ul, 100000ul, 300000ul, 1000000ul}) {
    if (gates > cap) break;
    GeneratorConfig config;
    config.seed = 0xF16;
    config.target_gates = gates;
    config.primary_inputs = 64;
    config.primary_outputs = 32;
    config.flip_flops = gates / 24;
    config.trap_fraction = 0.0;  // timing only
    const Netlist netlist = generate_circuit(config);
    GraphTensors tensors = build_graph_tensors(netlist);
    const std::size_t n = netlist.size();
    TraceSpan size_span("fig10.size");
    size_span.arg("nodes", static_cast<double>(n));
    size_span.arg("edges", static_cast<double>(netlist.edge_count()));

    Timer ours_timer;
    (void)model.infer(tensors);
    const double ours = ours_timer.seconds();

    // Exact recursion: full run while cheap, sampled extrapolation after.
    const bool exact_sampled = n > 30000;
    RecursiveInference exact(model, netlist, tensors.features);
    double exact_seconds;
    if (exact_sampled) {
      exact_seconds = extrapolated_seconds(exact, n, 1500);
    } else {
      Timer timer;
      (void)exact.infer_all();
      exact_seconds = timer.seconds();
    }

    // GraphSAGE-style sampled recursion is ~2500 matvecs per node; always
    // extrapolate from a sample.
    GraphSageInference sampled(model, netlist, tensors.features);
    const double sampled_seconds = extrapolated_seconds(sampled, n, 300);

    std::cout << n << "," << netlist.edge_count() << ","
              << Table::num(ours, 4) << ","
              << Table::num(exact_seconds, 3) << (exact_sampled ? "*" : "")
              << "," << Table::num(sampled_seconds, 2) << "*\n";
    table.add_row({std::to_string(n), Table::num(ours, 4),
                   Table::num(exact_seconds, 3) + (exact_sampled ? "*" : ""),
                   Table::num(sampled_seconds, 2) + "*"});
    last_tensors = std::move(tensors);
    last_nodes = n;
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nPaper reference: sparse engine ~1.5 s at 10^6 nodes; "
               "recursion-based [12] > 1 hour (3 orders of magnitude)\n";

  if (last_nodes > 0) {
    thread_sweep(model, last_tensors, last_nodes);
    const auto entries = precision_sweep(model, last_tensors, last_nodes);
    if (const char* path = std::getenv("GCNT_BENCH_JSON")) {
      if (!bench::write_bench_json(path, entries)) {
        std::cerr << "fig10: failed to write GCNT_BENCH_JSON to " << path
                  << "\n";
        return 1;
      }
    }
  }
  publish_kernel_pool_stats();
  if (stats_enabled()) StatsRegistry::instance().write_text(std::cerr);
  return 0;
}
