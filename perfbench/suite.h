#pragma once
// Shared infrastructure of the perf_suite benchmark: run configuration,
// the result report, timing helpers, the shared model recipe, and the
// probes every workload's traced run reports per-layer metrics from.
//
// Everything here calls the library only through its public headers; the
// benchmark adds no instrumentation inside src/.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "common/trace.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "netlist/netlist.h"
#include "scoap/scoap.h"

namespace gcnt::perfbench {

/// Input sizes of one mode. `smoke` shrinks every design so the whole
/// suite runs in well under a minute while keeping every check active.
struct Sizes {
  // Shared model recipe (infer_large, opi_sweep, serve_mixed).
  std::size_t model_gates = 4000;
  std::size_t model_batches = 2;
  std::size_t model_epochs = 20;
  // model_build.
  std::size_t build_gates = 6000;
  std::size_t build_batches = 4;
  std::size_t build_epochs = 15;
  // infer_large.
  std::size_t large_gates = 200000;
  // opi_sweep.
  std::size_t opi_gates = 20000;
  std::size_t opi_designs = 4;
  std::size_t opi_min_ops = 100;
  std::size_t atpg_faults = 2048;
  // serve_mixed.
  std::size_t serve_gates = 20000;
  double serve_rate = 200.0;
  // Edit replay batch size and, for workloads with no OP list of their
  // own, the number of predicted-positive targets replayed.
  std::size_t replay_batch = 16;
  std::size_t replay_targets = 64;

  static Sizes smoke();
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string trace_path;  ///< non-empty: traced run, per-layer metrics
  std::string json_path;   ///< non-empty: also write the result here
  Sizes sizes;

  bool traced() const noexcept { return !trace_path.empty(); }
  /// Generator seed of the run's k-th design. Distinct runs never share
  /// a design: 8 slots per run seed.
  std::uint64_t design_seed(std::uint64_t k) const noexcept {
    return seed * 8 + k;
  }
};

/// Collects named metrics and the attempted/failed operation counts.
/// Every failed check counts as one failed operation and is printed.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempted(std::size_t n = 1) noexcept { attempted_ += n; }
  void failed(std::size_t n = 1) noexcept { failed_ += n; }
  /// One correctness check: counts an attempt, and a failure when !ok.
  bool check(bool ok, const std::string& what);

  std::size_t attempted_count() const noexcept { return attempted_; }
  std::size_t failed_count() const noexcept { return failed_; }
  bool correct() const noexcept { return failed_ == 0; }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const noexcept {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// A sample of measurements with order statistics.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const noexcept { return values_.size(); }
  double median() const { return quantile(0.5); }
  /// Linear interpolation between order statistics; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Peak resident set of the process so far, MB.
double peak_rss_mb();

/// Runs `setup` `repeats` times, records each wall time, reports the
/// median as `setup_s`, and returns the last result. Repeated set-ups
/// must be deterministic; `same` compares two results for the check.
template <class Setup, class Same>
auto repeated_setup(Report& report, int repeats, Setup&& setup, Same&& same) {
  Samples times;
  Timer first;
  auto result = setup();
  times.add(first.seconds());
  for (int i = 1; i < repeats; ++i) {
    Timer timer;
    auto again = setup();
    times.add(timer.seconds());
    report.check(same(result, again), "repeated set-up gives identical inputs");
    result = std::move(again);
  }
  report.metric("setup_s", times.median(), "s");
  return result;
}

/// The timed section of a batch workload: calls op(i) back to back while
/// the next call is expected to end within config.seconds (at least three
/// calls) and reports the median as latency_ms and the peak RSS so far as
/// peak_rss_mb. A traced run first times untraced calls for a third of
/// the window as its reference, then starts tracing (which stays on for
/// the probes that follow) and reports trace.overhead_frac = traced
/// median / untraced median - 1.
template <class Op>
void measure_ops(const RunConfig& config, Report& report, Op&& op) {
  std::size_t index = 0;
  const auto loop = [&](double seconds, std::size_t min_ops, Samples& wall) {
    Timer window;
    while (wall.size() < min_ops ||
           window.seconds() + wall.median() / 1e3 <= seconds) {
      Timer timer;
      op(index++);
      wall.add(timer.milliseconds());
      std::fprintf(stderr, "perf_suite: op %zu: %.1f ms\n", index - 1,
                   timer.milliseconds());
      report.attempted();
    }
  };
  Samples wall;
  if (config.traced()) {
    Samples reference;
    loop(config.seconds / 3.0, 1, reference);
    trace_start();
    loop(config.seconds, 1, wall);
    report.metric("trace.overhead_frac", wall.median() / reference.median() - 1.0,
                  "ratio");
  } else {
    loop(config.seconds, 3, wall);
  }
  report.metric("latency_ms", wall.median(), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The benchmark's GCN: the paper's D=3, K=(32,64,128), FC=(64,64,128,2).
GcnConfig model_config();

/// The shared model recipe: a fixed design (not the run seed; see
/// README.md), empirical labels, standardized features, positive-class
/// weight 16. Deterministic, so every set-up yields identical weights.
GcnModel train_shared_model(const Sizes& sizes);

/// True when both models hold bitwise-identical parameters.
bool same_params(const GcnModel& a, const GcnModel& b);

/// Seeded design with the CLI flow's scan-cell ratio.
Netlist make_design(std::uint64_t seed, std::size_t gates);

/// Parses .bench text, as every CLI command that takes a design file does.
Netlist parse_design(const std::string& text);

/// Labels `netlist` empirically, standardizes its features and trains a
/// fresh model_config() GCN on it: the steps of `gcnt train`.
GcnModel train_on(const Netlist& netlist, std::size_t batches,
                  std::size_t epochs, float positive_weight);

/// Tensors as the CLI builds them for inference: SCOAP, levels, standardized.
GraphTensors inference_tensors(const Netlist& netlist);

/// Bitwise matrix equality (shape and every float's bits).
bool bitwise_equal(const Matrix& a, const Matrix& b);

/// Per-node argmax predictions (1 = difficult to observe).
std::vector<std::int32_t> predictions_of(const Matrix& logits);

/// Valid observation-point targets (the rule run_gcn_opi applies) with
/// the highest positive logit margin first; at most `count`.
std::vector<NodeId> top_predicted_targets(const Netlist& netlist,
                                          const Matrix& logits,
                                          std::size_t count);

/// Forward-pass probe on one graph: checks that a layer-by-layer replay
/// from public kernel calls and the K=4 sharded engine both equal
/// GcnModel::infer bit for bit. With `measure`, it also times the
/// phases and reports the gcn.* / tensor.* forward metrics.
void forward_probe(const GcnModel& model, const GraphTensors& tensors,
                   bool measure, Report& report);

/// Replays observation-point insertions through the public OPI steps in
/// batches, keeping an incremental and a K=4 sharded engine up to date.
/// Returns the final logits after checking both engines equal
/// GcnModel::infer on the edited tensors. With `measure`, it reports the
/// scoap/gcn/dft edit-path metrics.
Matrix edit_replay(const GcnModel& model, Netlist netlist,
                   const std::vector<NodeId>& targets, std::size_t batch,
                   bool measure, Report& report);

/// Host probes for the traced run: STREAM-triad bandwidth over arrays
/// larger than the last-level cache, and the best GFLOP/s of the repo's
/// own gemm on a square shape. Reports tensor.triad_gbs and
/// tensor.gemm_best_gflops; a later forward_probe() divides by them.
void host_probes(Report& report);

/// Host and build provenance recorded with every result.
struct Provenance {
  std::size_t nproc = 0;
  std::string cpu_model;
  std::size_t llc_bytes = 0;
  std::size_t triad_bytes = 0;
  std::string simd;
  std::string precision;
  std::size_t kernel_threads = 0;
  std::string reorder;
  std::string build_type;
};
Provenance provenance();

/// Writes the trace, validates it, writes <trace>.summary.json (count,
/// total and self time per span name) and reports trace.dropped_spans.
void finish_trace(const RunConfig& config, Report& report);

/// Reports the per-call timings of the set-up and operation layers (gen,
/// netlist, scoap, tensors, labels, training) as medians, and 0 for the
/// bypassable per-layer metrics (counts, ratios, rates) of layers the
/// workload does not exercise, so every traced result has the same list.
void fill_missing_layer_metrics(Report& report);

// Workloads.
void run_model_build(const RunConfig& config, Report& report);
void run_infer_large(const RunConfig& config, Report& report);
void run_opi_sweep(const RunConfig& config, Report& report);
void run_serve_mixed(const RunConfig& config, Report& report);

}  // namespace gcnt::perfbench
