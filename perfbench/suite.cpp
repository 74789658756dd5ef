#include "suite.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/json.h"
#include "common/parallel.h"
#include "data/labeler.h"
#include "dft/impact.h"
#include "gcn/incremental.h"
#include "gcn/quant.h"
#include "gcn/shard.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "tensor/simd/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace gcnt::perfbench {

namespace {

/// Bench-side timings of single library calls, keyed by the per-layer
/// metric they feed. Filled on every run (the calls are timed whether or
/// not tracing is on) and reported by traced runs only.
std::map<std::string, Samples>& layer_samples() {
  static std::map<std::string, Samples> samples;
  return samples;
}

/// Times one library call under a bench-side trace span and adds its
/// wall time, in `unit_scale` units (1e3 = ms, 1e6 = us), to `samples`.
/// Returns what the call returns.
template <class F>
auto timed(const char* span, Samples& samples, double unit_scale, F&& f) {
  TraceSpan trace_span(span);
  Timer timer;
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    samples.add(timer.seconds() * unit_scale);
  } else {
    auto result = f();
    samples.add(timer.seconds() * unit_scale);
    return result;
  }
}

/// Per-layer metrics that only some workloads exercise. Their units are
/// counts, ratios or rates, so a workload that bypasses the layer
/// reports an honest 0 instead of a made-up time.
const std::pair<const char*, const char*> kBypassableLayerMetrics[] = {
    {"opi.ops_inserted", "count"},
    {"opi.iterations", "count"},
    {"opi.sharded_over_mono", "ratio"},
    {"atpg.test_coverage", "ratio"},
    {"atpg.patterns", "count"},
    {"atpg.faults_per_s", "1/s"},
    {"serve.read_p99_over_p50", "ratio"},
    {"serve.edit_p90_over_read_p50", "ratio"},
    {"serve.capacity_rps", "1/s"},
    {"serve.queue_wait_p99_share", "ratio"},
    {"serve.request_p50_share", "ratio"},
    {"serve.batch_size_mean", "count"},
    {"serve.dirty_rows_per_edit", "count"},
    {"serve.overload_rejected", "count"},
    {"serve.generator_late_frac", "ratio"},
};

/// Process CPU time (all threads), seconds.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall and process CPU time of one call, for the *_cpu_util metrics.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
class CostTimer {
 public:
  CostTimer() : cpu0_(cpu_seconds()) {}
  Cost stop() const { return Cost{wall_.seconds(), cpu_seconds() - cpu0_}; }

 private:
  Timer wall_;
  double cpu0_;
};

/// Host peaks from host_probes(), the denominators of the forward probe's
/// fraction-of-peak metrics (0 until measured).
struct HostPeaks {
  double triad_gbs = 0.0;
  double gemm_gflops = 0.0;
};
HostPeaks host_peaks;

}  // namespace

Sizes Sizes::smoke() {
  Sizes sizes;
  sizes.model_gates = 1500;
  sizes.model_batches = 1;
  sizes.model_epochs = 10;
  sizes.build_gates = 1000;
  sizes.build_batches = 1;
  sizes.build_epochs = 3;
  sizes.large_gates = 8000;
  sizes.opi_gates = 3000;
  sizes.opi_designs = 1;
  sizes.opi_min_ops = 10;
  sizes.atpg_faults = 256;
  sizes.serve_gates = 2000;
  sizes.serve_rate = 100.0;
  sizes.replay_targets = 32;
  return sizes;
}

// ---------------------------------------------------------------------------
// Report and samples

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  // A non-finite value comes from failed operations (recorded as +inf)
  // and cannot be written as JSON; the run is reported incorrect.
  if (!std::isfinite(value)) {
    ++attempted_;
    ++failed_;
    std::cerr << "perf_suite: CHECK FAILED: " << name << " is not finite\n";
    value = std::numeric_limits<double>::max();
  }
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perf_suite: CHECK FAILED: " << what << "\n";
  }
  return ok;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Failed requests are recorded as +inf (beyond every percentile); keep
  // the interpolation from turning inf * 0 into NaN.
  if (frac == 0.0 || std::isinf(sorted[hi])) return frac == 0.0 ? sorted[lo] : sorted[hi];
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

// ---------------------------------------------------------------------------
// Inputs and the shared model recipe

GcnConfig model_config() {
  GcnConfig config;
  config.depth = 3;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  config.num_classes = 2;
  config.seed = 2019;
  return config;
}

Netlist make_design(std::uint64_t seed, std::size_t gates) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = gates;
  config.flip_flops = std::max<std::size_t>(8, gates / 24);
  return timed("gen.generate", layer_samples()["gen.generate_ms"], 1e3,
               [&] { return generate_circuit(config); });
}

Netlist parse_design(const std::string& text) {
  return timed("netlist.parse", layer_samples()["netlist.parse_ms"], 1e3,
               [&] { return read_bench_string(text, "design"); });
}

GraphTensors inference_tensors(const Netlist& netlist) {
  const ScoapMeasures scoap =
      timed("scoap.compute", layer_samples()["scoap.compute_ms"], 1e3,
            [&] { return compute_scoap(netlist); });
  const std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors =
      timed("gcn.build_tensors", layer_samples()["gcn.build_tensors_ms"], 1e3,
            [&] { return build_graph_tensors(netlist, scoap, levels); });
  tensors.standardize_features();
  return tensors;
}

/// Labels, tensors and training of one design, each call timed for the
/// per-layer metrics (data.*, gcn.train_*).
GcnModel train_on(const Netlist& netlist, std::size_t batches,
                  std::size_t epochs, float positive_weight) {
  GraphTensors tensors = inference_tensors(netlist);
  LabelerOptions labeler;
  labeler.batches = batches;
  {
    TraceSpan span("data.label");
    CostTimer cost;
    tensors.labels = label_difficult_to_observe(netlist, labeler);
    const Cost spent = cost.stop();
    layer_samples()["data.label_s"].add(spent.wall_s);
    layer_samples()["data.label_cpu_util"].add(spent.cpu_s / spent.wall_s);
  }
  GcnModel model(model_config());
  TrainerOptions options;
  options.epochs = epochs;
  options.learning_rate = 1e-2f;
  options.positive_class_weight = positive_weight;
  options.eval_interval = epochs;
  {
    TraceSpan span("nn.train");
    CostTimer cost;
    Trainer trainer(model, options);
    trainer.train({TrainGraph{&tensors, {}}}, nullptr);
    const Cost spent = cost.stop();
    layer_samples()["gcn.train_epoch_ms"].add(
        spent.wall_s * 1e3 / static_cast<double>(epochs));
    layer_samples()["gcn.train_cpu_util"].add(spent.cpu_s / spent.wall_s);
  }
  return model;
}

GcnModel train_shared_model(const Sizes& sizes) {
  // The recipe trains on one fixed design instead of a run-seeded one:
  // how many nodes a model predicts positive swings by orders of
  // magnitude between training designs at this budget, and the OPI
  // workload's work follows it. A fixed model keeps the seed's effect on
  // opi_sweep to the design it sweeps. Weight 16 keeps the prediction
  // count far from the all-negative collapse lower weights show.
  constexpr std::uint64_t kModelDesignSeed = 7;
  const Netlist design = make_design(kModelDesignSeed, sizes.model_gates);
  return train_on(design, sizes.model_batches, sizes.model_epochs, 16.0f);
}

bool same_params(const GcnModel& a, const GcnModel& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!bitwise_equal(pa[i]->value, pb[i]->value)) return false;
  }
  return true;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<std::int32_t> predictions_of(const Matrix& logits) {
  std::vector<std::int32_t> predictions(logits.rows(), 0);
  for (std::size_t v = 0; v < logits.rows(); ++v) {
    // softmax p(1) >= 0.5 exactly when logit 1 >= logit 0.
    predictions[v] = logits.at(v, 1) >= logits.at(v, 0) ? 1 : 0;
  }
  return predictions;
}

std::vector<NodeId> top_predicted_targets(const Netlist& netlist,
                                          const Matrix& logits,
                                          std::size_t count) {
  std::vector<std::pair<float, NodeId>> ranked;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const CellType type = netlist.type(v);
    if (is_sink(type) || type == CellType::kInput) continue;
    bool feeds_op = false;
    for (NodeId g : netlist.fanouts(v)) {
      feeds_op = feeds_op || netlist.type(g) == CellType::kObserve;
    }
    if (!feeds_op) ranked.emplace_back(logits.at(v, 1) - logits.at(v, 0), v);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<NodeId> targets;
  for (std::size_t i = 0; i < ranked.size() && i < count; ++i) {
    targets.push_back(ranked[i].second);
  }
  return targets;
}

// ---------------------------------------------------------------------------
// Forward probe

namespace {

struct LayerTimes {
  std::vector<double> aggregate_s;
  std::vector<double> encode_s;
  double fc_s = 0.0;
};

/// GcnModel::infer rebuilt from public kernel calls, one phase at a time,
/// in the same operation order, so its output must match bit for bit.
Matrix layered_forward(const GcnModel& model, const GraphTensors& graph,
                       LayerTimes& times) {
  const float wp = model.w_pr();
  const float wsu = model.w_su();
  Matrix ping, pong, pred_sum, succ_sum, aggregated, out;
  Matrix* emb = &ping;
  Matrix* alt = &pong;
  gather_compute_rows(graph, graph.features, *emb);
  const auto& encoders = model.encoders();
  times.aggregate_s.assign(encoders.size(), 0.0);
  times.encode_s.assign(encoders.size(), 0.0);
  for (std::size_t d = 0; d < encoders.size(); ++d) {
    {
      TraceSpan span("gcn.layer.aggregate");
      Timer timer;
      graph.pred.spmm(*emb, pred_sum);
      graph.succ.spmm(*emb, succ_sum);
      aggregated.copy_from(*emb);
      aggregated.axpy(wp, pred_sum);
      aggregated.axpy(wsu, succ_sum);
      times.aggregate_s[d] = timer.seconds();
    }
    {
      TraceSpan span("gcn.layer.encode");
      Timer timer;
      encoders[d].forward_relu(aggregated, *alt);
      times.encode_s[d] = timer.seconds();
    }
    std::swap(emb, alt);
  }
  TraceSpan span("gcn.layer.fc");
  Timer timer;
  const auto& fc = model.fc_layers();
  for (std::size_t i = 0; i < fc.size(); ++i) {
    if (i + 1 < fc.size()) {
      fc[i].forward_relu(*emb, *alt);
      std::swap(emb, alt);
    } else if (graph.reordered()) {
      fc[i].forward(*emb, *alt);
      scatter_compute_rows(graph, *alt, out);
    } else {
      fc[i].forward(*emb, out);
    }
  }
  times.fc_s = timer.seconds();
  return out;
}

template <class F>
double median_seconds(int repeats, F&& f) {
  Samples samples;
  for (int i = 0; i < repeats; ++i) {
    Timer timer;
    f();
    samples.add(timer.seconds());
  }
  return samples.median();
}

}  // namespace

void forward_probe(const GcnModel& model, const GraphTensors& tensors,
                   bool measure, Report& report) {
  // Cold: a fresh workspace, as a single-shot CLI inference pays it.
  ForwardWorkspace cold_ws;
  Matrix reference;
  const double cold_s = [&] {
    TraceSpan span("gcn.infer_cold");
    Timer timer;
    model.infer(tensors, cold_ws, reference);
    return timer.seconds();
  }();

  LayerTimes layer_times;
  const Matrix layered = layered_forward(model, tensors, layer_times);
  report.check(bitwise_equal(layered, reference),
               "layer-by-layer replay equals GcnModel::infer");

  ShardedGcnOptions sharded_options;
  sharded_options.shards = 4;
  sharded_options.halo = 1;
  ShardedGcnEngine sharded(model, sharded_options);
  {
    TraceSpan span("gcn.sharded_refresh");
    sharded.refresh(tensors);
  }
  report.check(bitwise_equal(sharded.logits(), reference),
               "sharded K=4 forward equals GcnModel::infer");
  if (!measure) return;

  report.metric("gcn.forward_cold_ms", cold_s * 1e3, "ms");
  const std::size_t nodes = tensors.node_count();
  const int repeats = nodes > 100000 ? 5 : 11;

  Matrix warm_out;
  const double warm_s = median_seconds(repeats, [&] {
    TraceSpan span("gcn.infer_warm");
    model.infer(tensors, cold_ws, warm_out);
  });
  report.metric("gcn.forward_warm_ms", warm_s * 1e3, "ms");

  // Per-layer medians over repeated replays.
  const std::size_t depth = model.encoders().size();
  std::vector<Samples> aggregate(depth), encode(depth);
  Samples fc;
  for (int r = 0; r < repeats; ++r) {
    LayerTimes times;
    layered_forward(model, tensors, times);
    for (std::size_t d = 0; d < depth; ++d) {
      aggregate[d].add(times.aggregate_s[d]);
      encode[d].add(times.encode_s[d]);
    }
    fc.add(times.fc_s);
  }
  report.metric("gcn.fc_ms", fc.median() * 1e3, "ms");

  // Bytes and FLOPs are computed from tensor sizes, not counted by
  // hardware: each SpMM reads its CSR arrays, gathers one dense row per
  // nonzero and writes its output; the copy reads and writes N x K; each
  // axpy reads two and writes one N x K.
  const double n = static_cast<double>(nodes);
  const double csr_bytes =
      4.0 * (2.0 * (n + 1.0) +
             2.0 * static_cast<double>(tensors.pred.nnz() + tensors.succ.nnz()));
  const double nnz =
      static_cast<double>(tensors.pred.nnz() + tensors.succ.nnz());
  std::size_t in_dim = kNodeFeatureDim;
  for (std::size_t d = 0; d < depth; ++d) {
    const double k_in = static_cast<double>(in_dim);
    const double k_out =
        static_cast<double>(model.encoders()[d].out_features());
    const double bytes =
        csr_bytes + 4.0 * k_in * (nnz + 2.0 * n + 2.0 * n + 6.0 * n);
    const double flops = 2.0 * n * k_in * k_out;
    const std::string layer = "gcn.l" + std::to_string(d + 1);
    const double agg_s = aggregate[d].median();
    const double enc_s = encode[d].median();
    const double gbs = bytes / agg_s / 1e9;
    const double gflops = flops / enc_s / 1e9;
    report.metric(layer + ".aggregate_ms", agg_s * 1e3, "ms");
    report.metric(layer + ".encode_ms", enc_s * 1e3, "ms");
    report.metric(layer + ".aggregate_gbs", gbs, "GB/s");
    report.metric(layer + ".encode_gflops", gflops, "GFLOP/s");
    report.metric(layer + ".aggregate_triad_frac",
                  host_peaks.triad_gbs > 0.0 ? gbs / host_peaks.triad_gbs : 0.0,
                  "ratio");
    report.metric(
        layer + ".encode_peak_frac",
        host_peaks.gemm_gflops > 0.0 ? gflops / host_peaks.gemm_gflops : 0.0,
        "ratio");
    in_dim = model.encoders()[d].out_features();
  }

  // Thread scaling: the same warm forward on one kernel thread.
  set_kernel_threads(1);
  const double t1_s = median_seconds(std::max(3, repeats / 2), [&] {
    TraceSpan span("gcn.infer_t1");
    model.infer(tensors, cold_ws, warm_out);
  });
  set_kernel_threads(0);
  report.metric("gcn.forward_t1_ms", t1_s * 1e3, "ms");
  report.metric("gcn.thread_speedup", t1_s / warm_s, "ratio");

  // int8 tier: speed and argmax agreement with fp32.
  GcnModel quantized = model;
  quantized.set_precision(Precision::kInt8);
  ForwardWorkspace int8_ws;
  Matrix int8_out;
  const double int8_s = median_seconds(std::max(3, repeats / 2), [&] {
    TraceSpan span("gcn.infer_int8_probe");
    quantized.infer(tensors, int8_ws, int8_out);
  });
  const auto fp32_pred = predictions_of(reference);
  const auto int8_pred = predictions_of(int8_out);
  std::size_t agree = 0;
  for (std::size_t v = 0; v < fp32_pred.size(); ++v) {
    agree += fp32_pred[v] == int8_pred[v] ? 1 : 0;
  }
  report.metric("gcn.forward_int8_ms", int8_s * 1e3, "ms");
  report.metric("gcn.int8_agreement",
                static_cast<double>(agree) / static_cast<double>(nodes),
                "ratio");

  const double sharded_s = median_seconds(3, [&] {
    TraceSpan span("gcn.sharded_refresh");
    sharded.refresh(tensors);
  });
  report.metric("gcn.sharded_forward_ms", sharded_s * 1e3, "ms");
}

// ---------------------------------------------------------------------------
// Edit replay

Matrix edit_replay(const GcnModel& model, Netlist netlist,
                   const std::vector<NodeId>& targets, std::size_t batch,
                   bool measure, Report& report) {
  TraceSpan replay_span("opi.edit_replay");
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  tensors.standardize_features();

  IncrementalGcnEngine engine(model);
  engine.refresh(tensors);
  ShardedGcnOptions sharded_options;
  sharded_options.shards = 4;
  sharded_options.halo = 1;
  ShardedGcnEngine sharded(model, sharded_options);
  sharded.refresh(tensors);
  DirtyConeTracker tracker;
  const int depth = model.config().depth;

  Samples scoap_us, append_us, rebuild_ms, cone_ms, update_ms, sharded_ms,
      impact_us, dirty_frac;
  std::size_t evaluated = 0;
  std::size_t useful = 0;
  for (std::size_t begin = 0; begin < targets.size(); begin += batch) {
    const std::size_t end = std::min(targets.size(), begin + batch);
    if (measure) {
      // Impact of each batch target against the current predictions, as
      // the OPI loop ranks its candidates (same cone limit).
      const auto predictions = predictions_of(engine.logits());
      ImpactEvaluator evaluator({&model}, netlist, tensors, scoap, levels);
      for (std::size_t i = begin; i < end; ++i) {
        const int impact = timed("dft.impact_of", impact_us, 1e6, [&] {
          return evaluator.impact_of(targets[i], predictions, 96);
        });
        ++evaluated;
        useful += impact >= 1 ? 1 : 0;
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId target = targets[i];
      const NodeId op = netlist.insert_observe_point(target);
      timed("scoap.update_observe", scoap_us, 1e6, [&] {
        update_observability_after_observe(netlist, target, scoap);
      });
      levels.resize(netlist.size(), 0);
      levels[op] = levels[target] + 1;
      const std::vector<NodeId> cone = netlist.fanin_cone(target);
      std::vector<NodeId> changed_rows;
      timed("gcn.append_observe_point", append_us, 1e6, [&] {
        append_observe_point(tensors, netlist, target, op, scoap, cone,
                             &changed_rows);
      });
      tracker.record_new_node(op);
      tracker.record_edge(target, op);
      for (NodeId v : changed_rows) tracker.record_feature(v);
    }
    timed("gcn.rebuild_csr", rebuild_ms, 1e3, [&] { tensors.rebuild_csr(); });
    const std::vector<NodeId> dirty = timed(
        "gcn.dirty_cone", cone_ms, 1e3,
        [&] { return tracker.affected(tensors, depth); });
    dirty_frac.add(static_cast<double>(dirty.size()) /
                   static_cast<double>(tensors.node_count()));
    timed("gcn.incremental_update", update_ms, 1e3,
          [&] { engine.update(tensors, dirty); });
    timed("gcn.sharded_update", sharded_ms, 1e3,
          [&] { sharded.update(tensors, dirty); });
    tracker.clear();
  }

  Matrix reference = model.infer(tensors);
  report.check(bitwise_equal(engine.logits(), reference),
               "incremental logits after the edit replay equal GcnModel::infer");
  report.check(bitwise_equal(sharded.logits(), reference),
               "sharded logits after the edit replay equal GcnModel::infer");
  if (measure) {
    report.metric("scoap.update_us", scoap_us.median(), "us");
    report.metric("gcn.append_op_us", append_us.median(), "us");
    report.metric("gcn.rebuild_csr_ms", rebuild_ms.median(), "ms");
    report.metric("gcn.dirty_cone_ms", cone_ms.median(), "ms");
    report.metric("gcn.incremental_update_ms", update_ms.median(), "ms");
    report.metric("gcn.sharded_update_ms", sharded_ms.median(), "ms");
    report.metric("opi.dirty_frac", dirty_frac.median(), "ratio");
    report.metric("dft.impact_us", impact_us.median(), "us");
    report.metric("dft.impact_useful_frac",
                  evaluated == 0 ? 0.0
                                 : static_cast<double>(useful) /
                                       static_cast<double>(evaluated),
                  "ratio");
  }
  return reference;
}

// ---------------------------------------------------------------------------
// Host probes and provenance

namespace {

std::size_t llc_bytes() {
  const long size = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (size > 0) return static_cast<std::size_t>(size);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{32} << 20;
}

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string text(brand);
  const auto first = text.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : text.substr(first);
#else
  return "unknown";
#endif
}

/// Bytes of the three triad arrays together: four times the last-level
/// cache, so no pass is served from it, capped to stay a good neighbour
/// on shared hosts.
std::size_t triad_bytes() {
  constexpr std::size_t kCap = std::size_t{1536} << 20;
  return std::min(kCap, 4 * llc_bytes());
}

}  // namespace

void host_probes(Report& report) {
  {
    TraceSpan span("tensor.triad_probe");
    const std::size_t n = triad_bytes() / (3 * sizeof(float));
    std::vector<float> a(n), b(n, 1.0f), c(n, 2.0f);
    const float scalar = 3.0f;
    double best = 0.0;
    for (int pass = 0; pass < 4; ++pass) {
      Timer timer;
      parallel_blocks(n, 1 << 16, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) a[i] = b[i] + scalar * c[i];
      });
      const double seconds = timer.seconds();
      best = std::max(best, 3.0 * static_cast<double>(n) * sizeof(float) /
                                seconds / 1e9);
    }
    report.check(a[n / 2] == 7.0f, "triad probe computed a = b + 3c");
    host_peaks.triad_gbs = best;
  }
  {
    TraceSpan span("tensor.gemm_probe");
    constexpr std::size_t kDim = 512;
    Rng rng(11);
    Matrix a(kDim, kDim), b(kDim, kDim), out;
    a.xavier_init(rng);
    b.xavier_init(rng);
    double best = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
      Timer timer;
      gemm(a, b, out, false, false);
      best = std::max(best, 2.0 * kDim * kDim * kDim / timer.seconds() / 1e9);
    }
    host_peaks.gemm_gflops = best;
  }
  report.metric("tensor.triad_gbs", host_peaks.triad_gbs, "GB/s");
  report.metric("tensor.gemm_best_gflops", host_peaks.gemm_gflops, "GFLOP/s");
}

Provenance provenance() {
  Provenance p;
  p.nproc = std::max(1u, std::thread::hardware_concurrency());
  p.cpu_model = cpu_brand();
  p.llc_bytes = llc_bytes();
  p.triad_bytes = triad_bytes();
  p.simd = simd_target_name();
  p.precision = precision_name(resolve_precision());
  p.kernel_threads = kernel_threads();
  p.reorder = graph_reorder() == GraphReorder::kRcm ? "rcm" : "off";
  p.build_type = PERFBENCH_BUILD_TYPE;
  return p;
}

// ---------------------------------------------------------------------------
// Trace output

namespace {

struct SpanStats {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Count, total and self time per span name. Self time is a span's
/// duration minus the time its direct children on the same thread cover;
/// spans that only overlap (cross-thread hand-offs recorded explicitly)
/// are treated as siblings.
bool summarize_trace(const std::string& path,
                     std::map<std::string, SpanStats>& out,
                     std::string& error) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  json::Value root;
  if (!json::parse(buffer.str(), root, error)) return false;
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr) {
    error = "no traceEvents";
    return false;
  }
  struct Span {
    const std::string* name;
    double begin;
    double end;
  };
  std::map<double, std::vector<Span>> by_thread;
  for (const json::Value& event : events->array) {
    const json::Value* ph = event.find("ph");
    if (ph == nullptr || ph->text != "X") continue;
    const double begin = event.find("ts")->number;
    by_thread[event.find("tid")->number].push_back(
        Span{&event.find("name")->text, begin,
             begin + event.find("dur")->number});
  }
  for (auto& [tid, spans] : by_thread) {
    (void)tid;
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    std::vector<std::pair<const Span*, double>> stack;  // span, child time
    const auto close = [&] {
      const auto [span, children] = stack.back();
      stack.pop_back();
      SpanStats& stats = out[*span->name];
      stats.count += 1;
      stats.total_us += span->end - span->begin;
      stats.self_us += std::max(0.0, span->end - span->begin - children);
    };
    for (const Span& span : spans) {
      while (!stack.empty() && !(span.begin >= stack.back().first->begin &&
                                 span.end <= stack.back().first->end)) {
        close();
      }
      if (!stack.empty()) stack.back().second += span.end - span.begin;
      stack.emplace_back(&span, 0.0);
    }
    while (!stack.empty()) close();
  }
  return true;
}

}  // namespace

void finish_trace(const RunConfig& config, Report& report) {
  const std::uint64_t dropped = trace_dropped_spans();
  const bool written = trace_stop(config.trace_path);
  report.check(written, "trace written to " + config.trace_path);
  const TraceValidation validation = validate_trace_file(config.trace_path);
  report.check(validation.ok, "trace validates: " + validation.error);
  report.check(dropped == 0, "trace dropped no spans");
  report.metric("trace.dropped_spans", static_cast<double>(dropped), "count");

  std::map<std::string, SpanStats> spans;
  std::string error;
  if (!report.check(summarize_trace(config.trace_path, spans, error),
                    "trace summary parses: " + error)) {
    return;
  }
  std::ofstream out(config.trace_path + ".summary.json");
  out << "{\n  \"spans\": {";
  bool first = true;
  for (const auto& [name, stats] : spans) {
    out << (first ? "\n" : ",\n") << "    \"";
    json::write_escaped(out, name);
    out << "\": {\"count\": " << stats.count
        << ", \"total_ms\": " << stats.total_us / 1e3
        << ", \"self_ms\": " << stats.self_us / 1e3 << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  report.check(static_cast<bool>(out), "trace summary written");
}

void fill_missing_layer_metrics(Report& report) {
  // Set-up and per-call layer timings collected by timed() and the
  // recipe, as medians over every call in the run.
  for (const auto& [name, samples] : layer_samples()) {
    const bool is_ms = name.size() > 3 && name.rfind("_ms") == name.size() - 3;
    const bool is_s = name.size() > 2 && name.rfind("_s") == name.size() - 2;
    report.metric(name, samples.median(),
                  is_ms ? "ms" : (is_s ? "s" : "ratio"));
  }
  for (const auto& [name, unit] : kBypassableLayerMetrics) {
    bool present = false;
    for (const auto& entry : report.metrics()) {
      present = present || entry.first == name;
    }
    if (!present) report.metric(name, 0.0, unit);
  }
}

}  // namespace gcnt::perfbench
