// Kernel microbenchmarks (google-benchmark): the primitives whose speed
// the paper's "high performance" claim rests on — SpMM aggregation, dense
// encoding GEMM, whole-graph GCN inference, bit-parallel logic/fault
// simulation, empirical labeling, SCOAP/COP analysis passes, OPI impact
// ranking and .bench ingest.
//
// The parallel kernels (SpMM, GEMM, full inference, fault sim, COO->CSR)
// sweep the kernel-pool thread count (the trailing `threads` argument) so
// scaling is measured alongside absolute throughput. With GCNT_BENCH_JSON
// set, every result is also written as a flat JSON object (via
// bench_common) for the CI bench-regression gate (tools/bench_gate).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "cop/cop.h"
#include "data/labeler.h"
#include "dft/impact.h"
#include "gcn/editable_design.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gcn/quant.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "scoap/scoap.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "tensor/simd/simd.h"
#include "tensor/sparse.h"

namespace {

using namespace gcnt;

const std::vector<std::int64_t> kThreadSweep{1, 2, 4, 8};

Netlist bench_design(std::size_t gates) {
  GeneratorConfig config;
  config.seed = 0xBE;
  config.target_gates = gates;
  config.primary_inputs = 64;
  config.primary_outputs = 32;
  config.flip_flops = gates / 24;
  return generate_circuit(config);
}

const Netlist& shared_netlist(std::size_t gates) {
  static std::map<std::size_t, Netlist> cache;
  auto it = cache.find(gates);
  if (it == cache.end()) {
    it = cache.emplace(gates, bench_design(gates)).first;
  }
  return it->second;
}

void BM_SpmmAggregation(benchmark::State& state) {
  const auto gates = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Netlist& netlist = shared_netlist(gates);
  const GraphTensors tensors = build_graph_tensors(netlist);
  Matrix embedding(tensors.node_count(), 64, 0.5f);
  Matrix out;
  for (auto _ : state) {
    tensors.pred.spmm(embedding, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tensors.pred.nnz()));
}
BENCHMARK(BM_SpmmAggregation)
    ->ArgsProduct({{10000, 100000}, kThreadSweep})
    ->ArgNames({"gates", "threads"});

void BM_EncoderGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  Rng rng(3);
  Matrix x(n, 64);
  Matrix w(64, 128);
  w.xavier_init(rng);
  Matrix out;
  for (auto _ : state) {
    gemm(x, w, out, false, false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EncoderGemm)
    ->ArgsProduct({{10000, 50000}, kThreadSweep})
    ->ArgNames({"rows", "threads"});

/// Weight-gradient GEMM (dW += x^T * dy, the transpose-a variant
/// Linear::backward runs) at the largest dW shape of a 6k-gate training
/// pass: 6500 rows, 128 -> 64 features. x is ReLU-like (about half
/// zeros), so the kernel's exact zero-skip runs at its usual density.
void BM_GemmWeightGrad(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  Matrix x(6500, 128);
  x.xavier_init(rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = x.data()[i] > 0.0f ? x.data()[i] : 0.0f;
  }
  Matrix dy(6500, 64);
  dy.xavier_init(rng);
  Matrix dw(128, 64);
  for (auto _ : state) {
    gemm(x, dy, dw, true, false, 1.0f, 1.0f);
    benchmark::DoNotOptimize(dw.data());
  }
}
BENCHMARK(BM_GemmWeightGrad)->ArgsProduct({{1, 4}})->ArgNames({"threads"});

/// Input-gradient GEMM (dx = dy * W^T, the transpose-b variant) for the
/// same 128 -> 64 layer. Not gated.
void BM_GemmInputGrad(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  Matrix dy(6500, 64);
  dy.xavier_init(rng);
  Matrix w(128, 64);
  w.xavier_init(rng);
  Matrix dx;
  for (auto _ : state) {
    gemm(dy, w, dx, false, true);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_GemmInputGrad)->ArgsProduct({{1, 4}})->ArgNames({"threads"});

/// The same input gradient as the training backward runs it
/// (Linear::input_grad: gemm_nt into a reused buffer). Not gated.
void BM_LinearInputGrad(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  Matrix dy(6500, 64);
  dy.xavier_init(rng);
  const Linear layer(128, 64, rng);
  Matrix dx;
  for (auto _ : state) {
    layer.input_grad(dy, dx);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_LinearInputGrad)->ArgsProduct({{1, 4}})->ArgNames({"threads"});

/// Single-thread GEMM per SIMD dispatch target (simd 0 = scalar,
/// 1 = avx2). The scalar/avx2 pair feeds the "SimdSpeedup.gemm" ratio
/// entry written by main(); the AVX2 leg skips on hosts without AVX2+FMA.
void BM_GemmSimd(benchmark::State& state) {
  const auto target = static_cast<SimdTarget>(state.range(0));
  if (!set_simd_target(target)) {
    state.SkipWithError("SIMD target unavailable on this host");
    return;
  }
  set_kernel_threads(1);
  Rng rng(3);
  Matrix x(20000, 64);
  x.xavier_init(rng);
  Matrix w(64, 128);
  w.xavier_init(rng);
  Matrix out;
  for (auto _ : state) {
    gemm(x, w, out, false, false);
    benchmark::DoNotOptimize(out.data());
  }
  reset_simd_target();
}
BENCHMARK(BM_GemmSimd)->ArgsProduct({{0, 1}})->ArgNames({"simd"});

/// Single-thread SpMM aggregation per SIMD dispatch target; pairs into
/// the "SimdSpeedup.spmm" ratio entry.
void BM_SpmmSimd(benchmark::State& state) {
  const auto target = static_cast<SimdTarget>(state.range(0));
  if (!set_simd_target(target)) {
    state.SkipWithError("SIMD target unavailable on this host");
    return;
  }
  set_kernel_threads(1);
  const Netlist& netlist = shared_netlist(100000);
  const GraphTensors tensors = build_graph_tensors(netlist);
  Matrix embedding(tensors.node_count(), 64, 0.5f);
  Matrix out;
  for (auto _ : state) {
    tensors.pred.spmm(embedding, out);
    benchmark::DoNotOptimize(out.data());
  }
  reset_simd_target();
  // No SetItemsProcessed: both legs must record real_time_ns so the
  // scalar/avx2 ratio in main() is a plain time quotient.
}
BENCHMARK(BM_SpmmSimd)->ArgsProduct({{0, 1}})->ArgNames({"simd"});

/// Dense layer per precision tier (precision 0 = fp32 fused GEMM,
/// 1 = int8 dot_u8s8 with the dequant+bias+ReLU epilogue). The int8 leg
/// pays the per-iteration activation quantization the real forward pays
/// per layer. Feeds the "QuantSpeedup.gemm" ratio entry in main().
void BM_GemmInt8(benchmark::State& state) {
  const bool int8 = state.range(0) != 0;
  set_kernel_threads(1);
  Rng rng(3);
  Matrix x(20000, 128);
  x.xavier_init(rng);
  Linear layer(128, 128, rng);
  Matrix out;
  if (int8) {
    const QuantizedLinear q = quantize_linear(layer);
    QuantizedTensor qx;
    for (auto _ : state) {
      quantize_tensor(x, qx);
      quantized_linear_forward(qx, q, layer.bias.value, out, /*relu=*/true);
      benchmark::DoNotOptimize(out.data());
    }
  } else {
    for (auto _ : state) {
      gemm_bias_act(x, layer.weight.value, layer.bias.value, out,
                    /*relu=*/true);
      benchmark::DoNotOptimize(out.data());
    }
  }
  // No SetItemsProcessed: both legs record real_time_ns so the ratio in
  // main() is a plain time quotient.
}
BENCHMARK(BM_GemmInt8)->ArgsProduct({{0, 1}})->ArgNames({"precision"});

/// Single-thread SpMM aggregation per precision tier (precision 0 = fp32
/// CsrMatrix::spmm, 1 = int8 spmm_q8). The dense operand is quantized
/// once outside the loop: in the real forward one activation encode
/// serves both the pred and succ SpMMs, so the kernel comparison is the
/// honest one. 128 columns x ~100k rows keeps the gathered working set
/// well past the LLC, where the u8 codes' 4x bandwidth advantage is the
/// point. Feeds "QuantSpeedup.spmm" (gated >= 1.5 in the baseline).
void BM_SpmmInt8(benchmark::State& state) {
  const bool int8 = state.range(0) != 0;
  set_kernel_threads(1);
  const Netlist& netlist = shared_netlist(100000);
  const GraphTensors tensors = build_graph_tensors(netlist);
  Rng rng(11);
  Matrix embedding(tensors.node_count(), 128);
  embedding.xavier_init(rng);
  Matrix out;
  if (int8) {
    QuantizedTensor q;
    quantize_tensor(embedding, q);
    for (auto _ : state) {
      spmm_q8(tensors.pred, q, out);
      benchmark::DoNotOptimize(out.data());
    }
  } else {
    for (auto _ : state) {
      tensors.pred.spmm(embedding, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  // No SetItemsProcessed: see BM_GemmInt8.
}
BENCHMARK(BM_SpmmInt8)->ArgsProduct({{0, 1}})->ArgNames({"precision"});

/// Dense layer with the bias+ReLU epilogue either fused into the GEMM
/// output pass (gemm_bias_act) or applied as separate passes afterwards.
void BM_LinearForward(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  set_kernel_threads(1);
  Rng rng(3);
  Matrix x(20000, 128);
  x.xavier_init(rng);
  Matrix w(128, 128);
  w.xavier_init(rng);
  const Matrix bias(1, 128, 0.1f);
  Matrix out;
  for (auto _ : state) {
    if (fused) {
      gemm_bias_act(x, w, bias, out, /*relu=*/true);
    } else {
      gemm(x, w, out, false, false);
      const SimdOps& ops = simd_ops();
      for (std::size_t r = 0; r < out.rows(); ++r) {
        ops.bias_add(out.row(r), bias.row(0), out.cols());
      }
      ops.relu(out.data(), out.rows() * out.cols());
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LinearForward)->ArgsProduct({{0, 1}})->ArgNames({"fused"});

/// Whole-graph inference with the CSR forms in node order (reorder 0)
/// versus RCM compute order (reorder 1). Results are bitwise identical;
/// only the SpMM gather locality changes.
void BM_GcnInferenceReorder(benchmark::State& state) {
  set_kernel_threads(8);
  set_graph_reorder(state.range(0) != 0 ? GraphReorder::kRcm
                                        : GraphReorder::kOff);
  const Netlist& netlist = shared_netlist(100000);
  const GraphTensors tensors = build_graph_tensors(netlist);
  reset_graph_reorder();
  GcnConfig config;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  GcnModel model(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.infer(tensors));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(netlist.size()));
}
BENCHMARK(BM_GcnInferenceReorder)
    ->ArgsProduct({{0, 1}})
    ->ArgNames({"reorder"});

void BM_GcnFullInference(benchmark::State& state) {
  const auto gates = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Netlist& netlist = shared_netlist(gates);
  const GraphTensors tensors = build_graph_tensors(netlist);
  GcnConfig config;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  GcnModel model(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.infer(tensors));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(netlist.size()));
}
BENCHMARK(BM_GcnFullInference)
    ->ArgsProduct({{10000, 100000}, {1, 8}})
    ->ArgNames({"gates", "threads"});

/// One training step's compute — forward, loss gradient and backward — on
/// a 6000-gate design (about 6.5k nodes), the model_build workload's
/// graph. Not gated.
void BM_GcnTrainStep(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  const Netlist& netlist = shared_netlist(6000);
  GraphTensors tensors = build_graph_tensors(netlist);
  tensors.standardize_features();
  std::vector<std::int32_t> labels(tensors.node_count(), 0);
  for (std::size_t v = 0; v < labels.size(); v += 7) labels[v] = 1;
  GcnModel model(GcnConfig{});
  Matrix dlogits;
  for (auto _ : state) {
    const Matrix logits = model.forward(tensors);
    softmax_cross_entropy(logits, labels, {1.0f, 8.0f}, nullptr, dlogits);
    model.backward(tensors, dlogits);
    benchmark::DoNotOptimize(model.params().back()->grad.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(netlist.size()));
}
BENCHMARK(BM_GcnTrainStep)
    ->ArgsProduct({{1, 4}})
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

void BM_LogicSimBatch(benchmark::State& state) {
  const Netlist& netlist = shared_netlist(50000);
  LogicSimulator sim(netlist);
  Rng rng(5);
  const PatternBatch batch = sim.random_batch(rng);
  std::vector<std::uint64_t> values;
  for (auto _ : state) {
    sim.simulate(batch, values);
    benchmark::DoNotOptimize(values.data());
  }
  // 64 patterns per run.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_LogicSimBatch);

void BM_FaultSimBatch(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  const Netlist& netlist = shared_netlist(10000);
  LogicSimulator sim(netlist);
  ParallelFaultSimulator fault_sim(sim);
  Rng rng(7);
  const auto faults = sample_faults(netlist, 512, 9);
  for (auto _ : state) {
    std::vector<bool> detected(faults.size(), false);
    std::vector<std::uint64_t> words;
    const PatternBatch batch = sim.random_batch(rng);
    benchmark::DoNotOptimize(
        fault_sim.run_batch(batch, faults, detected, words));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_FaultSimBatch)->ArgsProduct({kThreadSweep})->ArgNames({"threads"});

// The default labeling oracle end to end: one inversion probe per open node
// per batch, each stopping once the node's label is decided.
void BM_LabelEmpirical(benchmark::State& state) {
  const Netlist& netlist = shared_netlist(6000);
  LabelerOptions options;
  options.batches = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(label_difficult_to_observe(netlist, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(netlist.size()));
}
BENCHMARK(BM_LabelEmpirical)
    ->ArgsProduct({{4, 16}})
    ->ArgNames({"batches"})
    ->Unit(benchmark::kMillisecond);

void BM_ScoapFull(benchmark::State& state) {
  const Netlist& netlist = shared_netlist(100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_scoap(netlist));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(netlist.size()));
}
BENCHMARK(BM_ScoapFull);

/// .bench ingest at the Fig. 10 scale: read_bench_string on the text of a
/// ~200k-gate design (about 6.7 MB), as `gcnt infer` pays it per call.
void BM_ReadBench(benchmark::State& state) {
  static const std::string text = write_bench_string(bench_design(200000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_bench_string(text, "bench"));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadBench)->Unit(benchmark::kMillisecond);

/// One OP insertion and its CO repair per iteration, each on a fresh
/// target: the 50k-gate design's observable nodes in a fixed shuffled
/// order (design, measures and levels are restored, untimed, when they run
/// out). levels:0 relevels the whole design per call (the 3-argument
/// form); levels:1 passes cached levels, as EditableDesign::observe does.
void BM_ScoapIncrementalObserve(benchmark::State& state) {
  const Netlist& base = shared_netlist(50000);
  const ScoapMeasures base_measures = compute_scoap(base);
  const std::vector<std::uint32_t> base_levels = base.logic_levels();
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < base.size(); ++v) {
    if (base.can_observe(v)) targets.push_back(v);
  }
  Rng rng(13);
  rng.shuffle(targets);
  Netlist netlist = base;
  ScoapMeasures measures = base_measures;
  std::vector<std::uint32_t> levels = base_levels;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == targets.size()) {
      state.PauseTiming();
      netlist = base;
      measures = base_measures;
      levels = base_levels;
      next = 0;
      state.ResumeTiming();
    }
    const NodeId target = targets[next++];
    netlist.insert_observe_point(target);
    if (state.range(0) != 0) {
      levels.push_back(levels[target] + 1);
      update_observability_after_observe(netlist, target, measures, levels);
    } else {
      update_observability_after_observe(netlist, target, measures);
    }
    benchmark::DoNotOptimize(measures.co.data());
  }
}
BENCHMARK(BM_ScoapIncrementalObserve)
    ->ArgsProduct({{0, 1}})
    ->ArgNames({"levels"});

/// One OPI ranking step: the impact of every positive prediction of a
/// 20k-gate design (untrained paper-sized model, standardized features,
/// cone cap 96 as in GcnOpiOptions) across the kernel pool. cache:1 ranks
/// against the predicted design's engine caches, as the OPI loop does;
/// cache:0 recomputes every row. Wall time, since the work runs on pool
/// threads. Not gated.
void BM_ImpactRank(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  Netlist netlist = shared_netlist(20000);
  GcnConfig config;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  const GcnModel model(config);
  EditableDesign design(netlist, /*standardize_features=*/true);
  design.set_models({&model});
  design.predict();
  const std::vector<std::int32_t> predictions = design.predictions();
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (predictions[v] == 1 && netlist.can_observe(v)) candidates.push_back(v);
  }
  const auto evaluator =
      state.range(1) != 0
          ? std::make_unique<ImpactEvaluator>(design)
          : std::make_unique<ImpactEvaluator>(
                std::vector<const GcnModel*>{&model}, netlist,
                design.tensors(), design.scoap(), design.levels());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->impacts(candidates, predictions, 96));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(candidates.size()));
}
BENCHMARK(BM_ImpactRank)
    ->ArgsProduct({{1, 4}, {0, 1}})
    ->ArgNames({"threads", "cache"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CopFull(benchmark::State& state) {
  const Netlist& netlist = shared_netlist(100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_cop(netlist));
  }
}
BENCHMARK(BM_CopFull);

void BM_CooToCsr(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  const Netlist& netlist = shared_netlist(100000);
  CooMatrix pred(netlist.size(), netlist.size());
  for (NodeId v = 0; v < netlist.size(); ++v) {
    for (const NodeId u : netlist.fanins(v)) pred.add(v, u, 1.0f);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrMatrix::from_coo(pred));
  }
}
BENCHMARK(BM_CooToCsr)->ArgsProduct({{1, 8}})->ArgNames({"threads"});

/// Console output as usual, plus a flat (name, value) record per run for
/// the CI regression gate: items/s when the benchmark reports it,
/// adjusted real time otherwise.
class JsonRecorder : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        entries_.emplace_back(run.benchmark_name() + ".items_per_second",
                              static_cast<double>(it->second));
      } else {
        entries_.emplace_back(run.benchmark_name() + ".real_time_ns",
                              run.GetAdjustedRealTime());
      }
    }
  }
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  gcnt::trace_set_thread_name("main");
  JsonRecorder reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  publish_kernel_pool_stats();
  set_kernel_threads(0);
  // Derived entries: single-thread AVX2-over-scalar speedups from the
  // BM_*Simd dispatch pairs (scalar time / avx2 time, so >= 1 means AVX2
  // wins). Committed to the baseline JSON, these put the vectorization
  // win under the same regression gate as every other number.
  std::vector<std::pair<std::string, double>> entries = reporter.entries();
  const auto find_entry = [&](const std::string& needle) -> const double* {
    for (const auto& entry : entries) {
      if (entry.first.find(needle) != std::string::npos) return &entry.second;
    }
    return nullptr;
  };
  const struct {
    const char* key;
    const char* scalar;
    const char* avx2;
  } kSpeedups[] = {
      {"SimdSpeedup.gemm", "BM_GemmSimd/simd:0", "BM_GemmSimd/simd:1"},
      {"SimdSpeedup.spmm", "BM_SpmmSimd/simd:0", "BM_SpmmSimd/simd:1"},
  };
  for (const auto& speedup : kSpeedups) {
    const double* scalar_ns = find_entry(speedup.scalar);
    const double* avx2_ns = find_entry(speedup.avx2);
    if (scalar_ns != nullptr && avx2_ns != nullptr && *avx2_ns > 0.0) {
      entries.emplace_back(speedup.key, *scalar_ns / *avx2_ns);
    }
  }
  // Int8-over-fp32 speedups from the BM_*Int8 precision pairs (fp32 time
  // / int8 time). "QuantSpeedup.spmm" carries the headline claim: the
  // committed baseline pins it >= 1.5 under the bench gate.
  const struct {
    const char* key;
    const char* fp32;
    const char* int8;
  } kQuantSpeedups[] = {
      {"QuantSpeedup.gemm", "BM_GemmInt8/precision:0",
       "BM_GemmInt8/precision:1"},
      {"QuantSpeedup.spmm", "BM_SpmmInt8/precision:0",
       "BM_SpmmInt8/precision:1"},
  };
  for (const auto& speedup : kQuantSpeedups) {
    const double* fp32_ns = find_entry(speedup.fp32);
    const double* int8_ns = find_entry(speedup.int8);
    if (fp32_ns != nullptr && int8_ns != nullptr && *int8_ns > 0.0) {
      entries.emplace_back(speedup.key, *fp32_ns / *int8_ns);
    }
  }
  if (const char* path = std::getenv("GCNT_BENCH_JSON")) {
    if (!bench::write_bench_json(path, entries)) {
      std::cerr << "microbench: failed to write GCNT_BENCH_JSON to " << path
                << "\n";
      return 1;
    }
  }
  // With GCNT_STATS=1 the per-kernel calls/latency registry narrates where
  // the benchmark time went (spans go to GCNT_TRACE's atexit writer).
  if (stats_enabled()) StatsRegistry::instance().write_text(std::cerr);
  benchmark::Shutdown();
  return 0;
}
