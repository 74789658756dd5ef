// perf_suite: the repository's performance benchmark.
//
//   perf_suite --workload <model_build|infer_large|opi_sweep|serve_mixed>
//              --seed S [--seconds T] [--trace trace.json] [--json out.json]
//              [--smoke]
//
// An untraced run prints the end-to-end metrics (latency_ms, peak_rss_mb,
// setup_s); a run with --trace records a Chrome trace of
// the timed section and the probes, validates it, writes
// <trace>.summary.json (count, total and self time per span), and prints
// the per-layer metrics instead. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
// when any correctness check fails. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.h"
#include "suite.h"

namespace {

using namespace gcnt::perfbench;

const std::set<std::string> kEndToEnd = {"latency_ms", "peak_rss_mb",
                                         "setup_s"};

int usage(const std::string& why) {
  std::cerr << "perf_suite: " << why
            << "\nusage: perf_suite --workload <model_build|infer_large|"
               "opi_sweep|serve_mixed> --seed S [--seconds T] "
               "[--trace trace.json] [--json out.json] [--smoke]\n";
  return 2;
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string result_line(const Report& report, bool traced) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct() ? "true" : "false")
      << ", \"attempted\": " << report.attempted_count()
      << ", \"failed\": " << report.failed_count() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics()) {
    if ((kEndToEnd.count(name) != 0) == traced) continue;
    out << (first ? "" : ", ") << "\"" << gcnt::json::escaped(name)
        << "\": {\"value\": " << number(value.first) << ", \"unit\": \""
        << gcnt::json::escaped(value.second) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string provenance_json(const RunConfig& config) {
  const Provenance p = provenance();
  std::ostringstream out;
  out << "{\"schema.version\": 1, \"schema.workload\": \"" << config.workload
      << "\", \"schema.seed\": " << config.seed
      << ", \"schema.seconds\": " << number(config.seconds)
      << ", \"schema.smoke\": " << (config.smoke ? "true" : "false")
      << ", \"schema.nproc\": " << p.nproc << ", \"schema.cpu_model\": \""
      << gcnt::json::escaped(p.cpu_model)
      << "\", \"schema.llc_bytes\": " << p.llc_bytes
      << ", \"schema.triad_bytes\": " << p.triad_bytes
      << ", \"schema.simd\": \"" << p.simd << "\", \"schema.precision\": \""
      << p.precision << "\", \"schema.kernel_threads\": " << p.kernel_threads
      << ", \"schema.reorder\": \"" << p.reorder
      << "\", \"schema.build_type\": \"" << p.build_type << "\"}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace_path = argv[++i];
    } else if (arg == "--json" && has_value) {
      config.json_path = argv[++i];
    } else {
      return usage("unexpected argument " + arg);
    }
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");
  // Each of these changes the measured program: tracing and stats add
  // work to every instrumented kernel, fault injection makes calls fail.
  for (const char* name : {"GCNT_TRACE", "GCNT_STATS", "GCNT_FAULT_INJECT"}) {
    const char* value = std::getenv(name);
    if (value != nullptr && *value != '\0') {
      std::cerr << "perf_suite: refusing to run with " << name
                << " set; it changes the program being measured\n";
      return 2;
    }
  }
  if (config.traced()) {
    // Room for every span of a run, so none is dropped (checked).
    setenv("GCNT_TRACE_BUFFER", "1048576", 1);
  }
  config.sizes = config.smoke ? Sizes::smoke() : Sizes{};

  void (*workload)(const RunConfig&, Report&) = nullptr;
  if (config.workload == "model_build") workload = run_model_build;
  if (config.workload == "infer_large") workload = run_infer_large;
  if (config.workload == "opi_sweep") workload = run_opi_sweep;
  if (config.workload == "serve_mixed") workload = run_serve_mixed;
  if (workload == nullptr) return usage("unknown workload '" + config.workload + "'");

  const std::string schema = provenance_json(config);
  std::cout << "provenance " << schema << std::endl;

  Report report;
  try {
    workload(config, report);
    if (config.traced()) {
      finish_trace(config, report);
      fill_missing_layer_metrics(report);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("workload completed: ") + e.what());
  }
  if (!config.traced()) {
    for (const std::string& name : kEndToEnd) {
      bool present = false;
      for (const auto& entry : report.metrics()) {
        present = present || entry.first == name;
      }
      report.check(present, "end-to-end metric " + name + " measured");
    }
  }

  std::string line = result_line(report, config.traced());
  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    out << "{\"provenance\": " << schema << ", \"result\": " << line << "}\n";
    if (!out) {
      report.check(false, "result written to " + config.json_path);
      line = result_line(report, config.traced());
    }
  }
  std::cout << line << std::endl;
  return report.correct() ? 0 : 1;
}
