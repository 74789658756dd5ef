// gcnt — command-line front end for the library.
//
//   gcnt generate --gates N --seed S --out design.bench
//   gcnt stats    design.bench
//   gcnt scoap    design.bench [--worst K]
//   gcnt label    design.bench [--batches B] [--rate R]
//   gcnt atpg     design.bench [--sample N] [--patterns out.txt]
//   gcnt train    design.bench --model model.txt [--epochs E]
//                 [--checkpoint [file]] [--checkpoint-interval K] [--resume]
//   gcnt infer    design.bench --model model.txt [--out pred.txt]
//   gcnt opi      design.bench --model model.txt --out modified.bench
//                 [--journal [file]] [--resume]
//   gcnt flow     [design.bench] [--gates N] [--epochs E] [--atpg]
//                 [--checkpoint base] [--resume]
//   gcnt serve    --model model.txt (--socket path | --port P)
//                 [--workers N] [--queue N] [--batch N] [--max-sessions N]
//                 [--read-timeout MS] [--idle-timeout MS] [--max-conns N]
//                 [--watchdog MS] [--watchdog-action log|abort|quarantine]
//                 [--brownout-queue N]
//   gcnt ping     (--socket path | --port P) [--timeout MS]
//
// `serve` runs the inference daemon: model loaded once, netlists resident
// as named sessions, requests framed over the socket (src/serve/). SIGINT
// or SIGTERM shuts it down cleanly; see docs/API.md ("Serving" and
// "Serve resilience").
//
// --resume continues an interrupted train/opi/flow run from its
// checkpoint / insertion journal (crash-safe: every artifact is written
// atomically and checksummed; see docs/API.md). Failures exit with
// sysexits-style codes: 64 usage, 65 corrupt, 70 internal, 71 resource,
// 74 i/o, 75 deadline.
//
// Global observability flags (any command): --trace out.json writes a
// Chrome trace-event file, --stats prints the stats registry to stderr,
// --stats-json out.json writes it as JSON. GCNT_TRACE / GCNT_STATS do the
// same via the environment.
//
// Each command accepts only its own flags (kCommands) plus the global
// ones; any other flag is a usage error (exit 64) that names it.
//
// Performance knob (infer/flow/serve): --simd auto|scalar|avx2|avx512
// pins the microkernel backend, outranking GCNT_SIMD; see docs/API.md
// ("SIMD backend") for the full precedence and fallback rules.
//
// Netlist files ending in .v are read/written as structural Verilog,
// anything else as ISCAS .bench.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <map>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "atpg/atpg.h"
#include "sim/logic_sim.h"
#include "common/artifact.h"
#include "common/error.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/trace.h"
#include "common/log.h"
#include "data/dataset.h"
#include "dft/gcn_opi.h"
#include "gcn/graph_tensors.h"
#include "gcn/serialize.h"
#include "gcn/trainer.h"
#include "gcn/workspace.h"
#include "gen/generator.h"
#include "nn/loss.h"
#include "netlist/bench_io.h"
#include "netlist/text_scan.h"
#include "netlist/verilog_io.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tensor/simd/simd.h"

namespace {

using namespace gcnt;

template <typename T>
bool parse_whole(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [parsed, error] = std::from_chars(text.data(), end, value);
  return error == std::errc() && parsed == end;
}

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  // A numeric flag's whole value must be the number: a sign on a size,
  // an empty value, trailing characters or a non-number is a usage error
  // that names the flag.
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    std::size_t value = 0;
    if (!parse_whole(it->second, value)) {
      throw Error(ErrorKind::kUsage, "--" + key +
                                         " needs a non-negative integer "
                                         "(got '" + it->second + "')");
    }
    return value;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    double value = 0.0;
    if (!parse_whole(it->second, value) || !std::isfinite(value)) {
      throw Error(ErrorKind::kUsage, "--" + key +
                                         " needs a finite number (got '" +
                                         it->second + "')");
    }
    return value;
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

/// The netlist a command reads: its first positional argument, else
/// `fallback` (infer's --netlist). Missing both is a usage error.
std::string netlist_arg(const Args& args, const std::string& fallback = "") {
  const std::string path =
      args.positional.empty() ? fallback : args.positional.front();
  if (path.empty()) {
    throw Error(ErrorKind::kUsage, args.command + " needs a netlist argument");
  }
  return path;
}

// --simd <auto|scalar|avx2|avx512> mirrors GCNT_SIMD one notch higher in
// precedence (flag > env > CPU detect; docs/API.md "SIMD backend"). An
// unavailable target warns and keeps the best the host supports — the
// same graceful fallback as the environment variable, so scripted CI
// legs can request avx512 on any runner without failing.
void apply_simd_flag(const Args& args) {
  if (!args.has("simd")) return;
  const std::string value = args.get("simd", "auto");
  if (value == "auto") {
    reset_simd_target();
    return;
  }
  SimdTarget target = SimdTarget::kScalar;
  if (value == "avx2") {
    target = SimdTarget::kAvx2;
  } else if (value == "avx512") {
    target = SimdTarget::kAvx512;
  } else if (value != "scalar") {
    throw Error(ErrorKind::kUsage,
                "--simd must be auto, scalar, avx2, or avx512 (got " +
                    value + ")");
  }
  if (!set_simd_target(target)) {
    log_warn("--simd ", value, " unavailable on this host; using ",
             simd_target_name());
  }
}

bool is_verilog_path(const std::string& path) {
  return path.size() >= 2 && path.substr(path.size() - 2) == ".v";
}

/// The whole file, read with one sized read; a file whose size cannot be
/// known in advance (a pipe, a device) is read to its end instead.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error(ErrorKind::kIo, "cannot open " + path);
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return read_stream(in);
  std::string text(size, '\0');
  if (!in.read(text.data(), static_cast<std::streamsize>(size))) {
    throw Error(ErrorKind::kIo, "cannot read " + path);
  }
  return text;
}

Netlist read_netlist_file(const std::string& path) {
  TraceSpan span("netlist.parse");
  const std::string text = read_file(path);
  Netlist netlist = is_verilog_path(path) ? read_verilog_string(text, path)
                                          : read_bench_string(text, path);
  span.arg("bytes", static_cast<double>(text.size()));
  span.arg("nodes", static_cast<double>(netlist.size()));
  return netlist;
}

void write_netlist_file(const Netlist& netlist, const std::string& path) {
  atomic_write_file(path, [&](std::ostream& out) {
    if (is_verilog_path(path)) {
      write_verilog(netlist, out);
    } else {
      write_bench(netlist, out);
    }
  });
}

int cmd_generate(const Args& args) {
  GeneratorConfig config;
  config.target_gates = args.get_size("gates", 10000);
  config.seed = args.get_size("seed", 1);
  config.primary_inputs = args.get_size("inputs", 64);
  config.primary_outputs = args.get_size("outputs", 32);
  config.flip_flops = args.get_size("flops", config.target_gates / 24);
  config.trap_fraction = args.get_double("traps", 0.02);
  const Netlist netlist = generate_circuit(config);
  const std::string out = args.get("out", "design.bench");
  write_netlist_file(netlist, out);
  std::cout << "wrote " << netlist.size() << " nodes / "
            << netlist.edge_count() << " edges to " << out << "\n";
  return 0;
}

int cmd_stats(const Args& args) {
  const Netlist netlist = read_netlist_file(netlist_arg(args));
  const auto problems = netlist.validate();
  Table table("Netlist statistics", {"Quantity", "Value"});
  table.add_row({"Name", netlist.name()});
  table.add_row({"Nodes", std::to_string(netlist.size())});
  table.add_row({"Edges", std::to_string(netlist.edge_count())});
  table.add_row({"Primary inputs",
                 std::to_string(netlist.primary_inputs().size())});
  table.add_row({"Primary outputs",
                 std::to_string(netlist.primary_outputs().size())});
  table.add_row({"Flip-flops", std::to_string(netlist.flip_flops().size())});
  table.add_row({"Observe points",
                 std::to_string(netlist.observe_points().size())});
  // A combinational cycle leaves the depth undefined; validate() has
  // already reported it, so the table still prints.
  std::string depth = "n/a";
  try {
    std::uint32_t max_level = 0;
    for (std::uint32_t level : netlist.logic_levels()) {
      max_level = std::max(max_level, level);
    }
    depth = std::to_string(max_level);
  } catch (const Error&) {
  }
  table.add_row({"Logic depth", depth});
  table.add_row({"Well-formed", problems.empty() ? "yes" : problems.front()});
  table.print(std::cout);
  return problems.empty() ? 0 : 1;
}

int cmd_scoap(const Args& args) {
  const std::size_t worst = args.get_size("worst", 10);
  const Netlist netlist = read_netlist_file(netlist_arg(args));
  const auto measures = compute_scoap(netlist);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (is_logic(netlist.type(v))) nodes.push_back(v);
  }
  std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return measures.co[a] > measures.co[b];
  });
  if (nodes.size() > worst) nodes.resize(worst);
  Table table("Least observable nodes (SCOAP)",
              {"Node", "Type", "CC0", "CC1", "CO"});
  for (NodeId v : nodes) {
    table.add_row({std::string(netlist.node_name(v)),
                   std::string(cell_type_name(netlist.type(v))),
                   std::to_string(measures.cc0[v]),
                   std::to_string(measures.cc1[v]),
                   std::to_string(measures.co[v])});
  }
  table.print(std::cout);
  return 0;
}

int cmd_label(const Args& args) {
  const Netlist netlist = read_netlist_file(netlist_arg(args));
  LabelerOptions options;
  options.batches = args.get_size("batches", 16);
  options.min_observed_rate = args.get_double("rate", 0.01);
  const auto labels = label_difficult_to_observe(netlist, options);
  std::size_t positives = 0;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (labels[v] == 1) {
      ++positives;
      if (positives <= 20) {
        std::cout << netlist.node_name(v) << "\n";
      }
    }
  }
  if (positives > 20) std::cout << "... (" << positives - 20 << " more)\n";
  std::cout << positives << " difficult-to-observe nodes of "
            << netlist.size() << "\n";
  return 0;
}

int cmd_atpg(const Args& args) {
  const Netlist netlist = read_netlist_file(netlist_arg(args));
  AtpgOptions options;
  options.fault_sample = args.get_size("sample", 0);
  options.collect_patterns = args.has("patterns");
  const AtpgResult result = run_atpg(netlist, options);
  if (options.collect_patterns) {
    const std::string path = args.get("patterns", "patterns.txt");
    atomic_write_file(path, [&](std::ostream& out) {
      // Header: source signal order, then one 0/1 line per pattern.
      LogicSimulator sim(netlist);
      out << "#";
      for (NodeId s : sim.sources()) out << " " << netlist.node_name(s);
      out << "\n";
      for (const auto& pattern : result.patterns) {
        for (bool bit : pattern) out << (bit ? '1' : '0');
        out << "\n";
      }
    });
    std::cout << "wrote " << result.patterns.size() << " patterns to "
              << path << "\n";
  }
  Table table("ATPG results", {"Metric", "Value"});
  table.add_row({"Total faults", std::to_string(result.total_faults)});
  table.add_row({"Detected", std::to_string(result.detected_faults)});
  table.add_row({"Untestable", std::to_string(result.untestable_faults)});
  table.add_row({"Aborted", std::to_string(result.aborted_faults)});
  table.add_row({"Patterns", std::to_string(result.pattern_count)});
  table.add_row({"Fault coverage", Table::percent(result.fault_coverage())});
  table.add_row({"Test coverage", Table::percent(result.test_coverage())});
  table.print(std::cout);
  return 0;
}

int cmd_train(const Args& args) {
  LabelerOptions labeler;
  labeler.batches = args.get_size("batches", 16);
  TrainerOptions options;
  options.epochs = args.get_size("epochs", 200);
  options.learning_rate = 1e-2f;
  options.positive_class_weight =
      static_cast<float>(args.get_double("weight", 8.0));
  options.eval_interval = std::max<std::size_t>(1, options.epochs / 10);
  const std::string path = args.get("model", "model.txt");
  // Checkpointing is opt-in (--checkpoint [file] or --resume); the
  // default path sits next to the model artifact.
  if (args.has("checkpoint") || args.has("resume")) {
    const std::string checkpoint = args.get("checkpoint", "1");
    options.checkpoint_path = checkpoint == "1" ? path + ".ckpt" : checkpoint;
    options.checkpoint_interval = args.get_size("checkpoint-interval", 1);
  }

  Netlist netlist = read_netlist_file(netlist_arg(args));
  Dataset dataset = make_dataset(std::move(netlist), labeler);
  dataset.tensors.standardize_features();
  std::cout << "labeled " << dataset.positives() << " positives\n";

  GcnConfig config;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  GcnModel model(config);
  Trainer trainer(model, options);
  const TrainGraph data{&dataset.tensors, {}};
  const auto history =
      args.has("resume") ? trainer.resume({data}, &data)
                         : trainer.train({data}, &data);
  std::cout << "final loss " << Table::num(history.back().loss, 4) << "\n";

  save_model_file(model, path);
  std::cout << "saved model to " << path << "\n";
  return 0;
}

// Single-shot whole-graph inference: netlist -> tensors -> logits.
// Prints a summary; --out writes one "name p(positive) predicted" line
// per node.
int cmd_infer(const Args& args) {
  apply_simd_flag(args);
  const Netlist netlist =
      read_netlist_file(netlist_arg(args, args.get("netlist", "")));
  const GcnModel model = [&] {
    TraceSpan span("model.load");
    return load_model_file(args.get("model", "model.txt"));
  }();
  GraphTensors tensors = build_graph_tensors(netlist);
  tensors.standardize_features();
  ForwardWorkspace ws;
  Matrix logits;
  model.infer(tensors, ws, logits);
  Matrix probabilities;
  std::size_t positives = 0;
  {
    TraceSpan span("infer.softmax");
    span.arg("rows", static_cast<double>(logits.rows()));
    probabilities = softmax(logits);
    for (std::size_t v = 0; v < probabilities.rows(); ++v) {
      if (probabilities.at(v, 1) >= 0.5f) ++positives;
    }
  }
  if (args.has("out")) {
    const std::string out = args.get("out", "predictions.txt");
    TraceSpan span("infer.write_out");
    std::size_t bytes = 0;
    atomic_write_file(out, [&](std::ostream& os) {
      bytes = write_predictions(netlist, probabilities, os);
    });
    span.arg("bytes", static_cast<double>(bytes));
    std::cout << "wrote per-node predictions to " << out << "\n";
  }
  std::cout << positives << " predicted difficult-to-observe nodes of "
            << netlist.size() << " (simd " << simd_target_name() << ")\n";
  return 0;
}

int cmd_opi(const Args& args) {
  const std::string design = netlist_arg(args);
  Netlist netlist = read_netlist_file(design);
  const GcnModel model = load_model_file(args.get("model", "model.txt"));
  GcnOpiOptions options;
  options.max_iterations = args.get_size("iterations", 12);
  // gcnt train always trains on standardized features.
  options.standardize_features = true;
  // Journaling is opt-in (--journal [file] or --resume); the default path
  // sits next to the output artifact and is removed when the sweep
  // completes.
  if (args.has("journal") || args.has("resume")) {
    const std::string journal = args.get("journal", "1");
    options.journal_path =
        journal == "1" ? args.get("out", "modified.bench") + ".journal"
                       : journal;
    options.journal_design = design;
    options.resume = args.has("resume");
  }
  const auto result = run_gcn_opi(netlist, {&model}, options);
  std::cout << "inserted " << result.inserted.size() << " observation points"
            << " in " << result.iterations << " iterations ("
            << result.final_positive_predictions
            << " residual positive predictions)\n";
  const std::string out = args.get("out", "modified.bench");
  write_netlist_file(netlist, out);
  std::cout << "wrote modified netlist to " << out << "\n";
  return 0;
}

// End-to-end pipeline in one process: generate (or read) -> SCOAP ->
// label -> train a small cascade stage -> GCN-OPI -> optional ATPG.
// Primarily an observability driver: with --trace one run produces spans
// for every hot path in the library.
int cmd_flow(const Args& args) {
  apply_simd_flag(args);
  Netlist netlist;
  std::string design;
  if (!args.positional.empty()) {
    design = args.positional.at(0);
    netlist = read_netlist_file(design);
  } else {
    GeneratorConfig config;
    config.target_gates = args.get_size("gates", 25000);
    config.seed = args.get_size("seed", 1);
    config.flip_flops = config.target_gates / 24;
    // Generation is seed-deterministic, so a resumed flow regenerates the
    // identical starting netlist; the identity string pins that.
    design = "gen-" + std::to_string(config.target_gates) + "-" +
             std::to_string(config.seed);
    netlist = generate_circuit(config);
    std::cout << "generated " << netlist.size() << " nodes / "
              << netlist.edge_count() << " edges\n";
  }
  const bool resume = args.has("resume");
  const std::string checkpoint_base = args.get("checkpoint", "flow");

  LabelerOptions labeler;
  labeler.batches = args.get_size("batches", 4);
  Dataset dataset = make_dataset(std::move(netlist), labeler);
  dataset.tensors.standardize_features();
  std::cout << "labeled " << dataset.positives() << " positives of "
            << dataset.netlist.size() << " nodes\n";

  GcnConfig config;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  GcnModel model(config);
  TrainerOptions train_options;
  train_options.epochs = args.get_size("epochs", 8);
  train_options.learning_rate = 1e-2f;
  train_options.eval_interval = std::max<std::size_t>(
      1, train_options.epochs / 2);
  if (resume || args.has("checkpoint")) {
    train_options.checkpoint_path = checkpoint_base + ".ckpt";
  }
  Trainer trainer(model, train_options);
  const TrainGraph data{&dataset.tensors, {}};
  const auto history = resume ? trainer.resume({data}, nullptr)
                              : trainer.train({data}, nullptr);
  std::cout << "trained " << history.size() << " epochs, final loss "
            << Table::num(history.back().loss, 4) << "\n";

  GcnOpiOptions opi_options;
  opi_options.max_iterations = args.get_size("iterations", 2);
  opi_options.standardize_features = true;  // as trained above
  if (resume || args.has("checkpoint")) {
    opi_options.journal_path = checkpoint_base + ".journal";
    opi_options.journal_design = design;
    opi_options.resume = resume;
  }
  const auto result = run_gcn_opi(dataset.netlist, {&model}, opi_options);
  std::cout << "inserted " << result.inserted.size()
            << " observation points in " << result.iterations
            << " iterations\n";

  if (args.has("atpg")) {
    AtpgOptions atpg_options;
    atpg_options.fault_sample = args.get_size("sample", 512);
    const AtpgResult atpg_result = run_atpg(dataset.netlist, atpg_options);
    std::cout << "atpg: " << atpg_result.detected_faults << "/"
              << atpg_result.total_faults << " faults detected with "
              << atpg_result.pattern_count << " patterns\n";
  }

  if (args.has("out")) {
    const std::string out = args.get("out", "modified.bench");
    write_netlist_file(dataset.netlist, out);
    std::cout << "wrote modified netlist to " << out << "\n";
  }
  return 0;
}

serve::ServeServer* g_serve_server = nullptr;

// Only sets an atomic flag; the daemon's acceptor notices within its
// poll tick and runs the real shutdown from a normal thread.
void handle_stop_signal(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

int cmd_serve(const Args& args) {
  apply_simd_flag(args);
  serve::ServeOptions options;
  options.model_path = args.get("model", "");
  options.unix_socket = args.get("socket", "");
  if (args.has("port")) {
    options.tcp_port = static_cast<int>(args.get_size("port", 0));
  }
  // Every numeric flag defaults to ServeOptions' own default.
  const auto size_flag = [&args](const char* name, auto& field) {
    field = args.get_size(name, field);
  };
  size_flag("workers", options.workers);
  size_flag("queue", options.queue_limit);
  size_flag("batch", options.batch_limit);
  size_flag("max-sessions", options.max_sessions);
  size_flag("slow-ring", options.slow_ring);
  options.access_log = args.get("access-log", "");
  if (options.access_log.empty()) {
    const char* env = std::getenv("GCNT_ACCESS_LOG");
    if (env != nullptr) options.access_log = env;
  }

  // Resilience knobs (docs/API.md "Serve resilience"); 0 disables one.
  size_flag("read-timeout", options.read_timeout_ms);
  size_flag("idle-timeout", options.idle_timeout_ms);
  size_flag("max-conns", options.max_connections);
  size_flag("watchdog", options.watchdog_budget_ms);
  size_flag("brownout-queue", options.brownout_queue);
  const std::string action = args.get("watchdog-action", "log");
  if (action == "log") {
    options.watchdog_action = serve::WatchdogAction::kLog;
  } else if (action == "abort") {
    options.watchdog_action = serve::WatchdogAction::kAbort;
  } else if (action == "quarantine") {
    options.watchdog_action = serve::WatchdogAction::kQuarantine;
  } else {
    throw Error(ErrorKind::kUsage,
                "--watchdog-action must be log, abort, or quarantine (got " +
                    action + ")");
  }

  // The daemon always keeps stats on: kMetrics scrapes and `gcnt top`
  // are useless without them, and the cost is relaxed atomic adds.
  set_stats_enabled(true);
  serve::ServeServer server(std::move(options));
  server.start();
  g_serve_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  if (args.has("port")) {
    // Scripts using --port 0 read the ephemeral port from stdout.
    std::cout << "listening on 127.0.0.1:" << server.bound_tcp_port()
              << std::endl;
  }
  server.wait();
  g_serve_server = nullptr;
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  return 0;
}

/// Connects to a running daemon for the client-side subcommands
/// (`ping`, `metrics`, `top`). Bounded timeouts (--timeout MS overrides
/// both) so a dead daemon means a fast typed `io` failure (exit 74), not
/// a hang; the connect error says so explicitly.
serve::ServeClient connect_serve_client(const Args& args) {
  serve::ClientOptions options;
  options.connect_timeout_ms = args.get_size("timeout", 2000);
  options.recv_timeout_ms = args.get_size("timeout", 5000);
  options.send_timeout_ms = options.recv_timeout_ms;
  const std::string socket_path = args.get("socket", "");
  try {
    if (!socket_path.empty()) {
      return serve::ServeClient::connect_unix(socket_path, options);
    }
    if (args.has("port")) {
      return serve::ServeClient::connect_tcp(
          static_cast<int>(args.get_size("port", 0)), options);
    }
  } catch (const Error& e) {
    if (e.kind() == ErrorKind::kIo) {
      throw Error(ErrorKind::kIo,
                  std::string(e.what()) + " — is the daemon running?");
    }
    throw;
  }
  throw Error(ErrorKind::kUsage,
              "need --socket <path> or --port <p> to reach the daemon");
}

int cmd_ping(const Args& args) {
  serve::ServeClient client = connect_serve_client(args);
  const serve::ServeClient::Health health = client.ping();
  std::cout << "ok: queue " << health.queue_depth << ", workers "
            << health.workers << ", model generation "
            << health.model_generation << ", sessions " << health.sessions
            << ", brownout " << (health.brownout ? "on" : "off") << "\n";
  return 0;
}

int cmd_metrics(const Args& args) {
  serve::ServeClient client = connect_serve_client(args);
  const bool slow = args.has("slow");
  const serve::ServeClient::MetricsResult result = client.metrics(slow);
  std::cout << result.exposition;
  if (slow) std::cout << result.slow_json << "\n";
  return 0;
}

/// One parsed scrape plus the client-side time it was taken.
struct TopSample {
  std::map<std::string, double> series;
  std::chrono::steady_clock::time_point taken;

  double get(const std::string& key, double fallback = 0.0) const {
    const auto it = series.find(key);
    return it == series.end() ? fallback : it->second;
  }
};

TopSample scrape_top_sample(serve::ServeClient& client) {
  TopSample sample;
  const serve::ServeClient::MetricsResult result = client.metrics(false);
  std::string error;
  if (!parse_prometheus_text(result.exposition, sample.series, error)) {
    throw Error(ErrorKind::kCorrupt, "bad metrics exposition: " + error);
  }
  sample.taken = std::chrono::steady_clock::now();
  return sample;
}

/// Quantile of serve.request_ns in milliseconds, preferring the windowed
/// (since-last-scrape) series when the server had a previous scrape.
double top_latency_ms(const TopSample& s, const char* q) {
  const std::string windowed =
      std::string("gcnt_serve_request_ns_window{quantile=\"") + q + "\"}";
  const auto it = s.series.find(windowed);
  const double ns =
      it != s.series.end()
          ? it->second
          : s.get(std::string("gcnt_serve_request_ns{quantile=\"") + q +
                  "\"}");
  return ns / 1e6;
}

void render_top_tick(std::ostream& out, const TopSample& prev,
                     const TopSample& cur, bool plain) {
  const double elapsed =
      std::chrono::duration<double>(cur.taken - prev.taken).count();
  const double dt = elapsed > 0 ? elapsed : 1.0;
  const auto rate = [&](const std::string& key) {
    return (cur.get(key) - prev.get(key)) / dt;
  };
  const double qps = rate("gcnt_serve_requests_total");
  const double eps = rate("gcnt_serve_errors_total");
  const double queue_depth = cur.get("gcnt_serve_queue_depth");
  const double workers = cur.get("gcnt_serve_workers", 1.0);
  // Utilization: worker-busy nanoseconds per wall nanosecond per worker.
  const double busy_ns = cur.get("gcnt_serve_request_ns_sum") -
                         prev.get("gcnt_serve_request_ns_sum");
  const double util =
      std::clamp(busy_ns / (dt * 1e9 * std::max(workers, 1.0)), 0.0, 1.0);

  std::ostringstream ops;
  for (const auto& [key, value] : cur.series) {
    const std::string prefix = "gcnt_serve_op_";
    const std::string suffix = "_total";
    if (key.size() <= prefix.size() + suffix.size() ||
        key.compare(0, prefix.size(), prefix) != 0 ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const double r = (value - prev.get(key)) / dt;
    if (r <= 0.0) continue;
    const std::string op = key.substr(
        prefix.size(), key.size() - prefix.size() - suffix.size());
    ops << (ops.tellp() > 0 ? "  " : "") << op << " " << std::fixed
        << std::setprecision(1) << r << "/s";
  }

  out << std::fixed;
  if (plain) {
    out << "qps " << std::setprecision(1) << qps << "  err/s "
        << std::setprecision(1) << eps << "  p50 " << std::setprecision(3)
        << top_latency_ms(cur, "0.5") << "ms  p99 " << std::setprecision(3)
        << top_latency_ms(cur, "0.99") << "ms  queue " << std::setprecision(0)
        << queue_depth << "  util " << std::setprecision(0) << util * 100
        << "%";
    if (ops.tellp() > 0) out << "  | " << ops.str();
    out << "\n";
    out.flush();
    return;
  }
  out << "\x1b[H\x1b[2J";  // home + clear: live refresh
  out << "gcnt top — serve daemon\n\n"
      << "  requests/s   " << std::setprecision(1) << qps << "\n"
      << "  errors/s     " << std::setprecision(1) << eps << "\n"
      << "  p50 latency  " << std::setprecision(3)
      << top_latency_ms(cur, "0.5") << " ms\n"
      << "  p99 latency  " << std::setprecision(3)
      << top_latency_ms(cur, "0.99") << " ms\n"
      << "  queue depth  " << std::setprecision(0) << queue_depth << "\n"
      << "  workers      " << std::setprecision(0) << workers
      << "  (util " << std::setprecision(0) << util * 100 << "%)\n";
  if (ops.tellp() > 0) out << "\n  per-op: " << ops.str() << "\n";
  out.flush();
}

int cmd_top(const Args& args) {
  serve::ServeClient client = connect_serve_client(args);
  const std::size_t interval_ms = args.get_size("interval", 1000);
  const std::size_t count = args.get_size("count", 0);  // 0 = until ^C
  const bool plain = args.has("plain") || ::isatty(STDOUT_FILENO) == 0;

  TopSample prev = scrape_top_sample(client);
  for (std::size_t tick = 0; count == 0 || tick < count; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const TopSample cur = scrape_top_sample(client);
    render_top_tick(std::cout, prev, cur, plain);
    prev = cur;
  }
  return 0;
}

int usage() {
  std::cerr << "usage: gcnt <command> [args]\n"
            << "  generate --gates N --seed S --out design.bench\n"
            << "  stats    <netlist>\n"
            << "  scoap    <netlist> [--worst K]\n"
            << "  label    <netlist> [--batches B] [--rate R]\n"
            << "  atpg     <netlist> [--sample N]\n"
            << "  train    <netlist> --model model.txt [--epochs E]\n"
            << "           [--checkpoint [file]] [--checkpoint-interval K] "
               "[--resume]\n"
            << "  infer    <netlist> --model model.txt [--out pred.txt]\n"
            << "  opi      <netlist> --model model.txt --out out.bench\n"
            << "           [--journal [file]] [--resume]\n"
            << "  flow     [<netlist>] [--gates N] [--epochs E] [--atpg]\n"
            << "           [--checkpoint base] [--resume]\n"
            << "  serve    --model model.txt (--socket path | --port P)\n"
            << "           [--workers N] [--queue N] [--batch N] "
               "[--max-sessions N]\n"
            << "           [--access-log file] [--slow-ring N]\n"
            << "           [--read-timeout MS] [--idle-timeout MS] "
               "[--max-conns N]\n"
            << "           [--watchdog MS] [--watchdog-action "
               "log|abort|quarantine]\n"
            << "           [--brownout-queue N]\n"
            << "  ping     (--socket path | --port P) [--timeout MS]\n"
            << "  metrics  (--socket path | --port P) [--slow] "
               "[--timeout MS]\n"
            << "  top      (--socket path | --port P) [--interval MS] "
               "[--count N] [--plain]\n"
            << "global flags: --trace out.json | --stats | --stats-json "
               "out.json\n"
            << "infer/flow/serve: --simd auto|scalar|avx2|avx512 (outranks "
               "GCNT_SIMD)\n"
            << "a flag the command does not take is a usage error\n"
            << "netlists ending in .v are treated as structural Verilog\n"
            << "exit codes: 64 usage, 65 corrupt/version, 70 internal, "
               "71 resource, 74 i/o, 75 deadline\n";
  return exit_code_for(ErrorKind::kUsage);
}

/// One command: its handler and the flags it reads, besides kGlobalFlags.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

constexpr std::string_view kGlobalFlags[] = {"trace", "stats", "stats-json"};

const std::vector<Command> kCommands = {
    {"generate", cmd_generate,
     {"gates", "seed", "inputs", "outputs", "flops", "traps", "out"}},
    {"stats", cmd_stats, {}},
    {"scoap", cmd_scoap, {"worst"}},
    {"label", cmd_label, {"batches", "rate"}},
    {"atpg", cmd_atpg, {"sample", "patterns"}},
    {"train", cmd_train,
     {"model", "epochs", "batches", "weight", "checkpoint",
      "checkpoint-interval", "resume"}},
    {"infer", cmd_infer, {"netlist", "model", "out", "simd"}},
    {"opi", cmd_opi, {"model", "out", "iterations", "journal", "resume"}},
    {"flow", cmd_flow,
     {"gates", "seed", "epochs", "batches", "iterations", "checkpoint",
      "resume", "atpg", "sample", "out", "simd"}},
    {"serve", cmd_serve,
     {"model", "socket", "port", "workers", "queue", "batch", "max-sessions",
      "slow-ring", "access-log", "read-timeout", "idle-timeout", "max-conns",
      "watchdog", "watchdog-action", "brownout-queue", "simd"}},
    {"ping", cmd_ping, {"socket", "port", "timeout"}},
    {"metrics", cmd_metrics, {"socket", "port", "timeout", "slow"}},
    {"top", cmd_top,
     {"socket", "port", "timeout", "interval", "count", "plain"}},
};

int dispatch(const Args& args) {
  const auto command =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [&](const Command& c) { return c.name == args.command; });
  if (command == kCommands.end()) return usage();
  for (const auto& [flag, value] : args.options) {
    if (std::find(command->flags.begin(), command->flags.end(), flag) ==
            command->flags.end() &&
        std::find(std::begin(kGlobalFlags), std::end(kGlobalFlags), flag) ==
            std::end(kGlobalFlags)) {
      throw Error(ErrorKind::kUsage,
                  args.command + " does not take --" + flag);
    }
  }
  return command->run(args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      const std::string key = argv[i] + 2;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "1";
      }
    } else {
      args.positional.push_back(argv[i]);
    }
  }

  const std::string trace_path = args.get("trace", "");
  trace_set_thread_name("main");
  if (!trace_path.empty()) trace_start();
  if (args.has("stats") || args.has("stats-json")) set_stats_enabled(true);

  // Failures map to distinct sysexits-style codes (docs/API.md) so
  // wrappers can tell a bad invocation from a corrupt artifact from an
  // environment problem without parsing stderr.
  int rc = 0;
  try {
    rc = dispatch(args);
  } catch (const Error& e) {
    std::cerr << "error [" << error_kind_name(e.kind()) << "]: " << e.what()
              << "\n";
    rc = exit_code_for(e.kind());
  } catch (const std::bad_alloc&) {
    std::cerr << "error [resource]: out of memory\n";
    rc = exit_code_for(ErrorKind::kResource);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error [usage]: " << e.what() << "\n";
    rc = exit_code_for(ErrorKind::kUsage);
  } catch (const std::exception& e) {
    std::cerr << "error [internal]: " << e.what() << "\n";
    rc = exit_code_for(ErrorKind::kInternal);
  }

  publish_kernel_pool_stats();
  if (!trace_path.empty()) {
    if (trace_stop(trace_path)) {
      std::cerr << "wrote trace to " << trace_path << "\n";
    } else {
      std::cerr << "error: failed to write trace to " << trace_path << "\n";
      if (rc == 0) rc = 1;
    }
  }
  const std::string stats_json = args.get("stats-json", "");
  if (!stats_json.empty()) {
    try {
      atomic_write_file(stats_json, [](std::ostream& out) {
        StatsRegistry::instance().write_json(out);
      });
      std::cerr << "wrote stats to " << stats_json << "\n";
    } catch (const Error& e) {
      std::cerr << "error [" << error_kind_name(e.kind())
                << "]: " << e.what() << "\n";
      if (rc == 0) rc = exit_code_for(e.kind());
    }
  }
  if (args.has("stats")) StatsRegistry::instance().write_text(std::cerr);
  return rc;
}
