// serve_mixed: an in-process `gcnt serve` daemon with cmd_serve's
// defaults on a Unix socket, two resident 20k-gate sessions, and traffic
// of fifteen whole-graph infer reads to one append_observe write.
//
// Phase A is an open loop at a fixed rate (independent users): every
// request is timed from the moment it was due to be sent, so a stall
// that delays later sends counts against them instead of hiding in the
// generator. Phase B is a closed loop on the same connections (callers
// that wait for each reply) and measures capacity. Reads are cache hits
// dominated by the protocol and queueing; a write makes the next read of
// its session pay an incremental re-propagation, so this workload shows
// a change that helps reads at the cost of writes, or the reverse.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "common/stats.h"
#include "gcn/serialize.h"
#include "netlist/bench_io.h"
#include "serve/client.h"
#include "serve/server.h"
#include "suite.h"

namespace gcnt::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSessions = 2;
/// Every 16th request of a session is a write: fifteen reads to one.
constexpr std::size_t kWriteEvery = 16;
constexpr double kFailedMs = std::numeric_limits<double>::infinity();

std::string session_name(std::size_t s) { return "s" + std::to_string(s); }

/// The model artifact the daemon loads, one per process.
std::string model_path(const std::string& dir) {
  return dir + "/model-" + std::to_string(::getpid()) + ".txt";
}

/// Every valid observation-point target, each used at most once (the
/// serve session refuses a node that already feeds an OP), ordered in
/// strided rounds so consecutive writes land far apart in the design.
std::vector<NodeId> spread_targets(const Netlist& netlist) {
  constexpr NodeId kStride = 64;
  std::vector<NodeId> targets;
  for (NodeId first = 0; first < kStride; ++first) {
    for (NodeId v = first; v < netlist.size(); v += kStride) {
      const CellType type = netlist.type(v);
      if (!is_sink(type) && type != CellType::kInput) targets.push_back(v);
    }
  }
  return targets;
}

/// One daemon with its sessions loaded and warm.
struct Daemon {
  GcnModel model{model_config()};
  std::vector<std::string> texts;
  std::string socket;
  std::unique_ptr<serve::ServeServer> server;
};

Daemon start_daemon(const RunConfig& config, const std::string& dir,
                    std::size_t attempt) {
  const Sizes& sizes = config.sizes;
  Daemon daemon;
  daemon.model = train_shared_model(sizes);
  save_model_file(daemon.model, model_path(dir));
  for (std::size_t s = 0; s < kSessions; ++s) {
    daemon.texts.push_back(write_bench_string(
        make_design(config.design_seed(2 + s), sizes.serve_gates)));
  }

  // cmd_serve's defaults, including the stats it always keeps on.
  serve::ServeOptions options;
  options.model_path = model_path(dir);
  daemon.socket = dir + "/serve-" + std::to_string(::getpid()) + "-" +
                  std::to_string(attempt) + ".sock";
  options.unix_socket = daemon.socket;
  options.workers = 2;
  options.queue_limit = 64;
  options.batch_limit = 16;
  options.max_sessions = 64;
  options.read_timeout_ms = 30000;
  options.idle_timeout_ms = 300000;
  options.max_connections = 256;
  options.watchdog_budget_ms = 10000;
  set_stats_enabled(true);
  daemon.server = std::make_unique<serve::ServeServer>(options);
  daemon.server->start();

  serve::ServeClient control = serve::ServeClient::connect_unix(daemon.socket);
  for (std::size_t s = 0; s < kSessions; ++s) {
    TraceSpan span("serve.client.load_session");
    control.load_session_inline(session_name(s), daemon.texts[s],
                                /*standardize=*/true);
    control.infer(session_name(s));  // warm the session's logits cache
  }
  return daemon;
}

struct Edit {
  NodeId op = kInvalidNode;
  NodeId target = kInvalidNode;
};

/// Request stream shared by both phases. Request n goes to session n % 2;
/// every kWriteEvery-th request of a session is a write.
class Traffic {
 public:
  explicit Traffic(std::vector<std::vector<NodeId>> targets)
      : targets_(std::move(targets)), cursors_(targets_.size()) {}

  static bool is_write(std::size_t n) {
    return (n / kSessions) % kWriteEvery == kWriteEvery - 1;
  }

  /// Issues request n on `client`; throws what the client throws.
  void issue(serve::ServeClient& client, std::size_t n) {
    const std::size_t s = n % kSessions;
    if (!is_write(n)) {
      TraceSpan span("serve.client.infer");
      client.infer(session_name(s));
      return;
    }
    const std::size_t i = cursors_[s].fetch_add(1);
    if (i >= targets_[s].size()) {
      throw Error(ErrorKind::kInternal, "serve_mixed ran out of OP targets");
    }
    TraceSpan span("serve.client.append_observe");
    const auto result = client.append_observe(session_name(s), targets_[s][i]);
    std::lock_guard<std::mutex> lock(edits_mutex_);
    edits_[s].push_back(Edit{result.op, targets_[s][i]});
  }

  /// Edits each session applied, in the order it applied them (by OP id).
  std::vector<Edit> edits(std::size_t s) {
    std::lock_guard<std::mutex> lock(edits_mutex_);
    std::vector<Edit> sorted = edits_[s];
    std::sort(sorted.begin(), sorted.end(),
              [](const Edit& a, const Edit& b) { return a.op < b.op; });
    return sorted;
  }

 private:
  std::vector<std::vector<NodeId>> targets_;
  std::vector<std::atomic<std::size_t>> cursors_;
  std::mutex edits_mutex_;
  std::vector<Edit> edits_[kSessions];
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One client connection's samples, merged after the join.
struct Lane {
  Samples reads;
  Samples writes;
  Samples late;  ///< generator lateness (phase A), ms
  std::size_t done = 0;
  std::size_t failed = 0;

  /// Issues request n on `client` (null when it could not connect) and
  /// records its latency from `from`. A failed request counts as
  /// infinitely slow, beyond every percentile.
  void run(Traffic& traffic, serve::ServeClient* client, std::size_t n,
           Clock::time_point from) {
    Samples& samples = Traffic::is_write(n) ? writes : reads;
    try {
      if (client == nullptr) throw Error(ErrorKind::kIo, "not connected");
      traffic.issue(*client, n);
      samples.add(ms_between(from, Clock::now()));
      ++done;
    } catch (const std::exception& e) {
      samples.add(kFailedMs);
      ++failed;
      std::cerr << "perf_suite: request " << n << " failed: " << e.what()
                << "\n";
    }
  }

  static Lane merged(const std::vector<Lane>& lanes) {
    Lane all;
    for (const Lane& lane : lanes) {
      all.reads.merge(lane.reads);
      all.writes.merge(lane.writes);
      all.late.merge(lane.late);
      all.done += lane.done;
      all.failed += lane.failed;
    }
    return all;
  }
};

std::unique_ptr<serve::ServeClient> connect(const std::string& socket) {
  try {
    return std::make_unique<serve::ServeClient>(
        serve::ServeClient::connect_unix(socket));
  } catch (const std::exception& e) {
    std::cerr << "perf_suite: cannot connect: " << e.what() << "\n";
    return nullptr;
  }
}

/// Open loop: request i is due at start + i / rate; lane c sends requests
/// c, c + C, ... in order. Latency runs from the due time, so time spent
/// waiting for this lane's previous reply counts against the request.
/// Lateness is how far the send trailed the later of its due time and
/// the previous reply: the generator's own delay, not the server's.
Lane open_loop(const std::string& socket, Traffic& traffic, double rate,
               std::size_t total, std::size_t connections) {
  std::vector<Lane> lanes(connections);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const auto client = connect(socket);
      Clock::time_point previous_done = start;
      for (std::size_t i = c; i < total; i += connections) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        lanes[c].late.add(
            ms_between(std::max(due, previous_done), Clock::now()));
        lanes[c].run(traffic, client.get(), i, due);
        previous_done = Clock::now();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return Lane::merged(lanes);
}

/// Closed loop: each lane sends its next request as soon as the previous
/// reply arrives, until `seconds` have passed.
Lane closed_loop(const std::string& socket, Traffic& traffic,
                 std::size_t first_request, double seconds,
                 std::size_t connections) {
  std::vector<Lane> lanes(connections);
  std::atomic<std::size_t> next{first_request};
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const auto client = connect(socket);
      while (Clock::now() < end) {
        lanes[c].run(traffic, client.get(), next.fetch_add(1), Clock::now());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return Lane::merged(lanes);
}

const StatsSnapshot::HistogramValue* find_histogram(
    const StatsSnapshot& snapshot, const std::string& name) {
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == name) return &histogram;
  }
  return nullptr;
}

double histogram_q(const StatsSnapshot& snapshot, const std::string& name,
                   double q) {
  const auto* histogram = find_histogram(snapshot, name);
  return histogram == nullptr ? 0.0 : histogram_quantile(*histogram, q);
}

double histogram_mean(const StatsSnapshot& snapshot, const std::string& name) {
  const auto* histogram = find_histogram(snapshot, name);
  return histogram == nullptr || histogram->count == 0
             ? 0.0
             : static_cast<double>(histogram->sum) /
                   static_cast<double>(histogram->count);
}

double counter(const StatsSnapshot& snapshot, const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return static_cast<double>(value);
  }
  return 0.0;
}

/// Median latency of `count` back-to-back reads on one connection.
double read_burst_ms(const std::string& socket, std::size_t count) {
  serve::ServeClient client = serve::ServeClient::connect_unix(socket);
  Samples samples;
  for (std::size_t i = 0; i < count; ++i) {
    Timer timer;
    client.infer(session_name(i % kSessions));
    samples.add(timer.milliseconds());
  }
  return samples.median();
}

}  // namespace

void run_serve_mixed(const RunConfig& config, Report& report) {
  const Sizes& sizes = config.sizes;
  const std::string dir = ".perfbench";
  std::filesystem::create_directories(dir);

  // Set-up, three times: train the model, save it, start the daemon,
  // load and warm both sessions. The previous daemon is stopped first so
  // set-ups never overlap.
  Daemon daemon;
  Samples setup_times;
  for (std::size_t attempt = 0; attempt < 3; ++attempt) {
    const GcnModel previous_model = daemon.model;
    const std::vector<std::string> previous_texts = daemon.texts;
    daemon = Daemon{};
    set_stats_enabled(false);
    Timer timer;
    daemon = start_daemon(config, dir, attempt);
    setup_times.add(timer.seconds());
    if (attempt > 0) {
      report.check(previous_texts == daemon.texts &&
                       same_params(previous_model, daemon.model),
                   "repeated set-up gives identical inputs");
    }
  }
  report.metric("setup_s", setup_times.median(), "s");

  // Unedited sessions answer bit-stable logits equal to a local
  // single-shot inference of the same text.
  std::vector<Netlist> canonical;
  {
    serve::ServeClient control = serve::ServeClient::connect_unix(daemon.socket);
    for (std::size_t s = 0; s < kSessions; ++s) {
      canonical.push_back(parse_design(daemon.texts[s]));
      const Matrix a = control.infer(session_name(s));
      const Matrix b = control.infer(session_name(s));
      report.check(bitwise_equal(a, b), "unedited session logits are bit-stable");
      report.check(
          bitwise_equal(a, daemon.model.infer(inference_tensors(canonical[s]))),
          "served logits equal GcnModel::infer on the same text");
    }
  }
  std::vector<std::vector<NodeId>> targets;
  std::vector<std::size_t> initial_nodes;
  for (const Netlist& netlist : canonical) {
    targets.push_back(spread_targets(netlist));
    initial_nodes.push_back(netlist.size());
  }
  Traffic traffic(targets);

  const std::size_t connections =
      std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  const double phase_a_s = config.seconds * 2.0 / 3.0;
  const double phase_b_s = config.seconds - phase_a_s;
  const std::size_t total_a =
      static_cast<std::size_t>(sizes.serve_rate * phase_a_s);

  if (config.traced()) {
    const double untraced_read_ms = read_burst_ms(daemon.socket, 200);
    trace_start();
    report.metric("trace.overhead_frac",
                  read_burst_ms(daemon.socket, 200) / untraced_read_ms - 1.0,
                  "ratio");
  }

  StatsRegistry& registry = StatsRegistry::instance();
  const StatsSnapshot before_a = registry.snapshot();
  const Lane a =
      open_loop(daemon.socket, traffic, sizes.serve_rate, total_a, connections);
  const StatsSnapshot after_a = registry.snapshot();
  Timer phase_b_timer;
  const Lane b =
      closed_loop(daemon.socket, traffic, total_a, phase_b_s, connections);
  const double elapsed_b = phase_b_timer.seconds();
  const StatsSnapshot after_b = registry.snapshot();
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // The probes below time library kernels as the CLI runs them, without
  // the daemon's per-kernel stats.
  set_stats_enabled(false);

  report.attempted(a.done + a.failed + b.done + b.failed);
  report.failed(a.failed + b.failed);
  const double read_p50 = a.reads.median();
  report.metric("latency_ms", read_p50, "ms");
  std::cerr << "perf_suite: serve phase A " << a.reads.size() << " reads p50 "
            << read_p50 << " ms p99 " << a.reads.quantile(0.99) << " ms, "
            << a.writes.size()
            << " writes p90 " << a.writes.quantile(0.9)
            << " ms, generator late p99 " << a.late.quantile(0.99)
            << " ms; phase B " << b.done << " requests in " << elapsed_b
            << " s\n";

  // Final state: each session's logits equal a local replay of the edits
  // it applied, in the order it applied them.
  {
    serve::ServeClient control = serve::ServeClient::connect_unix(daemon.socket);
    std::size_t edits = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const std::vector<Edit> applied = traffic.edits(s);
      edits += applied.size();
      std::vector<NodeId> order;
      bool contiguous = true;
      for (std::size_t i = 0; i < applied.size(); ++i) {
        order.push_back(applied[i].target);
        contiguous = contiguous && applied[i].op == initial_nodes[s] + i;
      }
      report.check(contiguous, "served OP ids are the session's next node ids");
      const Matrix served = control.infer(session_name(s));
      const Matrix replayed =
          edit_replay(daemon.model, canonical[s], order, sizes.replay_batch,
                      config.traced() && s == 0, report);
      report.check(bitwise_equal(served, replayed),
                   "edited session logits equal GcnModel::infer on the "
                   "locally replayed edits");
    }

    if (config.traced()) {
      const StatsSnapshot window_a = snapshot_delta(before_a, after_a);
      const StatsSnapshot window_b = snapshot_delta(after_a, after_b);
      const StatsSnapshot window_ab = snapshot_delta(before_a, after_b);
      const double read_p99 = a.reads.quantile(0.99);
      report.metric("serve.read_p99_over_p50", read_p99 / read_p50, "ratio");
      report.metric("serve.edit_p90_over_read_p50",
                    a.writes.quantile(0.9) / read_p50, "ratio");
      report.metric("serve.capacity_rps",
                    static_cast<double>(b.done) / elapsed_b, "1/s");
      report.metric(
          "serve.queue_wait_p99_share",
          histogram_q(window_a, "serve.queue_wait_us", 0.99) / (read_p99 * 1e3),
          "ratio");
      report.metric(
          "serve.request_p50_share",
          histogram_q(window_a, "serve.request_ns", 0.5) / (read_p50 * 1e6),
          "ratio");
      report.metric("serve.batch_size_mean",
                    histogram_mean(window_b, "serve.batch_size"), "count");
      report.metric("serve.dirty_rows_per_edit",
                    edits == 0 ? 0.0
                               : counter(window_ab, "serve.dirty_rows") /
                                     static_cast<double>(edits),
                    "count");
      report.metric("serve.overload_rejected",
                    counter(window_ab, "serve.overload_rejected"), "count");
      report.metric("serve.generator_late_frac",
                    a.late.quantile(0.99) / read_p50, "ratio");
      host_probes(report);
      forward_probe(daemon.model, inference_tensors(canonical[0]), true,
                    report);
    } else {
      forward_probe(daemon.model, inference_tensors(canonical[0]), false,
                    report);
    }
  }
  daemon.server.reset();
  std::error_code ignored;
  std::filesystem::remove(model_path(dir), ignored);
}

}  // namespace gcnt::perfbench
