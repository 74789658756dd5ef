// Load generator for the `gcnt serve` daemon: replays a mixed
// infer / append-observe workload against a running server at a target
// QPS from several client threads, and reports p50/p99 latency and
// sustained throughput as bench JSON (schema v4, "serve.*" keys) for
// tools/bench_gate.
//
//   loadgen (--socket path | --port P)
//           [--sessions N] [--gates G] [--seed S]
//           [--requests N] [--threads T] [--qps Q]
//           [--edit-every K] [--reload] [--shutdown]
//           [--expect-overload] [--json out.json]
//           [--deadline-ms MS] [--retries N] [--backoff-ms MS]
//           [--connect-timeout-ms MS] [--recv-timeout-ms MS] [--chaos]
//
// Default mode loads --sessions circuits as resident sessions, then
// issues --requests total requests round-robin across --threads
// connections: every --edit-every'th request on a session inserts an
// observation point (the incremental path), the rest are whole-graph
// infers. --qps 0 runs unpaced (throughput mode). --reload issues one
// model hot-reload at the halfway point — latency of requests riding
// across the swap is included in the percentiles, which is the point.
// After the run a kMetrics scrape reports the server-side queue-wait
// p99 (emitted as the serve.queue_wait_p99_us JSON key).
//
// --expect-overload instead runs the admission-control probe: on one
// connection it pipelines two slow session loads (the first occupies a
// worker, the second the queue) followed by a ping burst, and requires
// at least one typed `resource` rejection. Exit code 1 when the daemon
// misbehaves in either mode (unexpected error kind, no rejection in the
// overload probe, reload generation not advancing).
//
// Resilience: a client whose connection dies mid-stream (ECONNRESET, a
// torn reply) counts the request as an error outcome and reconnects —
// it never kills the process, and the JSON stays valid. --retries N
// arms the client-side retry policy (idempotent ops only). --chaos runs
// the fault-tolerance contract instead of the performance one: typed
// errors are expected (the daemon is being fault-injected via
// GCNT_FAULT_INJECT), exit code 1 only when the daemon stops answering,
// a session leaks, no request succeeds at all, or — with --edit-every 0
// — two successful infers of the same session disagree bit-for-bit.
// Pure-infer runs print `loadgen: logits fnv 0x********` (XOR of
// per-session FNV-1a checksums) so CI can diff a faulted run against a
// clean one.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/timer.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "serve/client.h"

namespace {

using namespace gcnt;

struct Options {
  std::string socket;
  int port = -1;
  std::size_t sessions = 2;
  std::size_t gates = 2000;
  std::uint64_t seed = 9;
  std::size_t requests = 200;
  std::size_t threads = 2;
  double qps = 0.0;  // 0 = unpaced
  std::size_t edit_every = 16;
  bool reload = false;
  bool do_shutdown = false;
  bool expect_overload = false;
  bool chaos = false;
  std::uint32_t deadline_ms = 0;
  std::size_t retries = 1;  ///< total attempts per call (1 = no retry)
  std::uint64_t backoff_ms = 10;
  std::uint64_t connect_timeout_ms = 2000;
  std::uint64_t recv_timeout_ms = 0;
  std::string json;
};

Options parse(int argc, char** argv) {
  Options options;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw Error(ErrorKind::kUsage, "unexpected argument " + arg);
    }
    arg = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv[arg] = argv[++i];
    } else {
      kv[arg] = "1";
    }
  }
  const auto get = [&](const char* key, const std::string& fallback) {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  };
  options.socket = get("socket", "");
  options.port = std::stoi(get("port", "-1"));
  options.sessions = std::stoull(get("sessions", "2"));
  options.gates = std::stoull(get("gates", "2000"));
  options.seed = std::stoull(get("seed", "9"));
  options.requests = std::stoull(get("requests", "200"));
  options.threads = std::max<std::size_t>(1, std::stoull(get("threads", "2")));
  options.qps = std::stod(get("qps", "0"));
  options.edit_every = std::stoull(get("edit-every", "16"));
  options.reload = kv.count("reload") > 0;
  options.do_shutdown = kv.count("shutdown") > 0;
  options.expect_overload = kv.count("expect-overload") > 0;
  options.chaos = kv.count("chaos") > 0;
  options.deadline_ms =
      static_cast<std::uint32_t>(std::stoull(get("deadline-ms", "0")));
  options.retries =
      std::max<std::size_t>(1, std::stoull(get("retries", "1")));
  options.backoff_ms = std::stoull(get("backoff-ms", "10"));
  options.connect_timeout_ms =
      std::stoull(get("connect-timeout-ms", "2000"));
  options.recv_timeout_ms = std::stoull(get("recv-timeout-ms", "0"));
  options.json = get("json", "");
  if (options.socket.empty() && options.port < 0) {
    throw Error(ErrorKind::kUsage, "loadgen needs --socket or --port");
  }
  return options;
}

serve::ClientOptions client_options(const Options& options) {
  serve::ClientOptions opts;
  opts.connect_timeout_ms = options.connect_timeout_ms;
  opts.recv_timeout_ms = options.recv_timeout_ms;
  opts.send_timeout_ms = options.recv_timeout_ms;
  opts.deadline_ms = options.deadline_ms;
  opts.retry.max_attempts = options.retries;
  opts.retry.base_backoff_ms = options.backoff_ms;
  return opts;
}

serve::ServeClient connect(const Options& options) {
  const serve::ClientOptions opts = client_options(options);
  return options.socket.empty()
             ? serve::ServeClient::connect_tcp(options.port, opts)
             : serve::ServeClient::connect_unix(options.socket, opts);
}

/// Control-plane connection (session setup, cleanup, metrics scrape):
/// same timeouts and retries as the workload, but never a deadline —
/// --deadline-ms shapes the measured request stream, and shedding a
/// session load or a close would wreck the run instead of measuring it.
serve::ServeClient control_connect(const Options& options) {
  serve::ClientOptions opts = client_options(options);
  opts.deadline_ms = 0;
  return options.socket.empty()
             ? serve::ServeClient::connect_tcp(options.port, opts)
             : serve::ServeClient::connect_unix(options.socket, opts);
}

/// Valid observation-point targets in the canonical (round-tripped)
/// netlist, spread across the graph so the edits touch distinct cones.
std::vector<NodeId> observe_targets(const Netlist& netlist,
                                    std::size_t count) {
  std::vector<NodeId> targets;
  const std::size_t step =
      std::max<std::size_t>(1, netlist.size() / (count * 4 + 1));
  for (NodeId v = 0; v < netlist.size() && targets.size() < count;
       v += static_cast<NodeId>(step)) {
    const CellType t = netlist.type(v);
    if (is_sink(t) || t == CellType::kInput) continue;
    targets.push_back(v);
  }
  return targets;
}

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

int run_overload_probe(const Options& options) {
  // Two pipelined loads occupy the worker and (with --queue 1 on the
  // server) the queue; the ping burst behind them must see typed
  // `resource` rejections from admission control.
  GeneratorConfig config;
  config.seed = options.seed;
  config.target_gates = std::max<std::size_t>(options.gates, 40000);
  const std::string big = write_bench_string(generate_circuit(config));

  serve::ServeClient client = connect(options);
  const auto send_load = [&](const std::string& name, std::uint32_t id) {
    serve::Frame frame;
    frame.opcode = static_cast<std::uint8_t>(serve::Op::kLoadSession);
    frame.request_id = id;
    serve::WireWriter writer(frame.body);
    writer.str(name);
    writer.u8(1);  // inline .bench text
    writer.str(big);
    writer.u8(0);
    serve::write_frame(client.fd(), frame);
  };
  send_load("overload1", 1);
  send_load("overload2", 2);
  const std::size_t pings = std::min<std::size_t>(options.requests, 64);
  for (std::size_t i = 0; i < pings; ++i) {
    serve::Frame frame;
    frame.opcode = static_cast<std::uint8_t>(serve::Op::kPing);
    frame.request_id = static_cast<std::uint32_t>(100 + i);
    serve::write_frame(client.fd(), frame);
  }

  std::size_t ok = 0, rejected = 0;
  bool first_load_ok = false;
  for (std::size_t i = 0; i < pings + 2; ++i) {
    serve::Frame response;
    ErrorKind kind = ErrorKind::kInternal;
    std::string message;
    if (serve::read_frame(client.fd(), response, kind, message) !=
        serve::ReadStatus::kFrame) {
      std::cerr << "loadgen: transport failure mid-probe: " << message
                << "\n";
      return 1;
    }
    serve::WireReader reader(response.body);
    const std::uint8_t status = reader.u8();
    if (status == serve::kStatusOk) {
      ++ok;
      if (response.request_id == 1) first_load_ok = true;
    } else if (serve::error_kind_for_status(status) ==
               ErrorKind::kResource) {
      ++rejected;
    } else {
      std::cerr << "loadgen: unexpected error reply: " << reader.str()
                << "\n";
      return 1;
    }
  }
  client.close_session("overload1");
  try {
    client.close_session("overload2");  // may have been rejected
  } catch (const Error&) {
  }
  std::cout << "overload probe: " << ok << " ok, " << rejected
            << " rejected (queue-full resource errors)\n";
  if (!first_load_ok) {
    std::cerr << "loadgen: first load should have been admitted\n";
    return 1;
  }
  if (rejected == 0) {
    std::cerr << "loadgen: expected at least one overload rejection\n";
    return 1;
  }
  return 0;
}

struct SessionPlan {
  std::string name;
  std::vector<NodeId> targets;       ///< valid OP targets, used once each
  std::atomic<std::size_t> cursor{0};
  // Bit-identity check (pure-infer runs): the first successful infer
  // pins the session's logits checksum; later infers must match it.
  std::mutex fnv_mutex;
  bool have_fnv = false;
  std::uint32_t fnv = 0;
};

/// FNV-1a over the raw logits bytes, row by row.
std::uint32_t fnv1a_logits(const Matrix& logits) {
  std::uint32_t hash = 2166136261u;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(logits.row(r));
    for (std::size_t i = 0; i < logits.cols() * sizeof(float); ++i) {
      hash = (hash ^ bytes[i]) * 16777619u;
    }
  }
  return hash;
}

int run_mixed(const Options& options) {
  // Prepare canonical circuits and load them as resident sessions.
  std::vector<std::unique_ptr<SessionPlan>> plans;
  {
    serve::ServeClient setup = control_connect(options);
    for (std::size_t s = 0; s < options.sessions; ++s) {
      GeneratorConfig config;
      config.seed = options.seed + s;
      config.target_gates = options.gates;
      const std::string text =
          write_bench_string(generate_circuit(config));
      const Netlist canonical = read_bench_string(text);
      auto plan = std::make_unique<SessionPlan>();
      plan->name = "lg" + std::to_string(s);
      plan->targets = observe_targets(canonical, 256);
      setup.load_session_inline(plan->name, text, /*standardize=*/false);
      plans.push_back(std::move(plan));
    }
  }

  std::atomic<std::size_t> ticket{0};
  std::atomic<std::size_t> ok{0}, edits{0}, rejected{0}, errors{0};
  std::atomic<std::size_t> shed{0}, brownouts{0}, io_errors{0};
  std::atomic<bool> bitfail{false};
  std::atomic<std::uint64_t> reload_generation{0};
  std::vector<std::vector<double>> latencies(options.threads);
  const std::size_t reload_ticket =
      options.reload ? options.requests / 2 : options.requests + 1;
  // Pure-infer runs pin the logits bits: no edits means every reply for
  // a session must be bit-identical (brownout included — stale == fresh
  // when nothing was edited).
  const bool check_bits = options.edit_every == 0;

  Timer wall;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < options.threads; ++t) {
    threads.emplace_back([&, t] {
      // The client lives outside the request try/catch: a connection
      // that dies mid-stream (ECONNRESET, torn reply) is an error
      // OUTCOME, not a process abort — drop it and reconnect lazily.
      std::unique_ptr<serve::ServeClient> client;
      std::vector<double>& mine = latencies[t];
      for (;;) {
        const std::size_t n = ticket.fetch_add(1);
        if (n >= options.requests) return;
        if (options.qps > 0.0) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(n) / options.qps)));
        }
        SessionPlan& plan = *plans[n % plans.size()];
        const bool edit =
            options.edit_every > 0 && n % options.edit_every == 1;
        Timer latency;
        try {
          if (!client) {
            client = std::make_unique<serve::ServeClient>(connect(options));
          }
          if (n == reload_ticket) {
            reload_generation.store(client->reload());
          } else if (edit) {
            const std::size_t i = plan.cursor.fetch_add(1);
            if (i < plan.targets.size()) {
              client->append_observe(plan.name, plan.targets[i]);
              edits.fetch_add(1);
            } else {
              client->infer(plan.name);  // targets exhausted
            }
          } else {
            const Matrix logits = client->infer(plan.name);
            if (logits.rows() == 0) {
              errors.fetch_add(1);
              continue;
            }
            if (client->last_brownout()) brownouts.fetch_add(1);
            if (check_bits) {
              const std::uint32_t hash = fnv1a_logits(logits);
              std::lock_guard<std::mutex> lock(plan.fnv_mutex);
              if (!plan.have_fnv) {
                plan.have_fnv = true;
                plan.fnv = hash;
              } else if (plan.fnv != hash) {
                bitfail.store(true);
                std::cerr << "loadgen: session " << plan.name
                          << " logits changed bits across requests\n";
              }
            }
          }
          mine.push_back(latency.milliseconds());
          ok.fetch_add(1);
        } catch (const Error& e) {
          if (e.kind() == ErrorKind::kResource) {
            rejected.fetch_add(1);
          } else if (e.kind() == ErrorKind::kDeadline) {
            shed.fetch_add(1);
          } else {
            errors.fetch_add(1);
            if (e.kind() == ErrorKind::kIo ||
                e.kind() == ErrorKind::kCorrupt) {
              // Transport is suspect: reconnect before the next ticket.
              io_errors.fetch_add(1);
              client.reset();
            }
            if (!options.chaos) {
              std::cerr << "loadgen: request " << n << " failed ["
                        << error_kind_name(e.kind()) << "]: " << e.what()
                        << "\n";
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed = wall.seconds();

  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  const double p50 = percentile(all, 0.50);
  const double p99 = percentile(all, 0.99);
  const double qps =
      elapsed > 0.0 ? static_cast<double>(ok.load()) / elapsed : 0.0;

  std::cout << "loadgen: " << ok.load() << "/" << options.requests
            << " ok (" << edits.load() << " edits, " << rejected.load()
            << " overload-rejected, " << shed.load() << " deadline-shed, "
            << brownouts.load() << " brownout, " << errors.load()
            << " errors) in " << elapsed << "s\n"
            << "  p50 " << p50 << " ms, p99 " << p99 << " ms, sustained "
            << qps << " qps\n";
  if (options.reload) {
    std::cout << "  hot reload -> generation " << reload_generation.load()
              << "\n";
  }
  if (check_bits) {
    std::uint32_t combined = 0;
    for (const auto& plan : plans) combined ^= plan->fnv;
    std::cout << "loadgen: logits fnv 0x" << std::hex << std::setw(8)
              << std::setfill('0') << combined << std::dec
              << std::setfill(' ') << "\n";
  }

  int rc = 0;
  if (options.chaos) {
    // Chaos contract: faults make individual requests fail with typed
    // errors — that is the daemon WORKING. Fail only on the survivable
    // invariants: some request must succeed, and bits must never drift.
    if (ok.load() == 0) {
      std::cerr << "loadgen: chaos run had zero successful requests\n";
      rc = 1;
    }
  } else if (errors.load() != 0) {
    rc = 1;
  }
  if (bitfail.load()) {
    std::cerr << "loadgen: logits were not bit-stable\n";
    rc = 1;
  }
  if (options.reload && reload_generation.load() < 2) {
    std::cerr << "loadgen: hot reload did not advance the generation\n";
    rc = 1;
  }

  if (options.chaos) {
    // Leak check: close every session so CI can assert the daemon ends
    // with zero residents. Faults are still armed, so each close retries
    // on fresh connections; a torn reply can hide a close that landed,
    // which the later `unknown session` answer confirms. A daemon that
    // cannot answer any of this is dead — exactly what the chaos
    // harness exists to catch.
    for (const auto& plan : plans) {
      bool closed = false;
      for (int attempt = 0; attempt < 8 && !closed; ++attempt) {
        try {
          serve::ServeClient cleaner = control_connect(options);
          cleaner.close_session(plan->name);
          closed = true;
        } catch (const Error& e) {
          if (e.kind() == ErrorKind::kUsage) closed = true;  // already gone
        }
      }
      if (!closed) {
        std::cerr << "loadgen: could not close session " << plan->name
                  << " after chaos run\n";
        rc = 1;
      }
    }
  }

  // Server-side queue-wait p99 from a kMetrics scrape: the client-side
  // percentiles above include the network and decode, this one isolates
  // time spent waiting in the daemon's bounded queue.
  double queue_wait_p99_us = 0.0;
  bool scraped = false;
  // In chaos mode the scrape doubles as the liveness check, and faults
  // are still armed — retry it on fresh connections before declaring
  // the daemon dead.
  const int scrape_attempts = options.chaos ? 8 : 1;
  for (int attempt = 0; attempt < scrape_attempts && !scraped; ++attempt) {
    try {
      serve::ServeClient scraper = control_connect(options);
      const serve::ServeClient::MetricsResult metrics = scraper.metrics();
      std::map<std::string, double> series;
      std::string parse_error;
      if (parse_prometheus_text(metrics.exposition, series, parse_error)) {
        const auto it =
            series.find("gcnt_serve_queue_wait_us{quantile=\"0.99\"}");
        if (it != series.end()) queue_wait_p99_us = it->second;
        std::cout << "  server queue-wait p99 " << queue_wait_p99_us
                  << " us (" << series.size() << " metric series)\n";
        scraped = true;
      } else {
        std::cerr << "loadgen: bad metrics exposition: " << parse_error
                  << "\n";
      }
    } catch (const Error& e) {
      if (attempt + 1 == scrape_attempts) {
        std::cerr << "loadgen: metrics scrape failed: " << e.what() << "\n";
      }
    }
  }
  if (!scraped) rc = 1;

  if (options.do_shutdown) {
    serve::ServeClient finisher = connect(options);
    finisher.shutdown();
  }

  if (!options.json.empty()) {
    // Chaos runs report the resilience contract, not throughput — their
    // keys never collide with the perf baseline's serve.qps/p99 gates.
    const bool written =
        options.chaos
            ? bench::write_bench_json(
                  options.json,
                  {{"serve.survived", rc == 0 ? 1.0 : 0.0},
                   {"serve.chaos_requests",
                    static_cast<double>(options.requests)},
                   {"serve.chaos_ok", static_cast<double>(ok.load())},
                   {"serve.chaos_faulted",
                    static_cast<double>(errors.load() + shed.load() +
                                        rejected.load())},
                   {"serve.chaos_bit_identical",
                    bitfail.load() ? 0.0 : 1.0}})
            : bench::write_bench_json(
                  options.json,
                  {{"serve.qps", qps},
                   {"serve.p50_ms", p50},
                   {"serve.p99_ms", p99},
                   {"serve.requests", static_cast<double>(options.requests)},
                   {"serve.edits", static_cast<double>(edits.load())},
                   {"serve.overload_rejected",
                    static_cast<double>(rejected.load())},
                   {"serve.errors", static_cast<double>(errors.load())},
                   {"serve.deadline_shed", static_cast<double>(shed.load())},
                   {"serve.brownout",
                    static_cast<double>(brownouts.load())},
                   {"serve.queue_wait_p99_us", queue_wait_p99_us}});
    if (!written) {
      std::cerr << "loadgen: cannot write " << options.json << "\n";
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    return options.expect_overload ? run_overload_probe(options)
                                   : run_mixed(options);
  } catch (const Error& e) {
    std::cerr << "loadgen: [" << error_kind_name(e.kind()) << "] "
              << e.what() << "\n";
    return exit_code_for(e.kind());
  } catch (const std::exception& e) {
    std::cerr << "loadgen: " << e.what() << "\n";
    return 1;
  }
}
