#pragma once
// Blocking client for the `gcnt serve` protocol, used by bench/loadgen,
// the integration tests, and scripting against a running daemon.
//
// One client drives one connection with one outstanding request at a
// time (the daemon batches across connections, not within one). Error
// responses are re-thrown as the gcnt::Error the server raised, so a
// caller sees the same taxonomy whether it links the engine directly or
// talks to a daemon.
//
// Resilience (opt-in via ClientOptions; the defaults are the blocking
// PR 6 behavior):
//   - connect/recv/send timeouts surface as typed `io` errors instead of
//     hanging forever on a dead or wedged daemon.
//   - a RetryPolicy makes call() retry TRANSPORT failures (connect
//     refused, torn reply, timeout) with exponential backoff and full
//     jitter — but only for idempotent opcodes (ping/infer/stats/
//     metrics) and never for errors the server actually answered with.
//   - deadline_ms stamps every request with a v2 wire deadline, so an
//     overloaded daemon sheds it instead of serving a dead request.

#include <cstdint>
#include <string>

#include "common/error.h"
#include "netlist/netlist.h"
#include "serve/protocol.h"
#include "tensor/matrix.h"

namespace gcnt::serve {

/// Retry policy for transport failures on idempotent calls.
/// max_attempts == 1 disables retries entirely.
struct RetryPolicy {
  std::size_t max_attempts = 1;       ///< total tries (first + retries)
  std::uint64_t base_backoff_ms = 10;  ///< first-retry backoff cap
  std::uint64_t max_backoff_ms = 500;  ///< per-retry backoff cap
  /// Total sleep budget across one call()'s retries; when the next
  /// backoff would blow it, the last transport error is rethrown.
  std::uint64_t budget_ms = 2000;
  std::uint64_t jitter_seed = 1;  ///< full-jitter PRNG seed (determinism)
};

struct ClientOptions {
  std::uint64_t connect_timeout_ms = 0;  ///< 0 = blocking connect
  std::uint64_t recv_timeout_ms = 0;     ///< SO_RCVTIMEO (0 = none)
  std::uint64_t send_timeout_ms = 0;     ///< SO_SNDTIMEO (0 = none)
  /// When nonzero, every request carries this wire deadline (v2 frames);
  /// the server sheds it with a typed `deadline` error once expired.
  std::uint32_t deadline_ms = 0;
  RetryPolicy retry;
};

class ServeClient {
 public:
  /// Connects to a Unix domain socket. Throws Error{kIo} on failure or
  /// when options.connect_timeout_ms expires first.
  static ServeClient connect_unix(const std::string& path,
                                  const ClientOptions& options = {});

  /// Connects to 127.0.0.1:<port>. Throws Error{kIo} on failure.
  static ServeClient connect_tcp(int port,
                                 const ClientOptions& options = {});

  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  /// Sends one request and blocks for its response. Returns the response
  /// payload after the status byte. An error response is re-thrown as
  /// Error{<its wire status>, <its message>}; transport failures throw
  /// Error{kIo} (after exhausting the retry policy for idempotent ops);
  /// a response that does not match the request throws Error{kCorrupt}.
  std::string call(Op op, const std::string& body = {});

  /// Daemon health, parsed from the v2 ping reply. A v1 daemon answers
  /// with an empty body; every field stays zero/false then.
  struct Health {
    std::uint32_t queue_depth = 0;
    std::uint32_t workers = 0;
    std::uint64_t model_generation = 0;
    bool brownout = false;
    std::uint32_t sessions = 0;
  };
  Health ping();

  struct SessionInfo {
    std::uint32_t nodes = 0;
    std::uint32_t edges = 0;
  };
  /// Loads a netlist resident in the daemon from .bench text carried
  /// inline in the request.
  SessionInfo load_session_inline(const std::string& name,
                                  const std::string& bench_text,
                                  bool standardize);

  /// Whole-graph logits (node order, N x num_classes).
  Matrix infer(const std::string& session);

  struct ObserveResult {
    NodeId op = kInvalidNode;       ///< new observation-point node
    std::uint32_t node_count = 0;   ///< session size after the insert
  };
  ObserveResult append_observe(const std::string& session, NodeId target);

  struct ControlResult {
    NodeId control = kInvalidNode;
    NodeId gate = kInvalidNode;
    NodeId inverter = kInvalidNode;  ///< kInvalidNode for OR-type points
  };
  ControlResult append_control(const std::string& session, NodeId target,
                               bool drive_to_one);

  /// The daemon's stats registry as JSON.
  std::string stats_json();

  struct MetricsResult {
    std::string exposition;  ///< Prometheus-style text exposition
    std::string slow_json;   ///< slow-request ring ("" unless requested)
  };
  /// Scrapes the daemon's metrics (kMetrics). Counter deltas and
  /// windowed quantiles are relative to the previous scrape by anyone.
  MetricsResult metrics(bool include_slow = false);

  /// Hot-reloads the model (empty path = re-read the current artifact).
  /// Returns the new model generation.
  std::uint64_t reload(const std::string& path = {});

  void close_session(const std::string& name);

  /// Asks the daemon to shut down cleanly (acknowledged before it does).
  void shutdown();

  /// True when the last successful call() was answered from brownout
  /// (stale cached logits; kFrameFlagBrownout on the response).
  bool last_brownout() const noexcept { return last_brownout_; }

  /// The connection's socket — lets tests write malformed bytes and
  /// read raw replies.
  int fd() const noexcept { return fd_; }

 private:
  explicit ServeClient(int fd) : fd_(fd) {}
  void close() noexcept;
  /// One request/response exchange, no retries. Sets *transport while
  /// the failure could be transport-level (send/recv); clears it once a
  /// matching response header decoded (server errors are not retryable).
  std::string call_once(Op op, const std::string& body, bool* transport);
  /// Re-establishes the stored endpoint (unix path / tcp port).
  void reconnect();

  int fd_ = -1;
  std::uint32_t next_request_id_ = 1;
  ClientOptions options_;
  bool last_brownout_ = false;
  // Reconnect endpoint: exactly one is set.
  std::string unix_path_;
  int tcp_port_ = -1;
};

}  // namespace gcnt::serve
