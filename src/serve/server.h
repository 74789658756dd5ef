#pragma once
// The `gcnt serve` daemon: loads model artifacts once, keeps netlists
// resident as named sessions, and serves framed requests over a Unix or
// TCP socket.
//
// Architecture:
//
//   acceptor thread ── accept() ──> one reader thread per connection
//        (the acceptor joins a reader once its connection has ended)
//        reader: read_frame -> admission control -> bounded queue
//   worker pool (N threads, each with a reusable ForwardWorkspace)
//        worker: pop -> batch same-session infers -> dispatch -> reply
//
// Admission control: the request queue is bounded; when it is full the
// reader replies immediately with a typed `resource` error ("server
// overloaded") instead of queueing — callers see the same ErrorKind
// taxonomy (and therefore the same exit codes) as the rest of the
// system. Batching: a worker that pops an infer request also claims
// every queued infer for the same session (up to batch_limit) and
// answers them all from one forward pass / cache hit.
//
// Every reply to a decoded request, from the reader or a worker, goes
// through reply(): one send, never retried, and exactly one access-log
// line, whose outcome is `io` when the send failed.
//
// Shutdown is always clean: a kShutdown request or request_stop() (the
// CLI's signal handler) stop the acceptor, drain the queue, answer
// everything in flight, and join all threads.
//
// Resilience (knobs in ServeOptions: 0 turns one off, and all but
// brownout are on by default):
//   - deadlines: v2 requests may carry a deadline; requests that expire
//     in the queue or inside a claimed batch are shed with a typed
//     `deadline` error (serve.shed_deadline / serve.shed_batch).
//   - connection hygiene: per-connection receive timeouts reap idle
//     peers and kill mid-frame stalls; a connection cap rejects excess
//     peers with a typed `resource` error before a reader is spawned.
//   - watchdog: a monitor thread flags requests stuck past a budget
//     (serve.watchdog_stuck), and can abort the stuck connection or
//     quarantine the session (further requests get typed `resource`
//     errors) instead of just logging.
//   - brownout: past a queue-depth threshold, infer requests are
//     answered from the session's cached (possibly stale) logits
//     instead of running (re-)propagation — flagged on the wire
//     (kFrameFlagBrownout) and in the access log.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "gcn/workspace.h"
#include "serve/access_log.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace gcnt::serve {

/// What the watchdog does to a request stuck past its budget (beyond
/// logging rid/op/session and bumping serve.watchdog_stuck, which it
/// always does).
enum class WatchdogAction {
  kLog,         ///< log only
  kAbort,       ///< close the stuck request's connection
  kQuarantine,  ///< refuse further requests on the stuck session
};

struct ServeOptions {
  std::string model_path;  ///< required: initial model artifact

  // Exactly one transport:
  std::string unix_socket;  ///< bind a Unix domain socket at this path
  int tcp_port = -1;        ///< bind 127.0.0.1:<port> (0 = ephemeral)

  std::size_t workers = 2;       ///< request worker threads
  std::size_t queue_limit = 64;  ///< admission bound on queued requests
  std::size_t batch_limit = 16;  ///< max same-session infers per batch
  std::size_t max_sessions = 64;

  /// JSON-lines access log path ("" = disabled; see serve/access_log.h).
  std::string access_log;
  /// Slow-request ring capacity (N worst by service time, kMetrics dump).
  std::size_t slow_ring = 16;

  // --- resilience (0 = feature disabled) ---

  /// Mid-frame read stall budget per connection, ms. A peer that goes
  /// silent inside a frame for this long is dropped (slowloris guard).
  std::uint64_t read_timeout_ms = 30000;
  /// Reap connections idle (no frame started) this long, ms. When
  /// read_timeout_ms is 0 the idle budget is one receive-timeout tick.
  std::uint64_t idle_timeout_ms = 300000;
  /// Concurrent connection cap; excess peers get one typed `resource`
  /// error frame and are closed before a reader thread is spawned.
  std::size_t max_connections = 256;
  /// Watchdog: flag a request its worker has held longer than this, ms.
  std::uint64_t watchdog_budget_ms = 10000;
  WatchdogAction watchdog_action = WatchdogAction::kLog;
  /// Brownout: serve infer from cached logits when the queue depth at
  /// dequeue is at or above this threshold.
  std::size_t brownout_queue = 0;
};

class ServeServer {
 public:
  explicit ServeServer(ServeOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds the configured transport and starts the acceptor + workers.
  /// Throws Error{kUsage} on a bad configuration, Error{kIo} when the
  /// socket cannot be bound.
  void start();

  /// Blocks until shutdown completes (kShutdown request or
  /// request_stop()), then joins every thread.
  void wait();

  /// Requests shutdown from another thread or a signal handler (only
  /// sets an atomic flag; the acceptor notices within its poll tick).
  void request_stop() noexcept { stop_requested_.store(true); }

  /// Bound TCP port (after start(); useful with tcp_port = 0).
  int bound_tcp_port() const noexcept { return bound_tcp_port_; }

  std::size_t session_count() const;

 private:
  struct Connection {
    int fd = -1;  ///< written only by release(), under both mutexes
    std::mutex write_mutex;  ///< one frame on the wire at a time
    std::mutex fd_mutex;     ///< orders shutdown() before the final close
    std::atomic<bool> closed{false};
    /// Set by the reader as its last step; the acceptor then joins it.
    std::atomic<bool> reader_done{false};

    void send(const Frame& frame);
    /// Wakes the reader and fails every later send. It only shuts the
    /// socket down, and never waits for a send blocked in write(): the
    /// descriptor stays open until release(), so accept() cannot hand
    /// its number to a new peer while the reader may still read it.
    void close() noexcept;
    /// close(), then closes the descriptor. Called by the reader after
    /// its last read.
    void release() noexcept;
    ~Connection() { release(); }
  };

  /// Per-request context, threaded from the connection reader through
  /// the bounded queue into the worker (and, when sampled, into the
  /// request's trace span tree via the "rid" span arg).
  struct Request {
    std::shared_ptr<Connection> conn;
    Frame frame;
    std::string session;  ///< pre-parsed session name ("" when none)
    std::uint64_t rid = 0;         ///< server-wide request sequence
    std::uint64_t enqueue_ns = 0;  ///< trace-epoch admission timestamp
    std::size_t bytes_in = 0;      ///< request frame bytes on the wire
    bool sampled = false;  ///< records serve.* spans for this request
  };

  /// What one worker is doing right now, published for the watchdog.
  /// The worker writes busy/rid/start_ns with release stores; the
  /// watchdog reads them with acquires and takes name_mutex only for
  /// the session string and connection handle.
  struct InFlight {
    std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> rid{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint8_t> opcode{0};
    std::mutex name_mutex;
    std::string session;
    std::weak_ptr<Connection> conn;
    std::uint64_t reported_rid = ~0ull;  ///< watchdog-thread-only state
  };

  /// Same-session infers a worker claimed from the queue to answer with
  /// one forward pass; their queue wait ends at `claim_ns`.
  struct Batch {
    std::vector<Request> members;
    std::uint64_t claim_ns = 0;
  };

  /// One accepted connection and the thread that reads it.
  struct Reader {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };

  void acceptor_loop();
  /// Joins the readers that have finished and drops their connections,
  /// so a long-running daemon holds only its live connections' threads.
  void reap_readers();
  /// Shuts every connection down and joins every reader.
  void close_readers();
  void connection_loop(std::shared_ptr<Connection> conn);
  void worker_loop(std::size_t index);
  void watchdog_loop();
  /// Reads frames from `conn` until EOF/shutdown; enqueues requests.
  void pump_connection(const std::shared_ptr<Connection>& conn);
  /// Admission control; replies with a typed error when not admitted.
  void enqueue(Request request);
  void dispatch(const Request& request, ForwardWorkspace& ws,
                InFlight* slot);
  /// The one reply path for a decoded request: sends `response` once
  /// (never retried) and writes the request's one access-log line.
  /// Completes `record` with the request's identity, bytes_out, ts_us
  /// and, when `start_ns` is set, service_us; a failed send turns the
  /// outcome into `io`. Returns whether the send succeeded.
  bool reply(const Request& request, const Frame& response,
             AccessRecord& record, std::uint64_t start_ns = 0);
  /// Claims the same-session infers queued behind `request` into `batch`
  /// (answering deadline-expired ones itself) and returns the logits
  /// payload that answers them all. Fills `record`'s phase timings,
  /// batch size and brownout flag; throws like any handler.
  std::string handle_infer(const Request& request, ForwardWorkspace& ws,
                           AccessRecord& record, Batch& batch);
  /// Runs a non-infer request's handler and returns its reply payload.
  std::string handle(const Frame& frame);

  /// v2 ping body: queue depth, workers, model generation, brownout
  /// flag, session count. v1 requesters get an empty body, so old
  /// clients never see fields they cannot parse.
  std::string health_payload(std::uint8_t version);
  std::string handle_load_session(const Frame& frame);
  std::string handle_append_observe(const Frame& frame);
  std::string handle_append_control(const Frame& frame);
  std::string handle_stats();
  std::string handle_metrics(const Frame& frame);
  std::string handle_reload(const Frame& frame);
  std::string handle_close_session(const Frame& frame);

  /// Looks up a resident session. Returns nullptr when unknown; throws
  /// Error{kResource} when the watchdog has quarantined it.
  std::shared_ptr<ServeSession> find_session(const std::string& name);
  void begin_shutdown();
  /// Offers the record to the slow ring and writes its access-log line.
  void log_access(const AccessRecord& record);

 public:
  /// Access-log lines emitted so far (0 when the log is disabled).
  std::uint64_t access_log_lines() const noexcept;

 private:

  ServeOptions options_;
  std::unique_ptr<ModelRegistry> models_;

  mutable std::mutex sessions_mutex_;
  std::map<std::string, std::shared_ptr<ServeSession>> sessions_;
  /// Sessions the watchdog took out of service (under sessions_mutex_).
  std::set<std::string> quarantined_;

  std::mutex queue_mutex_;
  std::condition_variable queue_ready_;
  std::deque<Request> queue_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> shutting_down_{false};

  std::atomic<std::uint64_t> next_rid_{0};
  std::unique_ptr<AccessLog> access_log_;
  std::unique_ptr<SlowRequestRing> slow_ring_;

  // kMetrics scrape state: the previous snapshot, kept so the exposition
  // reports counter deltas and windowed quantiles since the last scrape.
  std::mutex scrape_mutex_;
  StatsSnapshot last_scrape_;
  bool have_scrape_ = false;

  int listen_fd_ = -1;
  int bound_tcp_port_ = -1;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<InFlight>> in_flight_;  ///< one per worker
  std::thread watchdog_;
  std::atomic<std::size_t> live_connections_{0};
  std::mutex readers_mutex_;
  std::vector<Reader> readers_;
};

}  // namespace gcnt::serve
