#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iterator>
#include <sstream>

#include "common/fault_inject.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/trace.h"
#include "netlist/bench_io.h"

namespace gcnt::serve {

namespace {

/// Wall-clock microseconds for access-log timestamps (span timings use
/// the trace epoch via trace_now_ns so spans and stats agree).
std::uint64_t unix_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// On-the-wire size of one encoded frame (length prefix + header +
/// optional deadline extension + body).
std::size_t frame_bytes(const Frame& frame) noexcept {
  return 4 + kFrameHeaderBytes + (frame.has_deadline() ? 4 : 0) +
         frame.body.size();
}

/// True when a request with this frame/enqueue time has blown its
/// deadline by `now_ns` (deadlines are measured from server receipt).
bool deadline_expired(const Frame& frame, std::uint64_t enqueue_ns,
                      std::uint64_t now_ns) noexcept {
  return frame.has_deadline() && frame.deadline_ms != 0 &&
         now_ns > enqueue_ns + frame.deadline_ms * 1'000'000ull;
}

/// Nanoseconds from `from_ns` to `to_ns`; 0 when two threads' clock
/// readings arrive out of order.
std::uint64_t since_ns(std::uint64_t from_ns, std::uint64_t to_ns) noexcept {
  return to_ns > from_ns ? to_ns - from_ns : 0;
}

/// Applies SO_RCVTIMEO so blocked reads wake up every `ms` milliseconds
/// (read_frame turns the expiry into kIdle / a mid-frame kIo error).
void set_receive_timeout(int fd, std::uint64_t ms) {
  if (ms == 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

/// Cached per-opcode request counters ("serve.op.<name>"), so the
/// per-request cost is one relaxed add, not a registry lookup. Racing
/// initializers resolve to the same registry slot, so the last store
/// wins harmlessly.
Counter& op_counter(std::uint8_t opcode) {
  static std::atomic<Counter*> cache[256] = {};
  std::atomic<Counter*>& slot = cache[opcode];
  Counter* counter = slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = &StatsRegistry::instance().counter(std::string("serve.op.") +
                                                 op_name(opcode));
    slot.store(counter, std::memory_order_release);
  }
  return *counter;
}

/// Ops whose body begins with a session-name string (pre-parsed by the
/// reader so the worker can batch without decoding bodies twice).
bool has_session_name(std::uint8_t opcode) noexcept {
  switch (static_cast<Op>(opcode)) {
    case Op::kLoadSession:
    case Op::kInfer:
    case Op::kAppendObserve:
    case Op::kAppendControl:
    case Op::kCloseSession:
      return true;
    default:
      return false;
  }
}

bool known_opcode(std::uint8_t opcode) noexcept {
  switch (static_cast<Op>(opcode)) {
    case Op::kPing:
    case Op::kLoadSession:
    case Op::kInfer:
    case Op::kAppendObserve:
    case Op::kAppendControl:
    case Op::kStats:
    case Op::kReloadModel:
    case Op::kCloseSession:
    case Op::kShutdown:
    case Op::kMetrics:
      return true;
  }
  return false;
}

}  // namespace

void ServeServer::Connection::send(const Frame& frame) {
  std::lock_guard<std::mutex> lock(write_mutex);
  if (closed.load()) throw Error(ErrorKind::kIo, "connection closed");
  if (fault_serve_write_probe()) {
    // Chaos: tear the reply mid-frame and drop the connection — what a
    // peer sees when the daemon dies between write() calls.
    const std::string bytes = encode_frame(frame);
    try {
      write_bytes(fd, bytes.data(), bytes.size() / 2);
    } catch (const Error&) {
    }
    close();
    throw Error(ErrorKind::kIo, "injected short write (connection dropped)");
  }
  write_frame(fd, frame);
}

void ServeServer::Connection::close() noexcept {
  std::lock_guard<std::mutex> lock(fd_mutex);
  if (closed.exchange(true)) return;
  ::shutdown(fd, SHUT_RDWR);  // wakes a reader blocked in read()
}

void ServeServer::Connection::release() noexcept {
  close();
  std::scoped_lock lock(write_mutex, fd_mutex);  // no send is mid-write
  if (fd >= 0) ::close(fd);
  fd = -1;
}

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_limit == 0) options_.queue_limit = 1;
  if (options_.batch_limit == 0) options_.batch_limit = 1;
}

ServeServer::~ServeServer() {
  begin_shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  if (watchdog_.joinable()) watchdog_.join();
  queue_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  close_readers();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!options_.unix_socket.empty()) ::unlink(options_.unix_socket.c_str());
}

void ServeServer::start() {
  if (options_.unix_socket.empty() == (options_.tcp_port < 0)) {
    throw Error(ErrorKind::kUsage,
                "serve needs exactly one of --socket or --port");
  }
  if (options_.model_path.empty()) {
    throw Error(ErrorKind::kUsage, "serve needs --model <artifact>");
  }
  // A peer that disconnects mid-reply must surface as Error{kIo} from
  // write(), not kill the daemon with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  models_ = std::make_unique<ModelRegistry>(options_.model_path);
  slow_ring_ = std::make_unique<SlowRequestRing>(options_.slow_ring);
  if (!options_.access_log.empty()) {
    access_log_ = std::make_unique<AccessLog>(options_.access_log);
    if (!access_log_->ok()) {
      log_warn("serve: cannot open access log ", options_.access_log,
               "; serving without one");
      access_log_.reset();
    }
  }

  if (!options_.unix_socket.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw Error(ErrorKind::kIo, "socket() failed");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket.size() >= sizeof(addr.sun_path)) {
      throw Error(ErrorKind::kUsage, "unix socket path too long");
    }
    std::strncpy(addr.sun_path, options_.unix_socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_socket.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      throw Error(ErrorKind::kIo, "cannot bind unix socket " +
                                      options_.unix_socket + ": " +
                                      std::strerror(errno));
    }
  } else if (options_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw Error(ErrorKind::kIo, "socket() failed");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      throw Error(ErrorKind::kIo,
                  "cannot bind 127.0.0.1:" +
                      std::to_string(options_.tcp_port) + ": " +
                      std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_tcp_port_ = ntohs(bound.sin_port);
  }

  StatsRegistry::instance().gauge("serve.workers").set(
      static_cast<std::int64_t>(options_.workers));
  in_flight_.clear();
  for (std::size_t i = 0; i < options_.workers; ++i) {
    in_flight_.push_back(std::make_unique<InFlight>());
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  if (options_.watchdog_budget_ms != 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  log_info("serve: ready (",
           !options_.unix_socket.empty()
               ? "unix " + options_.unix_socket
               : "tcp 127.0.0.1:" + std::to_string(bound_tcp_port_),
           ", ", options_.workers, " workers, queue ", options_.queue_limit,
           ")");
}

void ServeServer::wait() {
  if (acceptor_.joinable()) acceptor_.join();
  if (watchdog_.joinable()) watchdog_.join();
  queue_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  close_readers();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_socket.empty()) ::unlink(options_.unix_socket.c_str());
  log_info("serve: shutdown complete");
}

std::size_t ServeServer::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

void ServeServer::begin_shutdown() {
  stop_requested_.store(true);
  if (shutting_down_.exchange(true)) return;
  queue_ready_.notify_all();
}

void ServeServer::reap_readers() {
  std::vector<Reader> finished;
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    const auto done = std::partition(
        readers_.begin(), readers_.end(), [](const Reader& reader) {
          return !reader.conn->reader_done.load(std::memory_order_acquire);
        });
    finished.assign(std::make_move_iterator(done),
                    std::make_move_iterator(readers_.end()));
    readers_.erase(done, readers_.end());
  }
  for (Reader& reader : finished) reader.thread.join();
}

void ServeServer::close_readers() {
  std::vector<Reader> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    readers.swap(readers_);
  }
  for (Reader& reader : readers) reader.conn->close();
  for (Reader& reader : readers) {
    if (reader.thread.joinable()) reader.thread.join();
  }
}

void ServeServer::acceptor_loop() {
  trace_set_thread_name("serve-accept");
  while (!stop_requested_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    reap_readers();
    if (ready <= 0) continue;  // timeout, EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (options_.max_connections != 0 &&
        live_connections_.load(std::memory_order_acquire) >=
            options_.max_connections) {
      // Refuse before spawning a reader: one best-effort typed error
      // frame (request_id 0 — no request was read), then close.
      static Counter& conn_rejected =
          StatsRegistry::instance().counter("serve.conn_rejected");
      conn_rejected.add();
      const std::string reason =
          "connection limit reached (" +
          std::to_string(options_.max_connections) + ")";
      try {
        Frame refused;
        write_frame(fd, make_error_response(refused, ErrorKind::kResource,
                                            reason));
      } catch (const Error&) {
      }
      ::close(fd);
      log_warn("serve: rejected connection: ", reason);
      continue;
    }
    // One receive-timeout tick per read: the mid-frame budget when
    // read_timeout_ms is set, otherwise the whole idle budget.
    set_receive_timeout(fd, options_.read_timeout_ms != 0
                                ? options_.read_timeout_ms
                                : options_.idle_timeout_ms);
    live_connections_.fetch_add(1, std::memory_order_acq_rel);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(readers_mutex_);
    readers_.push_back(
        Reader{conn, std::thread([this, conn] { connection_loop(conn); })});
  }
  begin_shutdown();
}

void ServeServer::connection_loop(std::shared_ptr<Connection> conn) {
  trace_set_thread_name("serve-reader");
  pump_connection(conn);
  conn->release();
  live_connections_.fetch_sub(1, std::memory_order_acq_rel);
  conn->reader_done.store(true, std::memory_order_release);
}

void ServeServer::pump_connection(const std::shared_ptr<Connection>& conn) {
  static Counter& malformed =
      StatsRegistry::instance().counter("serve.malformed_frames");
  static Counter& idle_reaped =
      StatsRegistry::instance().counter("serve.idle_reaped");
  const std::uint64_t tick_ms = options_.read_timeout_ms != 0
                                    ? options_.read_timeout_ms
                                    : options_.idle_timeout_ms;
  std::uint64_t idle_ms = 0;
  while (!shutting_down_.load()) {
    Frame frame;
    ErrorKind kind = ErrorKind::kInternal;
    std::string message;
    const ReadStatus status =
        read_frame(conn->fd, frame, kind, message);
    if (status == ReadStatus::kEof) return;
    if (status == ReadStatus::kIdle) {
      // Receive timeout with no frame started: accumulate idle ticks and
      // reap the connection once the idle budget is spent. (A mid-frame
      // timeout is kError/kIo — the slowloris case — handled below.)
      idle_ms += tick_ms;
      if (options_.idle_timeout_ms != 0 &&
          idle_ms >= options_.idle_timeout_ms) {
        idle_reaped.add();
        log_info("serve: reaping idle connection (idle ", idle_ms, " ms)");
        return;
      }
      continue;
    }
    if (status == ReadStatus::kError) {
      // Framing is broken: the stream cannot be resynced. Report the
      // typed error best-effort and drop the connection; resident
      // sessions are server-scoped and unaffected. No access-log line:
      // without a decodable header there is no request to attribute.
      malformed.add();
      if (kind != ErrorKind::kIo) {
        try {
          Frame bad;  // no request context survives a framing error
          conn->send(make_error_response(bad, kind, message));
        } catch (const Error&) {
        }
      }
      return;
    }

    // Request context starts here: every decodable frame gets a
    // server-wide sequence number, its wire size, and a deterministic
    // sampling decision that rides with it into the worker.
    idle_ms = 0;
    Request request;
    request.conn = conn;
    request.rid = next_rid_.fetch_add(1);
    request.bytes_in = frame_bytes(frame);
    request.sampled = trace_should_sample(request.rid);
    request.frame = std::move(frame);
    // Replies the reader sends itself (protocol errors, shutdown) take
    // the same reply path as a worker's. False when the send failed.
    const auto reply_inline = [&](ErrorKind kind, const std::string& error) {
      AccessRecord record;
      record.outcome = error_kind_name(kind);
      record.error = error;
      return reply(request, make_error_response(request.frame, kind, error),
                   record);
    };

    if (fault_serve_read_probe()) {
      // Chaos: pretend this frame arrived torn — answer exactly like a
      // real framing failure (typed `corrupt`), but with the request
      // context intact so the peer can correlate, then drop the stream.
      malformed.add();
      reply_inline(ErrorKind::kCorrupt, "injected torn request frame");
      return;
    }

    const std::uint8_t version = request.frame.version;
    const std::uint8_t opcode = request.frame.opcode;
    if (version < kMinProtocolVersion || version > kProtocolVersion) {
      const std::string error =
          "protocol version " + std::to_string(version) +
          " unsupported (want " + std::to_string(kMinProtocolVersion) +
          ".." + std::to_string(kProtocolVersion) + ")";
      if (!reply_inline(ErrorKind::kVersion, error)) return;
      continue;
    }
    if (!known_opcode(opcode)) {
      if (!reply_inline(ErrorKind::kUsage,
                        "unknown opcode " + std::to_string(opcode))) {
        return;
      }
      continue;
    }
    if (static_cast<Op>(opcode) == Op::kShutdown) {
      // Handled inline so shutdown is never rejected by a full queue.
      AccessRecord record;
      reply(request, make_ok_response(request.frame, {}), record);
      begin_shutdown();
      return;
    }
    if (has_session_name(opcode)) {
      try {
        WireReader reader(request.frame.body);
        request.session = reader.str();
      } catch (const Error& e) {
        if (!reply_inline(e.kind(), e.what())) return;
        continue;
      }
    }
    enqueue(std::move(request));
  }
}

void ServeServer::enqueue(Request request) {
  static Counter& rejected =
      StatsRegistry::instance().counter("serve.overload_rejected");
  static Gauge& depth = StatsRegistry::instance().gauge("serve.queue_depth");
  request.enqueue_ns = trace_now_ns();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!shutting_down_.load() && queue_.size() < options_.queue_limit) {
      queue_.push_back(std::move(request));
      depth.set(static_cast<std::int64_t>(queue_.size()));
      queue_ready_.notify_one();
      return;
    }
  }
  // Admission control: reply immediately with the typed `resource`
  // error instead of queueing (or accepting work during shutdown).
  rejected.add();
  AccessRecord record;
  record.outcome = error_kind_name(ErrorKind::kResource);
  record.error = shutting_down_.load()
                     ? "server is shutting down"
                     : "server overloaded: request queue full (" +
                           std::to_string(options_.queue_limit) + ")";
  reply(request,
        make_error_response(request.frame, ErrorKind::kResource,
                            record.error),
        record);
}

void ServeServer::worker_loop(std::size_t index) {
  trace_set_thread_name("serve-worker");
  ForwardWorkspace ws;  // reused across every request this worker runs
  static Gauge& depth = StatsRegistry::instance().gauge("serve.queue_depth");
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_ready_.wait(lock, [this] {
        return !queue_.empty() || shutting_down_.load();
      });
      if (queue_.empty()) {
        if (shutting_down_.load()) return;  // drained
        continue;
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    dispatch(request, ws, in_flight_[index].get());
  }
}

void ServeServer::dispatch(const Request& request, ForwardWorkspace& ws,
                           InFlight* slot) {
  static Counter& requests =
      StatsRegistry::instance().counter("serve.requests");
  static Counter& errors = StatsRegistry::instance().counter("serve.errors");
  static Histogram& latency =
      StatsRegistry::instance().histogram("serve.request_ns");
  static Histogram& queue_wait =
      StatsRegistry::instance().histogram("serve.queue_wait_us");
  const std::uint64_t dequeue_ns = trace_now_ns();
  const std::uint64_t queue_wait_ns = since_ns(request.enqueue_ns, dequeue_ns);
  requests.add();
  op_counter(request.frame.opcode).add();
  queue_wait.record(queue_wait_ns / 1000);

  // Publish what this worker is doing for the watchdog: string/handle
  // under the slot mutex, scalars as release stores so the watchdog's
  // acquire loads see a consistent (busy, rid, start) triple.
  if (slot != nullptr) {
    {
      std::lock_guard<std::mutex> lock(slot->name_mutex);
      slot->session = request.session;
      slot->conn = request.conn;
    }
    slot->rid.store(request.rid, std::memory_order_relaxed);
    slot->opcode.store(request.frame.opcode, std::memory_order_relaxed);
    slot->start_ns.store(dequeue_ns, std::memory_order_relaxed);
    slot->busy.store(true, std::memory_order_release);
  }

  // The queue-wait span completed at dequeue time; record it before any
  // phase span so per-thread completion order stays monotonic. Sampling
  // is decided per request, and an unsampled request also silences its
  // nested GCNT_KERNEL_SCOPE spans via the suppress scope.
  const bool tracing = request.sampled && trace_enabled();
  if (tracing) {
    trace_detail::record("serve.queue_wait", request.enqueue_ns, dequeue_ns,
                         "rid", static_cast<double>(request.rid), nullptr,
                         0.0);
  }
  TraceSuppressScope suppress(trace_enabled() && !request.sampled);

  AccessRecord record;
  record.queue_wait_us = queue_wait_ns / 1000;
  Batch batch;  // same-session infers answered along with this one
  std::string payload;
  ErrorKind error_kind = ErrorKind::kInternal;
  try {
    // Chaos probes fire before any real work: a delayed worker is what a
    // page fault storm looks like, an alloc failure is what decode OOM
    // looks like. Both are no-ops unless GCNT_FAULT_INJECT arms them.
    if (const std::uint64_t delay = fault_serve_delay_probe()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    fault_serve_alloc_probe(op_name(request.frame.opcode));

    // Deadline shed at dequeue: work whose caller has already given up
    // is answered with the typed `deadline` error instead of being run.
    if (deadline_expired(request.frame, request.enqueue_ns,
                         trace_now_ns())) {
      static Counter& shed =
          StatsRegistry::instance().counter("serve.shed_deadline");
      shed.add();
      throw Error(ErrorKind::kDeadline,
                  "deadline of " + std::to_string(request.frame.deadline_ms) +
                      " ms exceeded after " +
                      std::to_string(queue_wait_ns / 1'000'000) +
                      " ms in queue");
    }
    if (static_cast<Op>(request.frame.opcode) == Op::kInfer) {
      // The infer path records finer decode/forward/encode phases itself.
      payload = handle_infer(request, ws, record, batch);
    } else {
      TraceSpan span("serve.handle");
      span.arg("rid", static_cast<double>(request.rid));
      payload = handle(request.frame);
    }
  } catch (const Error& e) {
    error_kind = e.kind();
    record.outcome = error_kind_name(error_kind);
    record.error = e.what();
  } catch (const std::bad_alloc&) {
    error_kind = ErrorKind::kResource;
    record.outcome = error_kind_name(error_kind);
    record.error = "out of memory";
  } catch (const std::exception& e) {
    record.outcome = error_kind_name(error_kind);
    record.error = e.what();
  }
  const bool ok = record.outcome == "ok";
  // Every request of a batch gets the same body under its own header.
  const auto response_for = [&](const Frame& frame) {
    Frame response = ok ? make_ok_response(frame, payload)
                        : make_error_response(frame, error_kind, record.error);
    if (ok && record.brownout && response.version >= 2) {
      response.flags |= kFrameFlagBrownout;
    }
    return response;
  };
  // What batch members share, taken before the leader's send can turn
  // its own outcome into `io`.
  AccessRecord shared;
  shared.outcome = record.outcome;
  shared.error = record.error;
  shared.batch = record.batch;
  shared.brownout = record.brownout;
  reply(request, response_for(request.frame), record, dequeue_ns);
  const std::uint64_t done_ns = trace_now_ns();
  latency.record(done_ns - dequeue_ns);
  if (tracing) {
    trace_detail::record("serve.request", dequeue_ns, done_ns, "rid",
                         static_cast<double>(request.rid), "op",
                         static_cast<double>(request.frame.opcode));
  }
  if (record.outcome != "ok") errors.add();

  // Batch members get their own replies, spans and access-log lines; the
  // shared forward pass is visible through the common batch size.
  for (const Request& member : batch.members) {
    AccessRecord member_record = shared;
    member_record.queue_wait_us =
        since_ns(member.enqueue_ns, batch.claim_ns) / 1000;
    reply(member, response_for(member.frame), member_record, batch.claim_ns);
    if (member.sampled && trace_enabled()) {
      trace_detail::record("serve.request", batch.claim_ns, trace_now_ns(),
                           "rid", static_cast<double>(member.rid), "op",
                           static_cast<double>(member.frame.opcode));
    }
  }
  if (slot != nullptr) slot->busy.store(false, std::memory_order_release);
}

std::string ServeServer::health_payload(std::uint8_t version) {
  // v1 pings keep their empty-body reply: old clients must never see
  // payload bytes they do not know how to parse.
  if (version < 2) return {};
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth = queue_.size();
  }
  std::string payload;
  WireWriter writer(payload);
  writer.u32(static_cast<std::uint32_t>(depth));
  writer.u32(static_cast<std::uint32_t>(options_.workers));
  writer.u64(models_->snapshot().generation);
  writer.u8(options_.brownout_queue != 0 && depth >= options_.brownout_queue
                ? 1
                : 0);
  writer.u32(static_cast<std::uint32_t>(session_count()));
  return payload;
}

std::string ServeServer::handle_infer(const Request& request,
                                      ForwardWorkspace& ws,
                                      AccessRecord& record, Batch& batch) {
  static Counter& batched =
      StatsRegistry::instance().counter("serve.batched_infers");
  static Histogram& batch_size =
      StatsRegistry::instance().histogram("serve.batch_size");
  // Claim every queued infer for the same session: one forward pass (or
  // cache hit) answers the whole batch. The queue depth at claim time is
  // the brownout signal — it is the backlog this request actually saw.
  std::vector<Request> claimed;
  std::size_t depth_at_claim = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth_at_claim = queue_.size();
    for (auto it = queue_.begin();
         it != queue_.end() && claimed.size() + 1 < options_.batch_limit;) {
      if (static_cast<Op>(it->frame.opcode) == Op::kInfer &&
          it->session == request.session) {
        claimed.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  batch.claim_ns = trace_now_ns();
  // Mid-batch deadline shed: members whose deadline expired while the
  // batch formed get the typed `deadline` error now instead of riding a
  // forward pass whose answer their caller has stopped waiting for.
  static Counter& shed_batch =
      StatsRegistry::instance().counter("serve.shed_batch");
  for (Request& r : claimed) {
    if (!deadline_expired(r.frame, r.enqueue_ns, batch.claim_ns)) {
      batch.members.push_back(std::move(r));
      continue;
    }
    shed_batch.add();
    AccessRecord shed;
    shed.outcome = error_kind_name(ErrorKind::kDeadline);
    shed.error = "deadline of " + std::to_string(r.frame.deadline_ms) +
                 " ms exceeded while batched";
    shed.queue_wait_us = since_ns(r.enqueue_ns, batch.claim_ns) / 1000;
    reply(r, make_error_response(r.frame, ErrorKind::kDeadline, shed.error),
          shed);
  }
  record.batch = batch.members.size() + 1;
  batched.add(batch.members.size());
  batch_size.record(record.batch);
  // A batch member's queue wait ends when the batch claims it.
  for (const Request& r : batch.members) {
    if (r.sampled && trace_enabled()) {
      trace_detail::record("serve.queue_wait", r.enqueue_ns, batch.claim_ns,
                           "rid", static_cast<double>(r.rid), nullptr, 0.0);
    }
  }

  std::uint64_t phase_ns = batch.claim_ns;
  const auto phase_us = [&phase_ns] {
    const std::uint64_t now = trace_now_ns();
    const std::uint64_t us = (now - phase_ns) / 1000;
    phase_ns = now;
    return us;
  };
  std::shared_ptr<ServeSession> session;
  {
    TraceSpan span("serve.decode");
    span.arg("rid", static_cast<double>(request.rid));
    session = find_session(request.session);
    if (!session) {
      throw Error(ErrorKind::kUsage,
                  "unknown session '" + request.session + "'");
    }
  }
  record.decode_us = phase_us();
  const ModelRegistry::Snapshot snapshot = models_->snapshot();
  std::lock_guard<std::mutex> lock(session->mutex());
  const Matrix* logits = nullptr;
  if (options_.brownout_queue != 0 &&
      depth_at_claim >= options_.brownout_queue) {
    // Brownout: past the queue-depth threshold, answer from the
    // session's cached (possibly stale) logits and skip the forward.
    // Cold sessions have nothing cached and fall through to a normal
    // forward — degrading them would mean failing them.
    static Counter& brownout_served =
        StatsRegistry::instance().counter("serve.brownout_served");
    static Counter& brownout_miss =
        StatsRegistry::instance().counter("serve.brownout_miss");
    logits = session->cached_logits(snapshot);
    if (logits != nullptr) {
      brownout_served.add(record.batch);
      record.brownout = true;
    } else {
      brownout_miss.add();
    }
  }
  if (logits == nullptr) {
    TraceSpan span("serve.forward");
    span.arg("rid", static_cast<double>(request.rid));
    logits = &session->logits(snapshot, ws);
  }
  record.forward_us = phase_us();
  std::string payload;
  {
    TraceSpan span("serve.encode");
    span.arg("rid", static_cast<double>(request.rid));
    WireWriter writer(payload);
    writer.u32(static_cast<std::uint32_t>(logits->rows()));
    writer.u32(static_cast<std::uint32_t>(logits->cols()));
    payload.reserve(payload.size() +
                    logits->rows() * logits->cols() * sizeof(float));
    for (std::size_t r = 0; r < logits->rows(); ++r) {
      const float* row = logits->row(r);
      for (std::size_t c = 0; c < logits->cols(); ++c) writer.f32(row[c]);
    }
  }
  record.encode_us = phase_us();
  return payload;
}

std::string ServeServer::handle(const Frame& frame) {
  switch (static_cast<Op>(frame.opcode)) {
    case Op::kPing:
      return health_payload(frame.version);
    case Op::kLoadSession:
      return handle_load_session(frame);
    case Op::kAppendObserve:
      return handle_append_observe(frame);
    case Op::kAppendControl:
      return handle_append_control(frame);
    case Op::kStats:
      return handle_stats();
    case Op::kMetrics:
      return handle_metrics(frame);
    case Op::kReloadModel:
      return handle_reload(frame);
    case Op::kCloseSession:
      return handle_close_session(frame);
    case Op::kInfer:     // handle_infer
    case Op::kShutdown:  // answered by the reader
      break;
  }
  throw Error(ErrorKind::kInternal,
              std::string("no handler for ") + op_name(frame.opcode));
}

std::string ServeServer::handle_load_session(const Frame& frame) {
  WireReader reader(frame.body);
  const std::string name = reader.str();
  const std::uint8_t source = reader.u8();
  const std::string data = reader.str();
  const bool standardize = reader.u8() != 0;
  if (source != 1) {  // 1 = inline .bench text, the only source kind
    throw Error(ErrorKind::kUsage,
                "unknown netlist source kind " + std::to_string(source));
  }
  if (name.empty()) {
    throw Error(ErrorKind::kUsage, "session name must not be empty");
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (sessions_.count(name) != 0) {
      throw Error(ErrorKind::kUsage,
                  "session '" + name + "' already exists");
    }
    if (sessions_.size() >= options_.max_sessions) {
      throw Error(ErrorKind::kResource,
                  "session limit reached (" +
                      std::to_string(options_.max_sessions) + ")");
    }
  }
  // Build outside the lock (SCOAP + tensors dominate); publish after.
  auto session = std::make_shared<ServeSession>(
      name, read_bench_string(data, "<inline>"), standardize);
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (sessions_.count(name) != 0) {
    throw Error(ErrorKind::kUsage, "session '" + name + "' already exists");
  }
  if (sessions_.size() >= options_.max_sessions) {
    throw Error(ErrorKind::kResource,
                "session limit reached (" +
                    std::to_string(options_.max_sessions) + ")");
  }
  std::string payload;
  WireWriter writer(payload);
  writer.u32(static_cast<std::uint32_t>(session->node_count()));
  writer.u32(static_cast<std::uint32_t>(session->edge_count()));
  sessions_.emplace(name, std::move(session));
  StatsRegistry::instance().gauge("serve.sessions").set(
      static_cast<std::int64_t>(sessions_.size()));
  return payload;
}

std::string ServeServer::handle_append_observe(const Frame& frame) {
  WireReader reader(frame.body);
  const std::string name = reader.str();
  const NodeId target = reader.u32();
  const std::shared_ptr<ServeSession> session = find_session(name);
  if (!session) {
    throw Error(ErrorKind::kUsage, "unknown session '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(session->mutex());
  const NodeId op = session->design().observe(target);
  std::string payload;
  WireWriter writer(payload);
  writer.u32(op);
  writer.u32(static_cast<std::uint32_t>(session->node_count()));
  return payload;
}

std::string ServeServer::handle_append_control(const Frame& frame) {
  WireReader reader(frame.body);
  const std::string name = reader.str();
  const NodeId target = reader.u32();
  const bool drive_to_one = reader.u8() != 0;
  const std::shared_ptr<ServeSession> session = find_session(name);
  if (!session) {
    throw Error(ErrorKind::kUsage, "unknown session '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(session->mutex());
  const Netlist::ControlPoint cp =
      session->design().control(target, drive_to_one);
  std::string payload;
  WireWriter writer(payload);
  writer.u32(cp.control);
  writer.u32(cp.gate);
  writer.u32(cp.inverter);
  return payload;
}

std::string ServeServer::handle_stats() {
  std::ostringstream json;
  StatsRegistry::instance().write_json(json);
  std::string payload;
  WireWriter writer(payload);
  writer.str(json.str());
  return payload;
}

std::string ServeServer::handle_metrics(const Frame& frame) {
  std::uint8_t flags = 0;
  if (!frame.body.empty()) {
    WireReader reader(frame.body);
    flags = reader.u8();
  }
  std::ostringstream text;
  {
    // One scrape at a time: the exposition reports deltas and windowed
    // quantiles relative to the previous scrape, whoever made it.
    std::lock_guard<std::mutex> lock(scrape_mutex_);
    const StatsSnapshot cur = StatsRegistry::instance().snapshot();
    write_prometheus(text, cur, have_scrape_ ? &last_scrape_ : nullptr);
    last_scrape_ = cur;
    have_scrape_ = true;
  }
  std::string payload;
  WireWriter writer(payload);
  writer.str(text.str());
  writer.str((flags & 0x1) != 0 && slow_ring_ ? slow_ring_->to_json()
                                              : std::string());
  return payload;
}

bool ServeServer::reply(const Request& request, const Frame& response,
                        AccessRecord& record, std::uint64_t start_ns) {
  record.rid = request.rid;
  record.request_id = request.frame.request_id;
  record.session = request.session;
  record.op = op_name(request.frame.opcode);
  record.bytes_in = request.bytes_in;
  record.bytes_out = frame_bytes(response);
  bool sent = true;
  try {
    request.conn->send(response);
  } catch (const Error& e) {
    // The reply never reached the peer: the line says so instead of
    // claiming the handler's outcome.
    sent = false;
    record.outcome = error_kind_name(ErrorKind::kIo);
    record.error = e.what();
  }
  if (start_ns != 0) record.service_us = (trace_now_ns() - start_ns) / 1000;
  record.ts_us = unix_micros();
  log_access(record);
  return sent;
}

void ServeServer::log_access(const AccessRecord& record) {
  if (slow_ring_) slow_ring_->offer(record);
  if (access_log_) access_log_->write(record);
}

std::uint64_t ServeServer::access_log_lines() const noexcept {
  return access_log_ ? access_log_->lines_written() : 0;
}

std::string ServeServer::handle_reload(const Frame& frame) {
  WireReader reader(frame.body);
  const std::string path = reader.str();
  const std::uint64_t generation = models_->reload(path);
  std::string payload;
  WireWriter writer(payload);
  writer.u64(generation);
  return payload;
}

std::string ServeServer::handle_close_session(const Frame& frame) {
  WireReader reader(frame.body);
  const std::string name = reader.str();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (sessions_.erase(name) == 0) {
    throw Error(ErrorKind::kUsage, "unknown session '" + name + "'");
  }
  if (quarantined_.erase(name) != 0) {
    // Closing a quarantined session lifts the quarantine: reloading it
    // is the operator's way of putting it back in service.
    StatsRegistry::instance().gauge("serve.quarantined").set(
        static_cast<std::int64_t>(quarantined_.size()));
  }
  StatsRegistry::instance().gauge("serve.sessions").set(
      static_cast<std::int64_t>(sessions_.size()));
  return {};
}

std::shared_ptr<ServeSession> ServeServer::find_session(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (quarantined_.count(name) != 0) {
    throw Error(ErrorKind::kResource,
                "session '" + name +
                    "' is quarantined (watchdog flagged a stuck request; "
                    "close and reload it to restore service)");
  }
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

void ServeServer::watchdog_loop() {
  trace_set_thread_name("serve-watchdog");
  static Counter& stuck =
      StatsRegistry::instance().counter("serve.watchdog_stuck");
  const std::uint64_t budget_ns = options_.watchdog_budget_ms * 1'000'000ull;
  const std::uint64_t tick_ms =
      std::min<std::uint64_t>(50,
                              std::max<std::uint64_t>(
                                  5, options_.watchdog_budget_ms / 4));
  while (!shutting_down_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(tick_ms));
    const std::uint64_t now_ns = trace_now_ns();
    for (const std::unique_ptr<InFlight>& slot : in_flight_) {
      if (!slot->busy.load(std::memory_order_acquire)) continue;
      const std::uint64_t rid = slot->rid.load(std::memory_order_relaxed);
      const std::uint64_t start_ns =
          slot->start_ns.load(std::memory_order_relaxed);
      if (now_ns <= start_ns + budget_ns) continue;
      if (slot->reported_rid == rid) continue;  // already flagged
      // Re-check after the loads: the worker may have finished and
      // started a different request between our busy and rid reads.
      if (!slot->busy.load(std::memory_order_acquire) ||
          slot->rid.load(std::memory_order_relaxed) != rid) {
        continue;
      }
      slot->reported_rid = rid;
      stuck.add();
      const std::uint8_t opcode =
          slot->opcode.load(std::memory_order_relaxed);
      std::string session;
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(slot->name_mutex);
        session = slot->session;
        conn = slot->conn.lock();
      }
      const std::string session_label =
          session.empty() ? std::string("-") : session;
      log_warn("serve: watchdog: rid ", rid, " (", op_name(opcode),
               ", session ", session_label, ") held for ",
               (now_ns - start_ns) / 1'000'000, " ms (budget ",
               options_.watchdog_budget_ms, " ms)");
      if (options_.watchdog_action == WatchdogAction::kQuarantine &&
          !session.empty()) {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        if (quarantined_.insert(session).second) {
          StatsRegistry::instance().gauge("serve.quarantined").set(
              static_cast<std::int64_t>(quarantined_.size()));
          log_warn("serve: watchdog: quarantined session ", session);
        }
      } else if (options_.watchdog_action == WatchdogAction::kAbort &&
                 conn != nullptr) {
        log_warn("serve: watchdog: aborting connection of rid ", rid);
        conn->close();
      }
    }
  }
}

}  // namespace gcnt::serve
