#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/rng.h"

namespace gcnt::serve {

namespace {

void set_socket_timeout(int fd, int which, std::uint64_t ms) {
  if (ms == 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof tv);
}

/// connect(2) with an optional timeout: flip the socket non-blocking,
/// poll for writability, read SO_ERROR, restore the original flags.
void connect_fd(int fd, const sockaddr* addr, socklen_t len,
                std::uint64_t timeout_ms, const std::string& target) {
  if (timeout_ms == 0) {
    if (::connect(fd, addr, len) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw Error(ErrorKind::kIo, "cannot connect to " + target + ": " + why);
    }
    return;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, addr, len) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw Error(ErrorKind::kIo, "cannot connect to " + target + ": " + why);
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready <= 0) {
      ::close(fd);
      throw Error(ErrorKind::kIo,
                  "cannot connect to " + target + ": timed out after " +
                      std::to_string(timeout_ms) + " ms");
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof soerr;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len);
    if (soerr != 0) {
      const std::string why = std::strerror(soerr);
      ::close(fd);
      throw Error(ErrorKind::kIo, "cannot connect to " + target + ": " + why);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
}

int open_unix(const std::string& path, const ClientOptions& options) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error(ErrorKind::kIo, "socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw Error(ErrorKind::kUsage, "unix socket path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  connect_fd(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr,
             options.connect_timeout_ms, path);
  set_socket_timeout(fd, SO_RCVTIMEO, options.recv_timeout_ms);
  set_socket_timeout(fd, SO_SNDTIMEO, options.send_timeout_ms);
  return fd;
}

int open_tcp(int port, const ClientOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error(ErrorKind::kIo, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  connect_fd(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr,
             options.connect_timeout_ms,
             "127.0.0.1:" + std::to_string(port));
  set_socket_timeout(fd, SO_RCVTIMEO, options.recv_timeout_ms);
  set_socket_timeout(fd, SO_SNDTIMEO, options.send_timeout_ms);
  return fd;
}

/// Ops safe to resend after a transport failure: the daemon either never
/// saw the request or answering it twice changes no state. Mutating ops
/// (load/append/close/reload/shutdown) must never be retried blind.
bool idempotent(Op op) noexcept {
  switch (op) {
    case Op::kPing:
    case Op::kInfer:
    case Op::kStats:
    case Op::kMetrics:
      return true;
    default:
      return false;
  }
}

}  // namespace

ServeClient ServeClient::connect_unix(const std::string& path,
                                      const ClientOptions& options) {
  const int fd = open_unix(path, options);
  ServeClient client(fd);
  client.options_ = options;
  client.unix_path_ = path;
  return client;
}

ServeClient ServeClient::connect_tcp(int port, const ClientOptions& options) {
  const int fd = open_tcp(port, options);
  ServeClient client(fd);
  client.options_ = options;
  client.tcp_port_ = port;
  return client;
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      options_(other.options_),
      last_brownout_(other.last_brownout_),
      unix_path_(std::move(other.unix_path_)),
      tcp_port_(other.tcp_port_) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    options_ = other.options_;
    last_brownout_ = other.last_brownout_;
    unix_path_ = std::move(other.unix_path_);
    tcp_port_ = other.tcp_port_;
  }
  return *this;
}

ServeClient::~ServeClient() { close(); }

void ServeClient::close() noexcept {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

void ServeClient::reconnect() {
  close();
  fd_ = unix_path_.empty() ? open_tcp(tcp_port_, options_)
                           : open_unix(unix_path_, options_);
}

std::string ServeClient::call_once(Op op, const std::string& body,
                                   bool* transport) {
  *transport = true;
  Frame request;
  request.version = kProtocolVersion;
  request.opcode = static_cast<std::uint8_t>(op);
  request.request_id = next_request_id_++;
  if (options_.deadline_ms != 0) {
    request.flags |= kFrameFlagDeadline;
    request.deadline_ms = options_.deadline_ms;
  }
  request.body = body;
  if (fd_ < 0) {
    throw Error(ErrorKind::kIo, "client connection is closed");
  }
  write_frame(fd_, request);

  Frame response;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  const ReadStatus status = read_frame(fd_, response, kind, message);
  if (status == ReadStatus::kEof) {
    throw Error(ErrorKind::kIo, "server closed the connection");
  }
  if (status == ReadStatus::kIdle) {
    // SO_RCVTIMEO expired with no reply started. The connection is now
    // ambiguous (the reply may still arrive and desynchronize matching),
    // so a retry must reconnect first — which the transport flag forces.
    throw Error(ErrorKind::kIo,
                "timed out waiting for a response (" +
                    std::to_string(options_.recv_timeout_ms) + " ms)");
  }
  if (status == ReadStatus::kError) throw Error(kind, message);
  if (!response.is_response() ||
      response.request_id != request.request_id) {
    throw Error(ErrorKind::kCorrupt,
                "response does not match the outstanding request");
  }
  // A matching response header means the server processed the request:
  // whatever it says, resending would duplicate work, not repair it.
  *transport = false;
  last_brownout_ = response.is_brownout();
  WireReader reader(response.body);
  const std::uint8_t wire = reader.u8();
  if (wire != kStatusOk) {
    throw Error(error_kind_for_status(wire), reader.str());
  }
  return response.body.substr(1);
}

std::string ServeClient::call(Op op, const std::string& body) {
  const RetryPolicy& retry = options_.retry;
  std::uint64_t rng_state =
      retry.jitter_seed ^ (static_cast<std::uint64_t>(next_request_id_) *
                           0x9e3779b97f4a7c15ull);
  std::uint64_t slept_ms = 0;
  for (std::size_t attempt = 1;; ++attempt) {
    bool transport = false;
    try {
      return call_once(op, body, &transport);
    } catch (const Error& e) {
      const bool retryable =
          transport && idempotent(op) && attempt < retry.max_attempts;
      if (!retryable) throw;
      // Full jitter: sleep uniform in [0, min(max, base << attempt)],
      // bounded by the per-call budget so pathological outages fail
      // fast instead of sleeping forever.
      const std::uint64_t shift = attempt < 20 ? attempt : 20;
      const std::uint64_t cap = std::min<std::uint64_t>(
          retry.max_backoff_ms, retry.base_backoff_ms << shift);
      const std::uint64_t backoff = splitmix64(rng_state) % (cap + 1);
      if (slept_ms + backoff > retry.budget_ms) throw;
      slept_ms += backoff;
      if (backoff != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      try {
        reconnect();
      } catch (const Error&) {
        // The endpoint is still down; keep backing off until the
        // attempt or sleep budget runs out, then surface this failure.
        if (attempt + 1 >= retry.max_attempts) throw;
      }
    }
  }
}

ServeClient::Health ServeClient::ping() {
  const std::string payload = call(Op::kPing);
  Health health;
  if (payload.empty()) return health;  // v1 daemon: empty ping body
  WireReader reader(payload);
  health.queue_depth = reader.u32();
  health.workers = reader.u32();
  health.model_generation = reader.u64();
  health.brownout = reader.u8() != 0;
  health.sessions = reader.u32();
  return health;
}

ServeClient::SessionInfo ServeClient::load_session_inline(
    const std::string& name, const std::string& bench_text,
    bool standardize) {
  std::string body;
  WireWriter writer(body);
  writer.str(name);
  writer.u8(1);  // source 1: inline .bench text
  writer.str(bench_text);
  writer.u8(standardize ? 1 : 0);
  const std::string payload = call(Op::kLoadSession, body);
  WireReader reader(payload);
  SessionInfo info;
  info.nodes = reader.u32();
  info.edges = reader.u32();
  return info;
}

Matrix ServeClient::infer(const std::string& session) {
  std::string body;
  WireWriter writer(body);
  writer.str(session);
  const std::string payload = call(Op::kInfer, body);
  WireReader reader(payload);
  const std::uint32_t rows = reader.u32();
  const std::uint32_t cols = reader.u32();
  Matrix logits(rows, cols);
  for (std::uint32_t r = 0; r < rows; ++r) {
    float* row = logits.row(r);
    for (std::uint32_t c = 0; c < cols; ++c) row[c] = reader.f32();
  }
  return logits;
}

ServeClient::ObserveResult ServeClient::append_observe(
    const std::string& session, NodeId target) {
  std::string body;
  WireWriter writer(body);
  writer.str(session);
  writer.u32(target);
  const std::string payload = call(Op::kAppendObserve, body);
  WireReader reader(payload);
  ObserveResult result;
  result.op = reader.u32();
  result.node_count = reader.u32();
  return result;
}

ServeClient::ControlResult ServeClient::append_control(
    const std::string& session, NodeId target, bool drive_to_one) {
  std::string body;
  WireWriter writer(body);
  writer.str(session);
  writer.u32(target);
  writer.u8(drive_to_one ? 1 : 0);
  const std::string payload = call(Op::kAppendControl, body);
  WireReader reader(payload);
  ControlResult result;
  result.control = reader.u32();
  result.gate = reader.u32();
  result.inverter = reader.u32();
  return result;
}

std::string ServeClient::stats_json() {
  const std::string payload = call(Op::kStats);
  WireReader reader(payload);
  return reader.str();
}

ServeClient::MetricsResult ServeClient::metrics(bool include_slow) {
  std::string body;
  WireWriter writer(body);
  writer.u8(include_slow ? 0x1 : 0x0);
  const std::string payload = call(Op::kMetrics, body);
  WireReader reader(payload);
  MetricsResult result;
  result.exposition = reader.str();
  result.slow_json = reader.str();
  return result;
}

std::uint64_t ServeClient::reload(const std::string& path) {
  std::string body;
  WireWriter writer(body);
  writer.str(path);
  const std::string payload = call(Op::kReloadModel, body);
  WireReader reader(payload);
  return reader.u64();
}

void ServeClient::close_session(const std::string& name) {
  std::string body;
  WireWriter writer(body);
  writer.str(name);
  call(Op::kCloseSession, body);
}

void ServeClient::shutdown() { call(Op::kShutdown); }

}  // namespace gcnt::serve
