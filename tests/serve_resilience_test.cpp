// Resilience tests for the `gcnt serve` daemon: per-request deadlines
// (shed at dequeue and mid-batch), brownout serving from cached logits,
// the worker watchdog (log / abort / quarantine), connection hygiene
// (idle reaping, mid-frame stall drops, the connection cap), client
// timeouts and retry/backoff, the one-access-line-per-request rule under
// failed sends, rejections and batching, and a chaos sweep driving the
// GCNT_FAULT_INJECT serve probes end to end.
//
// The contract under test: faults change which requests are *answered*
// — never whether the daemon survives, and never the bits of the
// requests it does answer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/fault_inject.h"
#include "common/json.h"
#include "common/stats.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gcn/serialize.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "scoap/scoap.h"
#include "serve/client.h"
#include "serve/server.h"

namespace gcnt::serve {
namespace {

GcnConfig small_config(std::uint64_t seed = 31) {
  GcnConfig config;
  config.depth = 2;
  config.embed_dims = {8, 12};
  config.fc_dims = {10};
  config.seed = seed;
  return config;
}

Netlist small_circuit(std::uint64_t seed = 3, std::size_t gates = 260) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.target_gates = gates;
  return generate_circuit(gen);
}

/// A circuit as both .bench text and the netlist the server will parse
/// from it (the .bench round trip renumbers nodes; see serve_server_test).
struct Circuit {
  std::string text;
  Netlist netlist;
};

Circuit canonical_circuit(std::uint64_t seed = 3, std::size_t gates = 260) {
  std::string text = write_bench_string(small_circuit(seed, gates));
  Netlist netlist = read_bench_string(text);
  return Circuit{std::move(text), std::move(netlist)};
}

Matrix reference_logits(const Netlist& netlist, const GcnModel& model) {
  const ScoapMeasures scoap = compute_scoap(netlist);
  const std::vector<std::uint32_t> levels = netlist.logic_levels();
  const GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  return model.infer(tensors);
}

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

std::uint64_t counter_value(const char* name) {
  return StatsRegistry::instance().counter(name).value();
}

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Owns the on-disk fixtures and the in-process daemon for one test.
/// Stats are enabled for the duration (the resilience counters are the
/// observable contract) and every fault probe is disarmed on both ends.
class ServeResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_fault_injection();
    set_stats_enabled(true);
    const std::string tag =
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "_" + std::to_string(::getpid());
    model_path_ = "serve_res_model_" + tag + ".bin";
    socket_path_ = "serve_res_" + tag + ".sock";
    model_ = std::make_unique<GcnModel>(small_config());
    save_model_file(*model_, model_path_);
  }

  void TearDown() override {
    clear_fault_injection();
    if (server_) {
      server_->request_stop();
      server_->wait();
      server_.reset();
    }
    set_stats_enabled(false);
    ::unlink(model_path_.c_str());
    ::unlink(socket_path_.c_str());
    ::unlink(access_log_path().c_str());
  }

  ServeOptions options() const {
    ServeOptions options;
    options.model_path = model_path_;
    options.unix_socket = socket_path_;
    return options;
  }

  void start(ServeOptions options) {
    server_ = std::make_unique<ServeServer>(std::move(options));
    server_->start();
  }

  ServeClient connect(const ClientOptions& client_options = {}) {
    return ServeClient::connect_unix(socket_path_, client_options);
  }

  /// Arms exactly the clauses in `text` (counters reset).
  static void arm(const std::string& text) {
    set_fault_spec(parse_fault_spec(text));
  }

  /// Fires one raw request frame without waiting for its reply.
  static void send_raw(int fd, Op op, std::uint32_t request_id,
                       const std::string& body = {},
                       std::uint32_t deadline_ms = 0) {
    Frame frame;
    frame.opcode = static_cast<std::uint8_t>(op);
    frame.request_id = request_id;
    frame.body = body;
    if (deadline_ms != 0) {
      frame.flags |= kFrameFlagDeadline;
      frame.deadline_ms = deadline_ms;
    }
    write_frame(fd, frame);
  }

  /// Blocks for one response frame; returns its wire status byte.
  static std::uint8_t read_status(int fd, Frame& response) {
    ErrorKind kind = ErrorKind::kInternal;
    std::string message;
    const ReadStatus status = read_frame(fd, response, kind, message);
    EXPECT_EQ(status, ReadStatus::kFrame) << message;
    if (status != ReadStatus::kFrame) return 0xff;
    WireReader reader(response.body);
    return reader.u8();
  }

  static std::string infer_body(const std::string& session) {
    std::string body;
    WireWriter writer(body);
    writer.str(session);
    return body;
  }

  /// Options with a JSON-lines access log at access_log_path().
  ServeOptions logged_options() const {
    ServeOptions opts = options();
    opts.access_log = access_log_path();
    return opts;
  }

  std::string access_log_path() const { return model_path_ + ".access"; }

  /// Waits for `expected` access-log lines, gives a stray extra line time
  /// to land, and returns every line parsed.
  std::vector<json::Value> access_lines(std::size_t expected) {
    for (int i = 0; i < 400 && server_->access_log_lines() < expected; ++i) {
      sleep_ms(5);
    }
    sleep_ms(50);
    std::vector<json::Value> lines;
    std::ifstream in(access_log_path());
    std::string text;
    while (std::getline(in, text)) {
      json::Value line;
      std::string error;
      EXPECT_TRUE(json::parse(text, line, error)) << error << "\n" << text;
      lines.push_back(std::move(line));
    }
    return lines;
  }

  /// Access-log lines whose `key` field has string value `value`.
  static std::vector<const json::Value*> lines_with(
      const std::vector<json::Value>& lines, const char* key,
      const std::string& value) {
    std::vector<const json::Value*> out;
    for (const json::Value& line : lines) {
      const json::Value* field = line.find(key);
      if (field != nullptr && field->text == value) out.push_back(&line);
    }
    return out;
  }

  /// Distinct request sequence numbers among `lines`.
  static std::size_t distinct_rids(const std::vector<json::Value>& lines) {
    std::set<double> rids;
    for (const json::Value& line : lines) rids.insert(line.find("rid")->number);
    return rids.size();
  }

  std::string model_path_;
  std::string socket_path_;
  std::unique_ptr<GcnModel> model_;
  std::unique_ptr<ServeServer> server_;
};

// ---------------------------------------------------------------------------
// Deadlines

TEST_F(ServeResilienceTest, DeadlineShedAtDequeue) {
  ServeOptions opts = options();
  opts.workers = 1;
  start(opts);
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);
  setup.infer("s1");

  const std::uint64_t shed_before = counter_value("serve.shed_deadline");
  // Stall the one worker on a ping, then queue an infer whose 50 ms
  // deadline expires while the worker sleeps: it must be shed at
  // dequeue with the typed `deadline` error, not served late.
  arm("serve-delay:nth=1,ms=400");
  ServeClient blocker = connect();
  send_raw(blocker.fd(), Op::kPing, 1);
  sleep_ms(100);  // let the worker pick up the ping (and its delay)

  ClientOptions deadline_opts;
  deadline_opts.deadline_ms = 50;
  ServeClient client = connect(deadline_opts);
  try {
    client.infer("s1");
    FAIL() << "expected Error{kDeadline}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kDeadline);
  }
  Frame response;
  EXPECT_EQ(read_status(blocker.fd(), response), kStatusOk);
  EXPECT_GE(counter_value("serve.shed_deadline"), shed_before + 1);
  clear_fault_injection();
  // The shed request cost nothing: the session still serves exact bits.
  expect_bit_identical(client.infer("s1"),
                       reference_logits(circuit.netlist, *model_));
}

TEST_F(ServeResilienceTest, MidBatchDeadlineShed) {
  ServeOptions opts = options();
  opts.workers = 1;
  start(opts);
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);
  setup.infer("s1");

  const std::uint64_t shed_before = counter_value("serve.shed_batch");
  // One connection, pipelined: a delayed ping parks the worker, then two
  // same-session infers queue up. The worker claims both as one batch;
  // the second carries a 1 ms deadline that has long expired by claim
  // time and must be shed from the batch individually.
  arm("serve-delay:nth=1,ms=400");
  ServeClient client = connect();
  const int fd = client.fd();
  send_raw(fd, Op::kPing, 1);
  sleep_ms(100);
  send_raw(fd, Op::kInfer, 2, infer_body("s1"));
  send_raw(fd, Op::kInfer, 3, infer_body("s1"), /*deadline_ms=*/1);

  bool saw_ok_infer = false;
  bool saw_deadline = false;
  for (int i = 0; i < 3; ++i) {
    Frame response;
    const std::uint8_t status = read_status(fd, response);
    if (response.request_id == 2) {
      saw_ok_infer = (status == kStatusOk);
    } else if (response.request_id == 3) {
      saw_deadline =
          (error_kind_for_status(status) == ErrorKind::kDeadline);
    }
  }
  EXPECT_TRUE(saw_ok_infer);
  EXPECT_TRUE(saw_deadline);
  EXPECT_GE(counter_value("serve.shed_batch"), shed_before + 1);
}

// ---------------------------------------------------------------------------
// Brownout

TEST_F(ServeResilienceTest, BrownoutServesCachedLogitsUnderBacklog) {
  ServeOptions opts = options();
  opts.workers = 1;
  opts.brownout_queue = 1;
  start(opts);
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);
  const Matrix expected = reference_logits(circuit.netlist, *model_);
  // Warm the session cache so brownout has bits to serve.
  expect_bit_identical(setup.infer("s1"), expected);

  const std::uint64_t served_before = counter_value("serve.brownout_served");
  // Park the worker, then pile three infers into the queue: each is
  // dequeued with a non-empty backlog (depth >= 1), so all must be
  // answered from the cache with the brownout flag on the wire.
  arm("serve-delay:nth=1,ms=400");
  ServeClient client = connect();
  const int fd = client.fd();
  send_raw(fd, Op::kPing, 1);
  sleep_ms(100);
  for (std::uint32_t id = 2; id <= 4; ++id) {
    send_raw(fd, Op::kInfer, id, infer_body("s1"));
  }
  std::size_t brownout_replies = 0;
  for (int i = 0; i < 4; ++i) {
    Frame response;
    const std::uint8_t status = read_status(fd, response);
    EXPECT_EQ(status, kStatusOk);
    if (response.is_brownout()) ++brownout_replies;
  }
  EXPECT_GE(brownout_replies, 1u);
  EXPECT_GE(counter_value("serve.brownout_served"), served_before + 1);
  clear_fault_injection();

  // Once the backlog drains, a solo infer is served fresh — no flag,
  // same exact bits.
  ServeClient after = connect();
  expect_bit_identical(after.infer("s1"), expected);
  EXPECT_FALSE(after.last_brownout());
}

TEST_F(ServeResilienceTest, BrownoutMissFallsBackToForward) {
  ServeOptions opts = options();
  opts.workers = 1;
  opts.brownout_queue = 1;
  start(opts);
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);
  // No warm-up: the cache is cold, so a brownout-eligible dequeue has
  // nothing stale to serve and must fall through to a real forward.
  const std::uint64_t miss_before = counter_value("serve.brownout_miss");
  arm("serve-delay:nth=1,ms=300");
  ServeClient client = connect();
  const int fd = client.fd();
  send_raw(fd, Op::kPing, 1);
  sleep_ms(80);
  send_raw(fd, Op::kInfer, 2, infer_body("s1"));
  send_raw(fd, Op::kInfer, 3, infer_body("s1"));
  for (int i = 0; i < 3; ++i) {
    Frame response;
    EXPECT_EQ(read_status(fd, response), kStatusOk);
  }
  EXPECT_GE(counter_value("serve.brownout_miss"), miss_before + 1);
  clear_fault_injection();
  expect_bit_identical(connect().infer("s1"),
                       reference_logits(circuit.netlist, *model_));
}

// ---------------------------------------------------------------------------
// Watchdog

TEST_F(ServeResilienceTest, WatchdogQuarantinesStuckSession) {
  ServeOptions opts = options();
  opts.workers = 2;
  opts.watchdog_budget_ms = 100;
  opts.watchdog_action = WatchdogAction::kQuarantine;
  start(opts);
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);
  setup.infer("s1");

  const std::uint64_t stuck_before = counter_value("serve.watchdog_stuck");
  // Wedge one worker inside an s1 infer for far longer than the budget;
  // the watchdog must flag it and take s1 out of service.
  arm("serve-delay:nth=1,ms=600");
  ServeClient stuck = connect();
  send_raw(stuck.fd(), Op::kInfer, 1, infer_body("s1"));
  sleep_ms(350);  // budget 100 ms + watchdog tick, with margin
  EXPECT_GE(counter_value("serve.watchdog_stuck"), stuck_before + 1);

  ServeClient client = connect();
  try {
    client.infer("s1");
    FAIL() << "expected Error{kResource}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResource);
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos)
        << e.what();
  }
  // The stuck request is still answered — quarantine never drops work
  // in flight. Here the injected stall sits before the session lookup,
  // so its own reply is the quarantine's `resource` error; a stall
  // inside the forward pass would have answered ok.
  Frame response;
  const std::uint8_t stuck_status = read_status(stuck.fd(), response);
  if (stuck_status != kStatusOk) {
    EXPECT_EQ(error_kind_for_status(stuck_status), ErrorKind::kResource);
  }
  clear_fault_injection();

  // Closing the session lifts the quarantine; a reload serves again.
  client.close_session("s1");
  client.load_session_inline("s1", circuit.text, false);
  expect_bit_identical(client.infer("s1"),
                       reference_logits(circuit.netlist, *model_));
}

TEST_F(ServeResilienceTest, WatchdogAbortClosesStuckConnection) {
  ServeOptions opts = options();
  opts.workers = 2;
  opts.watchdog_budget_ms = 100;
  opts.watchdog_action = WatchdogAction::kAbort;
  start(opts);
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);

  const std::uint64_t stuck_before = counter_value("serve.watchdog_stuck");
  arm("serve-delay:nth=1,ms=800");
  ServeClient stuck = connect();
  send_raw(stuck.fd(), Op::kInfer, 1, infer_body("s1"));

  // The watchdog must close the wedged connection: the client sees the
  // stream end instead of waiting out the full stall.
  Frame response;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  const ReadStatus status =
      read_frame(stuck.fd(), response, kind, message);
  EXPECT_NE(status, ReadStatus::kFrame);
  EXPECT_GE(counter_value("serve.watchdog_stuck"), stuck_before + 1);
  clear_fault_injection();

  // The daemon itself is unharmed: fresh connection, exact bits.
  expect_bit_identical(connect().infer("s1"),
                       reference_logits(circuit.netlist, *model_));
}

// ---------------------------------------------------------------------------
// Connection hygiene

TEST_F(ServeResilienceTest, IdleConnectionIsReaped) {
  ServeOptions opts = options();
  opts.read_timeout_ms = 100;
  opts.idle_timeout_ms = 200;
  start(opts);

  const std::uint64_t reaped_before = counter_value("serve.idle_reaped");
  ServeClient idle = connect();
  // Send nothing: after ~200 ms of silence at a frame boundary the
  // server must close the connection (EOF here), not hold it forever.
  Frame response;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_EQ(read_frame(idle.fd(), response, kind, message),
            ReadStatus::kEof);
  EXPECT_GE(counter_value("serve.idle_reaped"), reaped_before + 1);

  // Active connections are untouched by the reaper.
  ServeClient active = connect();
  active.ping();
}

TEST_F(ServeResilienceTest, MidFrameStallDropsConnection) {
  ServeOptions opts = options();
  opts.read_timeout_ms = 100;
  start(opts);

  ServeClient staller = connect();
  // Two bytes of a length prefix, then silence: a slowloris peer. The
  // mid-frame read stall must drop the connection within the budget.
  const char partial[2] = {0x10, 0x00};
  ASSERT_EQ(::write(staller.fd(), partial, 2), 2);
  Frame response;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_NE(read_frame(staller.fd(), response, kind, message),
            ReadStatus::kFrame);
  connect().ping();
}

TEST_F(ServeResilienceTest, ConnectionCapRejectsExcessPeers) {
  ServeOptions opts = options();
  opts.max_connections = 1;
  start(opts);

  ServeClient first = connect();
  first.ping();  // the reader for this connection is live

  const std::uint64_t rejected_before = counter_value("serve.conn_rejected");
  ServeClient second = connect();  // accept() succeeds, then is rejected
  Frame response;
  const std::uint8_t status = read_status(second.fd(), response);
  EXPECT_EQ(error_kind_for_status(status), ErrorKind::kResource);
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_EQ(read_frame(second.fd(), response, kind, message),
            ReadStatus::kEof);
  EXPECT_GE(counter_value("serve.conn_rejected"), rejected_before + 1);
  // The admitted peer is unaffected.
  first.ping();
}

// ---------------------------------------------------------------------------
// Client timeouts and retry

TEST_F(ServeResilienceTest, ClientRecvTimeoutSurfacesTypedIoError) {
  ServeOptions opts = options();
  opts.workers = 1;
  start(opts);

  arm("serve-delay:nth=1,ms=500");
  ClientOptions copts;
  copts.recv_timeout_ms = 100;
  ServeClient client = connect(copts);
  try {
    client.ping();
    FAIL() << "expected Error{kIo}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
}

TEST_F(ServeResilienceTest, RetryRecoversFromTornReply) {
  start(options());
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);

  // The next reply write is torn mid-frame and the connection dropped.
  // An idempotent call under a retry policy must reconnect, resend, and
  // return the exact bits as if nothing happened.
  const std::uint64_t fired_before =
      counter_value("faultinject.serve_short_write_fired");
  arm("serve-short-write:nth=1");
  ClientOptions copts;
  copts.retry.max_attempts = 3;
  copts.retry.base_backoff_ms = 1;
  copts.retry.max_backoff_ms = 5;
  ServeClient client = connect(copts);
  expect_bit_identical(client.infer("s1"),
                       reference_logits(circuit.netlist, *model_));
  EXPECT_EQ(counter_value("faultinject.serve_short_write_fired"),
            fired_before + 1);
}

TEST_F(ServeResilienceTest, NonIdempotentOpsAreNeverRetried) {
  start(options());
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);

  // Tear exactly the first reply. If the client (wrongly) retried the
  // append, the second attempt would succeed and no error would surface
  // — the throw below is the proof that it did not.
  const std::uint64_t fired_before =
      counter_value("faultinject.serve_short_write_fired");
  arm("serve-short-write:nth=1");
  ClientOptions copts;
  copts.retry.max_attempts = 3;
  copts.retry.base_backoff_ms = 1;
  ServeClient client = connect(copts);
  // append_observe mutates the session: a torn reply is ambiguous (the
  // edit may have landed), so the client must surface the transport
  // error rather than blindly resend.
  try {
    client.append_observe("s1", 0);
    FAIL() << "expected a transport Error";
  } catch (const Error& e) {
    EXPECT_TRUE(e.kind() == ErrorKind::kIo || e.kind() == ErrorKind::kCorrupt)
        << error_kind_name(e.kind());
  }
  // Exactly one attempt reached the server.
  EXPECT_EQ(counter_value("faultinject.serve_short_write_fired"),
            fired_before + 1);
}

// ---------------------------------------------------------------------------
// Access log: exactly one line per decoded request

TEST_F(ServeResilienceTest, FailedSendIsLoggedOnceAsIo) {
  start(logged_options());
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);

  // A worker's reply torn mid-frame: the infer's one line reads `io`.
  arm("serve-short-write:nth=1");
  ServeClient torn = connect();
  EXPECT_THROW(torn.infer("s1"), Error);

  // A reply the reader sends itself (a protocol-version error), torn the
  // same way: one `io` line too, not none.
  arm("serve-short-write:nth=1");
  ServeClient bad = connect();
  Frame frame;
  frame.version = 9;
  frame.opcode = static_cast<std::uint8_t>(Op::kPing);
  frame.request_id = 7;
  write_frame(bad.fd(), frame);
  Frame response;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_NE(read_frame(bad.fd(), response, kind, message),
            ReadStatus::kFrame);
  clear_fault_injection();
  expect_bit_identical(setup.infer("s1"),
                       reference_logits(circuit.netlist, *model_));

  // load + torn infer + torn ping + infer: four requests, four lines.
  const std::vector<json::Value> lines = access_lines(4);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(distinct_rids(lines), 4u);
  const auto io = lines_with(lines, "outcome", "io");
  ASSERT_EQ(io.size(), 2u);
  std::multiset<std::string> io_ops;
  for (const json::Value* line : io) {
    io_ops.insert(line->find("op")->text);
    EXPECT_NE(line->find("error")->text.find("injected short write"),
              std::string::npos);
  }
  EXPECT_EQ(io_ops, (std::multiset<std::string>{"infer", "ping"}));
}

TEST_F(ServeResilienceTest, AdmissionRejectionIsLoggedOnce) {
  ServeOptions opts = logged_options();
  opts.workers = 1;
  opts.queue_limit = 1;
  start(opts);
  // Park the one worker on a ping, then burst pings behind it: the first
  // fills the one queue slot and the rest are rejected by the reader.
  arm("serve-delay:nth=1,ms=300");
  ServeClient client = connect();
  const int fd = client.fd();
  send_raw(fd, Op::kPing, 1);
  sleep_ms(100);
  constexpr std::uint32_t kRequests = 8;
  for (std::uint32_t id = 2; id <= kRequests; ++id) send_raw(fd, Op::kPing, id);
  std::size_t rejected = 0;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    Frame response;
    const std::uint8_t status = read_status(fd, response);
    if (status != kStatusOk) {
      EXPECT_EQ(error_kind_for_status(status), ErrorKind::kResource);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);

  const std::vector<json::Value> lines = access_lines(kRequests);
  ASSERT_EQ(lines.size(), kRequests);
  EXPECT_EQ(distinct_rids(lines), kRequests);
  EXPECT_EQ(lines_with(lines, "outcome", "resource").size(), rejected);
  EXPECT_EQ(lines_with(lines, "outcome", "ok").size(), kRequests - rejected);
}

TEST_F(ServeResilienceTest, BatchedInferLogsOneLinePerMember) {
  ServeOptions opts = logged_options();
  opts.workers = 1;
  start(opts);
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);

  // Park the worker, then queue four same-session infers: the first
  // leads a batch that claims the other three, one of which carries an
  // already-expired deadline and is shed from the batch.
  arm("serve-delay:nth=1,ms=400");
  ServeClient client = connect();
  const int fd = client.fd();
  send_raw(fd, Op::kPing, 1);
  sleep_ms(100);
  send_raw(fd, Op::kInfer, 2, infer_body("s1"));
  send_raw(fd, Op::kInfer, 3, infer_body("s1"));
  send_raw(fd, Op::kInfer, 4, infer_body("s1"), /*deadline_ms=*/1);
  send_raw(fd, Op::kInfer, 5, infer_body("s1"));
  for (int i = 0; i < 5; ++i) {
    Frame response;
    const std::uint8_t status = read_status(fd, response);
    if (response.request_id == 4) {
      EXPECT_EQ(error_kind_for_status(status), ErrorKind::kDeadline);
    } else {
      EXPECT_EQ(status, kStatusOk) << "request " << response.request_id;
    }
  }

  // load + ping + four infers.
  const std::vector<json::Value> lines = access_lines(6);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(distinct_rids(lines), 6u);
  const auto infers = lines_with(lines, "op", "infer");
  ASSERT_EQ(infers.size(), 4u);
  std::set<double> served;
  for (const json::Value* line : infers) {
    const double id = line->find("request_id")->number;
    if (id == 4) {
      EXPECT_EQ(line->find("outcome")->text, "deadline");
      continue;
    }
    served.insert(id);
    EXPECT_EQ(line->find("outcome")->text, "ok");
    // Leader and both surviving members share one forward pass.
    EXPECT_EQ(line->find("batch")->number, 3.0);
  }
  EXPECT_EQ(served, (std::set<double>{2, 3, 5}));
}

// ---------------------------------------------------------------------------
// Health ping

TEST_F(ServeResilienceTest, PingReportsHealth) {
  ServeOptions opts = options();
  opts.workers = 3;
  start(opts);
  ServeClient client = connect();
  client.load_session_inline("s1", canonical_circuit().text, false);

  const ServeClient::Health health = client.ping();
  EXPECT_EQ(health.workers, 3u);
  EXPECT_GE(health.model_generation, 1u);
  EXPECT_EQ(health.sessions, 1u);
  EXPECT_FALSE(health.brownout);

  // A v1 ping gets the v1 contract: an empty body (status byte only),
  // echoed at the requester's version.
  Frame frame;
  frame.version = 1;
  frame.opcode = static_cast<std::uint8_t>(Op::kPing);
  frame.request_id = 9;
  write_frame(client.fd(), frame);
  Frame response;
  EXPECT_EQ(read_status(client.fd(), response), kStatusOk);
  EXPECT_EQ(response.version, 1u);
  EXPECT_EQ(response.body.size(), 1u);  // no health fields for v1 peers
}

// ---------------------------------------------------------------------------
// Chaos sweep

TEST_F(ServeResilienceTest, ChaosSweepSurvivesWithTypedErrorsOnly) {
  ServeOptions opts = options();
  opts.workers = 2;
  opts.watchdog_budget_ms = 2000;
  start(opts);
  ServeClient setup = connect();
  const Circuit circuit = canonical_circuit();
  setup.load_session_inline("s1", circuit.text, false);
  const Matrix expected = reference_logits(circuit.netlist, *model_);
  expect_bit_identical(setup.infer("s1"), expected);

  // Recurring torn reads, decode alloc failures, and worker delays, all
  // interleaved. The daemon must answer every request with either the
  // exact bits or a typed error — no hangs, no crashes, no leaks.
  arm("serve-torn-read:nth=5,every=7;serve-alloc:nth=3,every=5;"
      "serve-delay:nth=2,every=9,ms=20");
  ClientOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.recv_timeout_ms = 5000;
  copts.retry.max_attempts = 4;
  copts.retry.base_backoff_ms = 1;
  copts.retry.max_backoff_ms = 10;

  std::size_t ok = 0;
  std::size_t typed_errors = 0;
  auto client = std::make_unique<ServeClient>(connect(copts));
  for (int i = 0; i < 40; ++i) {
    try {
      expect_bit_identical(client->infer("s1"), expected);
      ++ok;
    } catch (const Error& e) {
      // The only acceptable failures under these faults.
      EXPECT_TRUE(e.kind() == ErrorKind::kIo ||
                  e.kind() == ErrorKind::kCorrupt ||
                  e.kind() == ErrorKind::kResource)
          << error_kind_name(e.kind()) << ": " << e.what();
      ++typed_errors;
      client = std::make_unique<ServeClient>(connect(copts));
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GT(counter_value("faultinject.serve_torn_read_fired"), 0u);
  EXPECT_GT(counter_value("faultinject.serve_alloc_fired"), 0u);
  EXPECT_GT(counter_value("faultinject.serve_delay_fired"), 0u);
  clear_fault_injection();

  // Faults off: the session is intact and still serves the exact bits.
  EXPECT_EQ(server_->session_count(), 1u);
  expect_bit_identical(connect().infer("s1"), expected);
}

}  // namespace
}  // namespace gcnt::serve
