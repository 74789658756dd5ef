// End-to-end tests of the `gcnt serve` daemon over a real Unix socket:
// bit-identity of served logits against direct GcnModel::infer, the
// incremental append-observe / append-control paths, hot reload,
// admission control, malformed-frame handling, and clean shutdown.
//
// The serving contract these tests pin: serving changes where the bits
// are computed — across connections, worker threads, and batches —
// never which bits.

#include <gtest/gtest.h>

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
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
/// from it. The .bench round trip renumbers nodes, so bit-identity
/// references must come from the re-parsed netlist, not the generated
/// one — the server and the test must agree on node ids and summation
/// order exactly.
struct Circuit {
  std::string text;
  Netlist netlist;
};

Circuit canonical_circuit(std::uint64_t seed = 3, std::size_t gates = 260) {
  std::string text = write_bench_string(small_circuit(seed, gates));
  Netlist netlist = read_bench_string(text);
  return Circuit{std::move(text), std::move(netlist)};
}

/// What the single-shot pipeline computes for this netlist.
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

NodeId first_observe_target(const Netlist& netlist) {
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const CellType t = netlist.type(v);
    if (is_sink(t) || t == CellType::kInput) continue;
    bool has_op = false;
    for (NodeId g : netlist.fanouts(v)) {
      if (netlist.type(g) == CellType::kObserve) has_op = true;
    }
    if (!has_op) return v;
  }
  return kInvalidNode;
}

/// Owns the on-disk fixtures (model artifact, socket path) and the
/// in-process daemon for one test.
class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps the threads1/threads8 ctest registrations of this
    // binary — which run concurrently under `ctest -j` in one working
    // directory — from colliding on sockets and artifacts.
    const std::string tag =
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "_" + std::to_string(::getpid());
    model_path_ = "serve_model_" + tag + ".bin";
    socket_path_ = "serve_" + tag + ".sock";
    model_ = std::make_unique<GcnModel>(small_config());
    save_model_file(*model_, model_path_);
  }

  void TearDown() override {
    if (server_) {
      server_->request_stop();
      server_->wait();
      server_.reset();
    }
    ::unlink(model_path_.c_str());
    ::unlink(socket_path_.c_str());
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

  ServeClient connect() { return ServeClient::connect_unix(socket_path_); }

  std::string model_path_;
  std::string socket_path_;
  std::unique_ptr<GcnModel> model_;
  std::unique_ptr<ServeServer> server_;
};

TEST_F(ServeServerTest, PingAndSessionLifecycle) {
  start(options());
  ServeClient client = connect();
  client.ping();

  const Circuit circuit = canonical_circuit();
  const auto info =
      client.load_session_inline("s1", circuit.text, /*standardize=*/false);
  EXPECT_EQ(info.nodes, circuit.netlist.size());
  EXPECT_EQ(info.edges, circuit.netlist.edge_count());
  EXPECT_EQ(server_->session_count(), 1u);

  client.close_session("s1");
  EXPECT_EQ(server_->session_count(), 0u);
  try {
    client.infer("s1");
    FAIL() << "expected Error{kUsage}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUsage);
  }
}

TEST_F(ServeServerTest, InferIsBitIdenticalToSingleShot) {
  start(options());
  ServeClient client = connect();
  const Circuit circuit = canonical_circuit();
  client.load_session_inline("s1", circuit.text, false);

  const Matrix expected = reference_logits(circuit.netlist, *model_);
  // Twice: the second request is a warm-cache hit and must not drift.
  expect_bit_identical(client.infer("s1"), expected);
  expect_bit_identical(client.infer("s1"), expected);
}

TEST_F(ServeServerTest, ConcurrentClientsStayBitIdentical) {
  ServeOptions opts = options();
  opts.workers = 4;
  start(opts);

  const Circuit a = canonical_circuit(3);
  const Circuit b = canonical_circuit(11, 180);
  {
    ServeClient setup = connect();
    setup.load_session_inline("a", a.text, false);
    setup.load_session_inline("b", b.text, false);
  }
  const Matrix expected_a = reference_logits(a.netlist, *model_);
  const Matrix expected_b = reference_logits(b.netlist, *model_);

  constexpr int kClients = 6;
  constexpr int kRounds = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ServeClient client = ServeClient::connect_unix(socket_path_);
      const Matrix& expected = (i % 2 == 0) ? expected_a : expected_b;
      const std::string session = (i % 2 == 0) ? "a" : "b";
      for (int round = 0; round < kRounds; ++round) {
        const Matrix got = client.infer(session);
        if (got.rows() != expected.rows() ||
            got.cols() != expected.cols()) {
          failures.fetch_add(1);
          return;
        }
        for (std::size_t k = 0; k < got.size(); ++k) {
          if (got.data()[k] != expected.data()[k]) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServeServerTest, AppendObserveMatchesFullRebuild) {
  start(options());
  ServeClient client = connect();
  Circuit circuit = canonical_circuit();
  Netlist& netlist = circuit.netlist;
  client.load_session_inline("s1", circuit.text, false);
  // Warm the caches first so the append exercises the dirty-cone path.
  client.infer("s1");

  const NodeId target = first_observe_target(netlist);
  ASSERT_NE(target, kInvalidNode);
  const auto result = client.append_observe("s1", target);
  EXPECT_EQ(result.node_count, netlist.size() + 1);

  const NodeId local_op = netlist.insert_observe_point(target);
  EXPECT_EQ(result.op, local_op);
  expect_bit_identical(client.infer("s1"),
                       reference_logits(netlist, *model_));
}

TEST_F(ServeServerTest, AppendControlMatchesFullRebuild) {
  start(options());
  ServeClient client = connect();
  Circuit circuit = canonical_circuit();
  Netlist& netlist = circuit.netlist;
  client.load_session_inline("s1", circuit.text, false);
  client.infer("s1");

  const NodeId target = first_observe_target(netlist);
  ASSERT_NE(target, kInvalidNode);
  const auto result = client.append_control("s1", target, true);

  const Netlist::ControlPoint local =
      netlist.insert_control_point(target, true);
  EXPECT_EQ(result.control, local.control);
  EXPECT_EQ(result.gate, local.gate);
  EXPECT_EQ(result.inverter, local.inverter);
  expect_bit_identical(client.infer("s1"),
                       reference_logits(netlist, *model_));
}

TEST_F(ServeServerTest, InvalidTargetsGetTypedUsageErrors) {
  start(options());
  ServeClient client = connect();
  const Circuit circuit = canonical_circuit();
  const Netlist& netlist = circuit.netlist;
  client.load_session_inline("s1", circuit.text, false);
  try {
    client.append_observe("s1", static_cast<NodeId>(netlist.size() + 7));
    FAIL() << "expected Error{kUsage}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUsage);
  }
  // The session survives a rejected edit.
  expect_bit_identical(client.infer("s1"),
                       reference_logits(netlist, *model_));
}

TEST_F(ServeServerTest, HotReloadSwapsModelsAtomically) {
  start(options());
  ServeClient client = connect();
  const Circuit circuit = canonical_circuit();
  const Netlist& netlist = circuit.netlist;
  client.load_session_inline("s1", circuit.text, false);
  expect_bit_identical(client.infer("s1"),
                       reference_logits(netlist, *model_));

  // Swap in a differently-seeded model; served logits must follow.
  const GcnModel other(small_config(/*seed=*/77));
  const std::string other_path = model_path_ + ".other";
  save_model_file(other, other_path);
  EXPECT_EQ(client.reload(other_path), 2u);
  expect_bit_identical(client.infer("s1"), reference_logits(netlist, other));

  // And back: generation advances, logits return exactly.
  EXPECT_EQ(client.reload(model_path_), 3u);
  expect_bit_identical(client.infer("s1"),
                       reference_logits(netlist, *model_));
  ::unlink(other_path.c_str());
}

TEST_F(ServeServerTest, ReloadFailureLeavesServedModelUntouched) {
  start(options());
  ServeClient client = connect();
  const Circuit circuit = canonical_circuit();
  const Netlist& netlist = circuit.netlist;
  client.load_session_inline("s1", circuit.text, false);
  try {
    client.reload("no_such_model_artifact.bin");
    FAIL() << "expected Error{kIo}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
  expect_bit_identical(client.infer("s1"),
                       reference_logits(netlist, *model_));
}

TEST_F(ServeServerTest, BadProtocolVersionGetsTypedError) {
  start(options());
  ServeClient client = connect();
  Frame frame;
  frame.version = 9;
  frame.opcode = static_cast<std::uint8_t>(Op::kPing);
  frame.request_id = 5;
  write_frame(client.fd(), frame);

  Frame response;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  ASSERT_EQ(read_frame(client.fd(), response, kind, message),
            ReadStatus::kFrame);
  WireReader reader(response.body);
  EXPECT_EQ(error_kind_for_status(reader.u8()), ErrorKind::kVersion);
  // The connection survives a version mismatch: same client, good frame.
  client.ping();
}

TEST_F(ServeServerTest, UnknownOpcodeGetsTypedError) {
  start(options());
  ServeClient client = connect();
  Frame frame;
  frame.opcode = 0x42;
  frame.request_id = 6;
  write_frame(client.fd(), frame);

  Frame response;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  ASSERT_EQ(read_frame(client.fd(), response, kind, message),
            ReadStatus::kFrame);
  EXPECT_EQ(response.request_id, 6u);
  WireReader reader(response.body);
  EXPECT_EQ(error_kind_for_status(reader.u8()), ErrorKind::kUsage);
  client.ping();
}

TEST_F(ServeServerTest, MalformedFrameClosesConnectionWithoutLeakingState) {
  start(options());
  ServeClient good = connect();
  const Circuit circuit = canonical_circuit();
  const Netlist& netlist = circuit.netlist;
  good.load_session_inline("s1", circuit.text, false);

  {
    // A hostile length prefix: typed error reply, then the connection is
    // dropped (the stream cannot be resynced).
    ServeClient hostile = connect();
    const std::uint32_t huge = 0xfffffff0u;
    ASSERT_EQ(::write(hostile.fd(), &huge, 4), 4);
    Frame response;
    ErrorKind kind = ErrorKind::kInternal;
    std::string message;
    ASSERT_EQ(read_frame(hostile.fd(), response, kind, message),
              ReadStatus::kFrame);
    WireReader reader(response.body);
    EXPECT_EQ(error_kind_for_status(reader.u8()), ErrorKind::kCorrupt);
    EXPECT_EQ(read_frame(hostile.fd(), response, kind, message),
              ReadStatus::kEof);
  }

  // Sessions are server-scoped: the hostile connection leaked nothing.
  EXPECT_EQ(server_->session_count(), 1u);
  expect_bit_identical(good.infer("s1"),
                       reference_logits(netlist, *model_));
}

TEST_F(ServeServerTest, ServerSideFileSourceIsAnUnknownSourceKind) {
  start(options());
  ServeClient client = connect();
  // Inline text (source 1) is the only source kind: the daemon never
  // opens a path a peer sends, even one it could read.
  std::string body;
  WireWriter writer(body);
  writer.str("s1");
  writer.u8(0);
  writer.str(model_path_);
  writer.u8(0);
  try {
    client.call(Op::kLoadSession, body);
    FAIL() << "expected Error{kUsage}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUsage);
    EXPECT_NE(std::string(e.what()).find("unknown netlist source kind 0"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server_->session_count(), 0u);
}

TEST_F(ServeServerTest, SessionLimitIsATypedResourceError) {
  ServeOptions opts = options();
  opts.max_sessions = 1;
  start(opts);
  ServeClient client = connect();
  const std::string text = canonical_circuit().text;
  client.load_session_inline("one", text, false);
  try {
    client.load_session_inline("two", text, false);
    FAIL() << "expected Error{kResource}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResource);
  }
}

TEST_F(ServeServerTest, OverloadRepliesResourceError) {
  ServeOptions opts = options();
  opts.workers = 1;
  opts.queue_limit = 1;
  start(opts);

  // Everything on one connection: the daemon's reader admits frames in
  // arrival order, so by the time it reaches the pings the first load is
  // on the worker and the second fills the one queue slot — the pings
  // must be rejected with the typed `resource` error (never silently
  // dropped, never a hang) long before the worker drains the loads.
  const std::string big = write_bench_string(small_circuit(5, 40000));
  ServeClient client = connect();
  const auto send_load = [&](const std::string& name, std::uint32_t id) {
    Frame frame;
    frame.opcode = static_cast<std::uint8_t>(Op::kLoadSession);
    frame.request_id = id;
    WireWriter writer(frame.body);
    writer.str(name);
    writer.u8(1);  // inline .bench text
    writer.str(big);
    writer.u8(0);
    write_frame(client.fd(), frame);
  };
  send_load("big1", 1);  // queued, popped by the worker
  send_load("big2", 2);  // fills the queue (or is itself rejected)
  constexpr std::uint32_t kBurst = 16;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    Frame frame;
    frame.opcode = static_cast<std::uint8_t>(Op::kPing);
    frame.request_id = 100 + i;
    write_frame(client.fd(), frame);
  }

  // Replies arrive in completion order (rejections first, the slow load
  // results last); classify all of them by status and request id.
  std::size_t ok = 0, overloaded = 0;
  bool big1_ok = false;
  for (std::uint32_t i = 0; i < kBurst + 2; ++i) {
    Frame response;
    ErrorKind kind = ErrorKind::kInternal;
    std::string message;
    ASSERT_EQ(read_frame(client.fd(), response, kind, message),
              ReadStatus::kFrame);
    WireReader reader(response.body);
    const std::uint8_t status = reader.u8();
    if (status == kStatusOk) {
      ++ok;
      if (response.request_id == 1) big1_ok = true;
    } else {
      ASSERT_EQ(error_kind_for_status(status), ErrorKind::kResource);
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst + 2);
  // The queue was empty when big1 arrived, so it must have been served.
  EXPECT_TRUE(big1_ok);
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(server_->session_count(), 1u);
}

TEST_F(ServeServerTest, ShutdownRequestDrainsAndJoins) {
  start(options());
  ServeClient client = connect();
  const Netlist netlist = small_circuit();
  client.load_session_inline("s1", write_bench_string(netlist), false);
  client.infer("s1");
  client.shutdown();  // acknowledged before the daemon exits
  server_->wait();    // must return: every thread joined, queue drained
  server_.reset();
}

TEST_F(ServeServerTest, StatsReportServing) {
  start(options());
  set_stats_enabled(true);
  ServeClient client = connect();
  client.ping();
  const std::string json = client.stats_json();
  set_stats_enabled(false);
  EXPECT_NE(json.find("serve.requests"), std::string::npos);
}

TEST_F(ServeServerTest, MetricsExpositionReportsQuantilesAndDeltas) {
  start(options());
  set_stats_enabled(true);
  StatsRegistry::instance().reset();
  ServeClient client = connect();
  const Circuit circuit = canonical_circuit();
  client.load_session_inline("s1", circuit.text, false);
  for (int i = 0; i < 4; ++i) client.infer("s1");

  const ServeClient::MetricsResult first = client.metrics(true);
  std::map<std::string, double> series;
  std::string error;
  ASSERT_TRUE(parse_prometheus_text(first.exposition, series, error))
      << error;
  EXPECT_GE(series.at("gcnt_serve_requests_total"), 5.0);
  EXPECT_GE(series.at("gcnt_serve_op_infer_total"), 4.0);
  EXPECT_EQ(series.count("gcnt_serve_request_ns{quantile=\"0.5\"}"), 1u);
  EXPECT_EQ(series.count("gcnt_serve_request_ns{quantile=\"0.99\"}"), 1u);
  EXPECT_EQ(series.count("gcnt_serve_queue_wait_us{quantile=\"0.99\"}"), 1u);
  EXPECT_EQ(series.count("gcnt_serve_batch_size{quantile=\"0.5\"}"), 1u);
  EXPECT_EQ(series.count("gcnt_serve_queue_depth"), 1u);
  // The very first scrape has no previous snapshot -> no deltas.
  EXPECT_EQ(first.exposition.find("_delta"), std::string::npos);
  // --slow dump: a JSON array whose entries carry phase timings.
  json::Value slow;
  ASSERT_TRUE(json::parse(first.slow_json, slow, error)) << error;
  ASSERT_EQ(slow.type, json::Value::Type::kArray);
  ASSERT_FALSE(slow.array.empty());
  bool saw_infer = false;
  for (const json::Value& entry : slow.array) {
    ASSERT_EQ(entry.type, json::Value::Type::kObject);
    ASSERT_NE(entry.find("rid"), nullptr);
    ASSERT_NE(entry.find("service_us"), nullptr);
    const json::Value* op = entry.find("op");
    ASSERT_NE(op, nullptr);
    if (op->text == "infer") {
      saw_infer = true;
      EXPECT_NE(entry.find("forward_us"), nullptr);
    }
  }
  EXPECT_TRUE(saw_infer);

  client.infer("s1");
  const ServeClient::MetricsResult second = client.metrics();
  std::map<std::string, double> series2;
  ASSERT_TRUE(parse_prometheus_text(second.exposition, series2, error))
      << error;
  // Second scrape reports deltas since the first: the infer + the first
  // scrape's own kMetrics request.
  EXPECT_EQ(series2.at("gcnt_serve_op_infer_delta"), 1.0);
  EXPECT_EQ(series2.at("gcnt_serve_requests_delta"), 2.0);
  EXPECT_EQ(second.slow_json, "");  // not requested this time
  set_stats_enabled(false);
}

TEST_F(ServeServerTest, AccessLogWritesOneParsableLinePerRequest) {
  const std::string log_path = model_path_ + ".access.jsonl";
  ServeOptions opts = options();
  opts.access_log = log_path;
  start(opts);
  set_stats_enabled(true);
  {
    ServeClient client = connect();
    const Circuit circuit = canonical_circuit();
    client.load_session_inline("s1", circuit.text, false);
    for (int i = 0; i < 3; ++i) client.infer("s1");
    client.ping();
    try {
      client.infer("nope");  // error replies are logged too
      FAIL() << "expected Error{kUsage}";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kUsage);
    }
  }
  set_stats_enabled(false);
  // load + 3 infers + ping + failed infer = 6 completed requests. The
  // line is written just after the reply, so briefly poll for the last.
  for (int i = 0; i < 200 && server_->access_log_lines() < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->access_log_lines(), 6u);

  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  std::size_t usage_lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::parse(line, value, error))
        << "line " << lines << ": " << error << "\n" << line;
    ASSERT_EQ(value.type, json::Value::Type::kObject);
    for (const char* key :
         {"ts_us", "rid", "request_id", "op", "service_us", "outcome"}) {
      EXPECT_NE(value.find(key), nullptr) << key << " missing: " << line;
    }
    const json::Value* outcome = value.find("outcome");
    if (outcome->text == "usage") {
      ++usage_lines;
      EXPECT_NE(value.find("error"), nullptr);
    }
  }
  EXPECT_EQ(lines, 6u);
  EXPECT_EQ(usage_lines, 1u);
  ::unlink(log_path.c_str());
}

/// This process's mapped address space in kB (VmSize, /proc/self/status).
long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      long kb = 0;
      status >> kb;
      return kb;
    }
    std::getline(status, key);
  }
  return -1;
}

// Every accepted connection runs on its own reader thread. A finished
// reader must be joined while the daemon runs: unjoined, its stack stays
// mapped until shutdown, so the address space grows with every
// connection the daemon has ever accepted.
TEST_F(ServeServerTest, FinishedReadersAreReaped) {
  start(options());
  const auto ping_once = [this] {
    ServeClient client = connect();
    client.ping();
  };
  // Warm up first: the allocator's per-thread arenas settle.
  for (int i = 0; i < 16; ++i) ping_once();
  const long before_kb = vm_size_kb();
  ASSERT_GT(before_kb, 0);
  constexpr long kConnections = 200;
  for (long i = 0; i < kConnections; ++i) ping_once();
  const long grown_kb = vm_size_kb() - before_kb;

  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  std::size_t stack_bytes = 0;
  pthread_attr_getstacksize(&attr, &stack_bytes);
  pthread_attr_destroy(&attr);
  const long stack_kb = static_cast<long>(stack_bytes / 1024);
  ASSERT_GT(stack_kb, 0);
  // Unreaped, the readers would keep kConnections stacks mapped; allow a
  // few that are still finishing.
  EXPECT_LT(grown_kb, 16 * stack_kb)
      << kConnections << " sequential connections grew VmSize by "
      << grown_kb << " kB (thread stack " << stack_kb << " kB)";
}

TEST_F(ServeServerTest, SlowRingKeepsWorstRequestsSorted) {
  SlowRequestRing ring(2);
  AccessRecord fast;
  fast.rid = 1;
  fast.service_us = 10;
  AccessRecord slow;
  slow.rid = 2;
  slow.service_us = 500;
  AccessRecord slower;
  slower.rid = 3;
  slower.service_us = 900;
  ring.offer(fast);
  ring.offer(slow);
  ring.offer(slower);  // evicts `fast`

  json::Value parsed;
  std::string error;
  ASSERT_TRUE(json::parse(ring.to_json(), parsed, error)) << error;
  ASSERT_EQ(parsed.array.size(), 2u);
  EXPECT_EQ(parsed.array[0].find("rid")->number, 3.0);  // slowest first
  EXPECT_EQ(parsed.array[1].find("rid")->number, 2.0);
}

}  // namespace
}  // namespace gcnt::serve
