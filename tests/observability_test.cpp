// Observability layer: stats registry (counters/gauges/histograms),
// trace spans + Chrome trace-event export, and their interaction with the
// kernel pool.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <map>

#include "common/json.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gcnt {
namespace {

/// Enables stats for one scope and restores the previous state after.
struct StatsEnabledScope {
  explicit StatsEnabledScope(bool on = true) : was_(stats_enabled()) {
    set_stats_enabled(on);
  }
  ~StatsEnabledScope() { set_stats_enabled(was_); }
  bool was_;
};

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index((1ull << 38)), 39u);
  // Values past the last boundary clamp into the final bucket.
  EXPECT_EQ(Histogram::bucket_index(~0ull), Histogram::kBucketCount - 1);

  EXPECT_EQ(Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_lower_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_lower_bound(2), 2u);
  EXPECT_EQ(Histogram::bucket_lower_bound(3), 4u);
  for (std::size_t i = 1; i + 1 < Histogram::kBucketCount; ++i) {
    // Lower bound of bucket i is the first value that maps to it.
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower_bound(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower_bound(i + 1) - 1),
              i);
  }
}

TEST(Histogram, RecordMinMaxSumReset) {
  StatsEnabledScope stats_on;
  Histogram h;
  EXPECT_EQ(h.min(), 0u);  // empty convention
  h.record(5);
  h.record(0);
  h.record(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 105u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket_count(0), 1u);                            // the zero
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(5)), 1u);   // 5
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(100)), 1u); // 100
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, DisabledRecordIsIgnored) {
  StatsEnabledScope stats_off(false);
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Counter, AddResetAndOverflowWrap) {
  StatsEnabledScope stats_on;
  Counter c;
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  // Documented convention: wraps modulo 2^64.
  c.add(~std::uint64_t{0});
  EXPECT_EQ(c.value(), 9u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  set_stats_enabled(false);
  c.add(5);
  EXPECT_EQ(c.value(), 0u);  // gated off
}

TEST(StatsRegistry, StableReferencesAndSortedSnapshot) {
  StatsEnabledScope stats_on;
  StatsRegistry& registry = StatsRegistry::instance();
  Counter& a = registry.counter("test.zzz");
  Counter& b = registry.counter("test.aaa");
  EXPECT_EQ(&a, &registry.counter("test.zzz"));
  a.reset();
  b.reset();
  a.add(2);
  b.add(3);
  registry.gauge("test.gauge").set(-7);
  registry.histogram("test.hist").record(16);

  const StatsSnapshot snap = registry.snapshot();
  // Names are sorted, so "test.aaa" precedes "test.zzz".
  std::size_t index_aaa = snap.counters.size(), index_zzz = snap.counters.size();
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (snap.counters[i].first == "test.aaa") index_aaa = i;
    if (snap.counters[i].first == "test.zzz") index_zzz = i;
  }
  ASSERT_LT(index_aaa, snap.counters.size());
  ASSERT_LT(index_zzz, snap.counters.size());
  EXPECT_LT(index_aaa, index_zzz);
  EXPECT_EQ(snap.counters[index_aaa].second, 3u);
  EXPECT_EQ(snap.counters[index_zzz].second, 2u);

  bool saw_gauge = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.gauge") {
      saw_gauge = true;
      EXPECT_EQ(value, -7);
    }
  }
  EXPECT_TRUE(saw_gauge);

  std::ostringstream text;
  registry.write_text(text);
  EXPECT_NE(text.str().find("counter test.aaa 3"), std::string::npos);
  std::ostringstream json;
  registry.write_json(json);
  EXPECT_NE(json.str().find("\"test.aaa\": 3"), std::string::npos);

  registry.reset();
  EXPECT_EQ(registry.counter("test.aaa").value(), 0u);
  EXPECT_EQ(registry.histogram("test.hist").count(), 0u);
}

TEST(KernelStatsApi, CachedPairUpdatesRegistry) {
  StatsEnabledScope stats_on;
  KernelStats& stats = kernel_stats("unit_test_kernel");
  EXPECT_EQ(&stats, &kernel_stats("unit_test_kernel"));
  stats.calls.reset();
  {
    GCNT_KERNEL_SCOPE("unit_test_kernel");
  }
  EXPECT_EQ(StatsRegistry::instance()
                .counter("kernel.unit_test_kernel.calls")
                .value(),
            1u);
  EXPECT_GE(StatsRegistry::instance()
                .histogram("kernel.unit_test_kernel.ns")
                .count(),
            1u);
}

TEST(KernelStatsApi, DisabledScopeRecordsNothing) {
  StatsEnabledScope stats_off(false);
  KernelStats& stats = kernel_stats("unit_test_kernel_off");
  stats.calls.reset();
  {
    GCNT_KERNEL_SCOPE("unit_test_kernel_off");
  }
  EXPECT_EQ(stats.calls.value(), 0u);
}

TEST(Trace, ConcurrentSpansFromPoolWorkersProduceValidFile) {
  const std::string path = "observability_concurrent_trace.json";
  set_kernel_threads(8);
  trace_reset();
  trace_start();
  // 1024 indices, min_parallel 1 -> 8 blocks; the caller runs block 0 and
  // the pool workers run the other 7, so spans land on several threads.
  for (int round = 0; round < 4; ++round) {
    parallel_blocks(1024, 1, [](std::size_t begin, std::size_t end) {
      TraceSpan span("test.block");
      span.arg("size", static_cast<double>(end - begin));
      volatile std::size_t sink = 0;
      for (std::size_t i = begin; i < end; ++i) sink += i;
    });
  }
  ASSERT_TRUE(trace_stop(path));
  set_kernel_threads(0);

  const TraceValidation result = validate_trace_file(path);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.span_count, 32u);
  EXPECT_GE(result.thread_count, 2u);
  bool saw_block = false, saw_pool_task = false;
  for (const std::string& name : result.names) {
    saw_block |= name == "test.block";
    saw_pool_task |= name == "pool.task";
  }
  EXPECT_TRUE(saw_block);
  EXPECT_TRUE(saw_pool_task);

  // Span args survive the round trip.
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"args\":{\"size\""), std::string::npos);
  std::remove(path.c_str());
}

// A span keeps three args in the order given and drops a fourth: the
// fused last layer step records rows, nnz and fc_head.
TEST(Trace, SpanKeepsThreeArgs) {
  const std::string path = "observability_three_args_trace.json";
  trace_reset();
  trace_start();
  {
    TraceSpan span("test.three_args");
    span.arg("rows", 1.0);
    span.arg("nnz", 2.0);
    span.arg("fc_head", 3.0);
    span.arg("dropped", 4.0);
  }
  ASSERT_TRUE(trace_stop(path));
  EXPECT_TRUE(validate_trace_file(path).ok);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find(
                "\"args\":{\"rows\":1,\"nnz\":2,\"fc_head\":3}"),
            std::string::npos)
      << buffer.str();
  EXPECT_EQ(buffer.str().find("dropped"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, DisabledSpansRecordNothing) {
  const std::string path = "observability_disabled_trace.json";
  trace_reset();
  {
    TraceSpan span("test.should_not_appear");
    span.arg("x", 1.0);
  }
  ASSERT_TRUE(trace_stop(path));  // writes whatever was recorded: nothing
  const TraceValidation result = validate_trace_file(path);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.span_count, 0u);
  std::remove(path.c_str());
}

TEST(Trace, ValidatorRejectsMalformedFiles) {
  EXPECT_FALSE(validate_trace_file("no_such_file_12345.json").ok);

  const std::string path = "observability_bad_trace.json";
  {
    std::ofstream out(path);
    out << "{\"traceEvents\":[{\"name\":\"x\"}]}";  // missing ph/pid/tid
  }
  EXPECT_FALSE(validate_trace_file(path).ok);
  {
    std::ofstream out(path);
    out << "not json at all";
  }
  EXPECT_FALSE(validate_trace_file(path).ok);
  {
    // Regressing completion times within one tid must be rejected.
    std::ofstream out(path);
    out << "{\"traceEvents\":["
           "{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":100,"
           "\"dur\":50},"
           "{\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10,"
           "\"dur\":5}]}";
  }
  EXPECT_FALSE(validate_trace_file(path).ok);
  std::remove(path.c_str());
}

TEST(Trace, RingBufferDropsOldestAndCounts) {
  trace_reset();
  trace_start();
  // Default ring capacity is 65536 per thread; push past it.
  for (int i = 0; i < 70000; ++i) {
    TraceSpan span("test.flood");
  }
  EXPECT_GT(trace_dropped_spans(), 0u);
  trace_reset();
  EXPECT_EQ(trace_dropped_spans(), 0u);
  const std::string path = "observability_flood_trace.json";
  ASSERT_TRUE(trace_stop(path));
  std::remove(path.c_str());
}

/// Counter values and histogram *counts* (sums are wall-clock-derived)
/// from two identical single-threaded runs must match exactly.
TEST(Stats, SnapshotDeterministicUnderSingleThreadPool) {
  StatsEnabledScope stats_on;
  set_kernel_threads(1);

  const auto run_workload = [] {
    StatsRegistry::instance().reset();
    CooMatrix coo(64, 64);
    for (std::uint32_t i = 0; i < 64; ++i) {
      coo.add(i, (i * 7 + 3) % 64, 1.0f);
      coo.add(i, i, 0.5f);
    }
    const CsrMatrix csr = CsrMatrix::from_coo(coo);
    Matrix dense(64, 8, 0.25f);
    Matrix out;
    for (int rep = 0; rep < 5; ++rep) csr.spmm(dense, out);
    return StatsRegistry::instance().snapshot();
  };

  const StatsSnapshot first = run_workload();
  const StatsSnapshot second = run_workload();

  ASSERT_EQ(first.counters.size(), second.counters.size());
  for (std::size_t i = 0; i < first.counters.size(); ++i) {
    EXPECT_EQ(first.counters[i].first, second.counters[i].first);
    EXPECT_EQ(first.counters[i].second, second.counters[i].second)
        << first.counters[i].first;
  }
  ASSERT_EQ(first.histograms.size(), second.histograms.size());
  for (std::size_t i = 0; i < first.histograms.size(); ++i) {
    EXPECT_EQ(first.histograms[i].name, second.histograms[i].name);
    EXPECT_EQ(first.histograms[i].count, second.histograms[i].count)
        << first.histograms[i].name;
  }
  EXPECT_EQ(StatsRegistry::instance()
                .counter("kernel.spmm.calls")
                .value(),
            5u);

  set_kernel_threads(0);
  StatsRegistry::instance().reset();
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  StatsSnapshot::HistogramValue hist;
  EXPECT_EQ(histogram_quantile(hist, 0.5), 0.0);
  EXPECT_EQ(histogram_quantile(hist, 0.99), 0.0);
}

TEST(HistogramQuantile, SingleSampleIsExact) {
  // One sample of 100 lands in bucket [64, 128); interpolation would
  // estimate 96, but the clamp to [min, max] recovers the exact value.
  StatsSnapshot::HistogramValue hist;
  hist.count = 1;
  hist.sum = 100;
  hist.min = 100;
  hist.max = 100;
  hist.buckets = {{64, 1}};
  EXPECT_EQ(histogram_quantile(hist, 0.0), 100.0);
  EXPECT_EQ(histogram_quantile(hist, 0.5), 100.0);
  EXPECT_EQ(histogram_quantile(hist, 1.0), 100.0);
}

TEST(HistogramQuantile, ZeroBucketReportsZero) {
  StatsSnapshot::HistogramValue hist;
  hist.count = 4;
  hist.min = 0;
  hist.max = 0;
  hist.buckets = {{0, 4}};
  EXPECT_EQ(histogram_quantile(hist, 0.99), 0.0);
}

TEST(HistogramQuantile, InterpolatesWithinBucketBoundaries) {
  // 10 samples uniform in bucket [8, 16), with true min/max wider than
  // any interpolated value so the clamp never bites.
  StatsSnapshot::HistogramValue hist;
  hist.count = 10;
  hist.min = 8;
  hist.max = 15;
  hist.buckets = {{8, 10}};
  // q=0.5 -> target 5 of 10 -> fraction 0.5 -> 8 * 1.5 = 12.
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 0.5), 12.0);
  // q=0 -> fraction 0 -> the bucket's lower bound.
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 0.0), 8.0);
  // q=1 -> fraction 1 -> the bucket's upper bound, clamped to max.
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 1.0), 15.0);
}

TEST(HistogramQuantile, SpansMultipleBuckets) {
  StatsSnapshot::HistogramValue hist;
  hist.count = 8;
  hist.min = 1;
  hist.max = 30;
  hist.buckets = {{1, 2}, {4, 4}, {16, 2}};
  // q=0.25 -> target 2: first bucket exactly -> 1 * (1 + 2/2) = 2.
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 0.25), 2.0);
  // q=0.75 -> target 6: 4 of the middle bucket's 4 -> 4 * (1 + 1) = 8.
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 0.75), 8.0);
  // q=1 -> last bucket upper bound 32, clamped to the recorded max 30.
  EXPECT_DOUBLE_EQ(histogram_quantile(hist, 1.0), 30.0);
}

TEST(HistogramQuantile, OverflowBucketNeverExtrapolatesPastMax) {
  // Everything in the final (clamp) bucket: the estimate must stay at
  // the recorded max, not the bucket's notional upper bound.
  StatsSnapshot::HistogramValue hist;
  hist.count = 3;
  hist.min = Histogram::bucket_lower_bound(Histogram::kBucketCount - 1);
  hist.max = hist.min + 12345;
  hist.buckets = {{hist.min, 3}};
  EXPECT_LE(histogram_quantile(hist, 0.99), static_cast<double>(hist.max));
  EXPECT_GE(histogram_quantile(hist, 0.01), static_cast<double>(hist.min));
}

TEST(StatsSnapshotDelta, CountersAndHistogramsDiff) {
  StatsSnapshot prev;
  prev.counters = {{"a", 10}, {"b", 5}};
  StatsSnapshot::HistogramValue ph;
  ph.name = "h";
  ph.count = 3;
  ph.sum = 30;
  ph.min = 8;
  ph.max = 12;
  ph.buckets = {{8, 3}};
  prev.histograms = {ph};

  StatsSnapshot cur;
  cur.counters = {{"a", 25}, {"b", 5}, {"c", 7}};  // c is new
  cur.gauges = {{"g", -3}};
  StatsSnapshot::HistogramValue ch = ph;
  ch.count = 5;
  ch.sum = 90;
  ch.max = 40;
  ch.buckets = {{8, 3}, {32, 2}};
  cur.histograms = {ch};

  const StatsSnapshot delta = snapshot_delta(prev, cur);
  const std::map<std::string, std::uint64_t> counters(delta.counters.begin(),
                                                      delta.counters.end());
  EXPECT_EQ(counters.at("a"), 15u);
  EXPECT_EQ(counters.at("b"), 0u);
  EXPECT_EQ(counters.at("c"), 7u);  // no prev -> full value
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_EQ(delta.gauges[0].second, -3);  // gauges pass through

  ASSERT_EQ(delta.histograms.size(), 1u);
  const auto& wh = delta.histograms[0];
  EXPECT_EQ(wh.count, 2u);
  EXPECT_EQ(wh.sum, 60u);
  // Only the changed bucket survives; min/max copy the cumulative range.
  ASSERT_EQ(wh.buckets.size(), 1u);
  EXPECT_EQ(wh.buckets[0].first, 32u);
  EXPECT_EQ(wh.buckets[0].second, 2u);
  EXPECT_EQ(wh.min, 8u);
  EXPECT_EQ(wh.max, 40u);
}

TEST(Prometheus, ExpositionRoundTripsWithDeltas) {
  StatsSnapshot prev;
  prev.counters = {{"serve.requests", 100}};
  StatsSnapshot cur;
  cur.counters = {{"serve.requests", 140}};
  cur.gauges = {{"serve.queue_depth", 3}};
  StatsSnapshot::HistogramValue h;
  h.name = "serve.request_ns";
  h.count = 10;
  h.sum = 120;
  h.min = 8;
  h.max = 15;
  h.buckets = {{8, 10}};
  cur.histograms = {h};

  std::ostringstream out;
  write_prometheus(out, cur, &prev);
  std::map<std::string, double> series;
  std::string error;
  ASSERT_TRUE(parse_prometheus_text(out.str(), series, error)) << error;
  EXPECT_EQ(series.at("gcnt_serve_requests_total"), 140.0);
  EXPECT_EQ(series.at("gcnt_serve_requests_delta"), 40.0);
  EXPECT_EQ(series.at("gcnt_serve_queue_depth"), 3.0);
  EXPECT_EQ(series.at("gcnt_serve_request_ns_count"), 10.0);
  EXPECT_EQ(series.at("gcnt_serve_request_ns_sum"), 120.0);
  EXPECT_DOUBLE_EQ(series.at("gcnt_serve_request_ns{quantile=\"0.5\"}"),
                   12.0);
  EXPECT_DOUBLE_EQ(series.at("gcnt_serve_request_ns{quantile=\"0.99\"}"),
                   15.0);

  // Without a previous scrape there are no _delta / _window series.
  std::ostringstream first;
  write_prometheus(first, cur, nullptr);
  EXPECT_EQ(first.str().find("_delta"), std::string::npos);
  EXPECT_EQ(first.str().find("_window"), std::string::npos);

  // Hostile stat names are mangled into legal metric names.
  StatsSnapshot hostile;
  hostile.counters = {{"bad name\"with{stuff}", 1}};
  std::ostringstream mangled;
  write_prometheus(mangled, hostile, nullptr);
  std::map<std::string, double> mangled_series;
  ASSERT_TRUE(parse_prometheus_text(mangled.str(), mangled_series, error))
      << error;
  EXPECT_EQ(mangled_series.count("gcnt_bad_name_with_stuff__total"), 1u);
}

TEST(Prometheus, ParserRejectsGarbage) {
  std::map<std::string, double> series;
  std::string error;
  EXPECT_FALSE(parse_prometheus_text("metric_without_value\n", series, error));
  EXPECT_FALSE(parse_prometheus_text("metric not_a_number\n", series, error));
  EXPECT_FALSE(parse_prometheus_text("9starts_with_digit 1\n", series, error));
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_prometheus_text("# TYPE x counter\n\nx_total 4\n", series,
                                    error))
      << error;
  EXPECT_EQ(series.at("x_total"), 4.0);
}

TEST(StatsRegistry, WriteJsonEscapesHostileNames) {
  StatsEnabledScope stats_on;
  StatsRegistry& registry = StatsRegistry::instance();
  const std::string hostile = "test.evil\"name\\with\nnewline";
  registry.counter(hostile).add(2);
  std::ostringstream out;
  registry.write_json(out);
  json::Value parsed;
  std::string error;
  ASSERT_TRUE(json::parse(out.str(), parsed, error))
      << error << "\n" << out.str();
  const json::Value* counters = parsed.find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* value = counters->find(hostile);
  ASSERT_NE(value, nullptr) << "hostile name lost in round trip";
  EXPECT_EQ(value->number, 2.0);
  registry.reset();
}

// ---------------------------------------------------------------------------
// Request-scoped span trees ("rid" args) in trace validation.

void write_trace(const std::string& path, const std::string& events) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[" << events << "]}";
}

std::string span_json(const char* name, double ts, double dur, int rid) {
  std::ostringstream out;
  out << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":7,"
      << "\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"rid\":" << rid
      << "}}";
  return out.str();
}

TEST(TraceRequestTrees, ConnectedTreeValidates) {
  const std::string path = "observability_rid_ok.json";
  // queue_wait completes at the root's start; children nest inside the
  // root; per-tid completion times are non-decreasing in file order.
  write_trace(path, span_json("serve.queue_wait", 90, 10, 5) + "," +
                        span_json("serve.forward", 110, 40, 5) + "," +
                        span_json("serve.request", 100, 100, 5));
  const TraceValidation result = validate_trace_file(path);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.request_tree_count, 1u);
  std::remove(path.c_str());
}

TEST(TraceRequestTrees, CrossThreadHandOffValidates) {
  const std::string path = "observability_rid_threads.json";
  // The reader records queue_wait on tid 3; the worker records the rest
  // on tid 7 — the tree is still connected by rid.
  std::ostringstream reader_span;
  reader_span << "{\"name\":\"serve.queue_wait\",\"ph\":\"X\",\"pid\":1,"
              << "\"tid\":3,\"ts\":90,\"dur\":10,\"args\":{\"rid\":5}}";
  write_trace(path, reader_span.str() + "," +
                        span_json("serve.decode", 101, 9, 5) + "," +
                        span_json("serve.request", 100, 100, 5));
  const TraceValidation result = validate_trace_file(path);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.request_tree_count, 1u);
  std::remove(path.c_str());
}

TEST(TraceRequestTrees, OrphanedSpanIsRejected) {
  const std::string path = "observability_rid_orphan.json";
  write_trace(path, span_json("serve.forward", 110, 40, 5));
  const TraceValidation result = validate_trace_file(path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("orphaned"), std::string::npos)
      << result.error;
  std::remove(path.c_str());
}

TEST(TraceRequestTrees, SpanOutsideRootIsRejected) {
  const std::string path = "observability_rid_outside.json";
  // Child begins before its root: not a connected tree.
  write_trace(path, span_json("serve.forward", 50, 40, 5) + "," +
                        span_json("serve.request", 100, 100, 5));
  const TraceValidation result = validate_trace_file(path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("outside"), std::string::npos) << result.error;
  std::remove(path.c_str());
}

TEST(TraceRequestTrees, DuplicateRootsAreRejected) {
  const std::string path = "observability_rid_dup.json";
  write_trace(path, span_json("serve.request", 100, 50, 5) + "," +
                        span_json("serve.request", 160, 50, 5));
  const TraceValidation result = validate_trace_file(path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("multiple"), std::string::npos)
      << result.error;
  std::remove(path.c_str());
}

TEST(TraceSampling, DeterministicModuloPeriod) {
  trace_reset();
  trace_start();
  set_trace_sample_period(4);
  EXPECT_TRUE(trace_should_sample(0));
  EXPECT_FALSE(trace_should_sample(1));
  EXPECT_FALSE(trace_should_sample(3));
  EXPECT_TRUE(trace_should_sample(4));
  EXPECT_TRUE(trace_should_sample(8));
  set_trace_sample_period(1);
  EXPECT_TRUE(trace_should_sample(17));  // period 1 = sample everything
  set_trace_sample_period(0);            // 0 normalizes to 1
  EXPECT_EQ(trace_sample_period(), 1u);
  const std::string path = "observability_sampling.json";
  ASSERT_TRUE(trace_stop(path));
  std::remove(path.c_str());
  // With tracing disabled nothing samples, whatever the period.
  set_trace_sample_period(4);
  EXPECT_FALSE(trace_should_sample(0));
  set_trace_sample_period(1);
}

TEST(TraceSuppress, ScopeSilencesNestedSpans) {
  const std::string path = "observability_suppress.json";
  trace_reset();
  trace_start();
  {
    TraceSuppressScope suppress(true);
    TraceSpan hidden("test.suppressed");
  }
  {
    TraceSuppressScope not_suppressing(false);
    TraceSpan visible("test.visible");
  }
  ASSERT_TRUE(trace_stop(path));
  const TraceValidation result = validate_trace_file(path);
  EXPECT_TRUE(result.ok) << result.error;
  bool saw_visible = false;
  for (const std::string& name : result.names) {
    EXPECT_NE(name, "test.suppressed");
    saw_visible |= name == "test.visible";
  }
  EXPECT_TRUE(saw_visible);
  std::remove(path.c_str());
}

TEST(KernelPool, PublishedGaugesCoverEveryWorker) {
  StatsEnabledScope stats_on;
  set_kernel_threads(2);
  parallel_blocks(1024, 1, [](std::size_t, std::size_t) {});
  publish_kernel_pool_stats();
  EXPECT_EQ(StatsRegistry::instance().gauge("pool.workers").value(), 2);
  set_kernel_threads(0);
  StatsRegistry::instance().reset();
}

}  // namespace
}  // namespace gcnt
