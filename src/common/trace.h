#pragma once
// Scoped trace spans recorded into per-thread ring buffers and exported
// as Chrome trace-event JSON (loadable in chrome://tracing or Perfetto).
//
// Recording is off by default. GCNT_TRACE=<path> (read once at startup)
// starts it and registers an atexit writer to <path>; trace_start() /
// trace_stop(path) do the same programmatically. A disabled TraceSpan is
// one relaxed atomic load and a branch — the instrumented kernels pay
// effectively nothing when tracing is off.
//
// Each recording thread owns a fixed-capacity ring buffer (default 65536
// spans, GCNT_TRACE_BUFFER overrides); when it fills, the oldest spans are
// overwritten and counted as dropped. Span names must be string literals
// (the buffer stores the pointer, not a copy).

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace gcnt {

namespace trace_detail {
extern std::atomic<bool> enabled;

/// Nanoseconds on the steady clock since the process trace epoch.
std::uint64_t now_ns() noexcept;

/// Appends one completed span to the calling thread's ring buffer.
/// `name` and the arg keys must be string literals; unused arg slots pass
/// nullptr keys.
void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
            const char* key0, double value0, const char* key1, double value1,
            const char* key2 = nullptr, double value2 = 0.0);

/// True while a TraceSuppressScope is active on the calling thread.
bool thread_suppressed() noexcept;
}  // namespace trace_detail

/// True while spans are being recorded.
inline bool trace_enabled() noexcept {
  return trace_detail::enabled.load(std::memory_order_relaxed);
}

/// Trace-epoch timestamp for callers recording spans with explicit
/// begin/end pairs (e.g. the serve queue-wait span, whose begin happens
/// on the reader thread and whose end happens on a worker).
inline std::uint64_t trace_now_ns() noexcept {
  return trace_detail::now_ns();
}

/// Starts recording spans (idempotent).
void trace_start();

/// Stops recording, writes everything recorded so far to `path` as Chrome
/// trace-event JSON, and clears the buffers. Returns false on I/O failure.
bool trace_stop(const std::string& path);

/// Discards every recorded span without writing (buffers stay allocated).
void trace_reset();

/// Names the calling thread in trace output ("main", "worker-3", ...).
/// Cheap; safe to call whether or not tracing is enabled.
void trace_set_thread_name(const std::string& name);

/// Spans dropped so far because a ring buffer wrapped.
std::uint64_t trace_dropped_spans();

/// Deterministic sampling period: 1 = trace every request, N = trace
/// every Nth. Seeded from GCNT_TRACE_SAMPLE ("1/N" or "N", read once at
/// startup); set_trace_sample_period overrides programmatically.
std::uint64_t trace_sample_period() noexcept;
void set_trace_sample_period(std::uint64_t period) noexcept;

/// Sampling decision for sequence number `seq`: true when tracing is
/// enabled and `seq` lands on the sampling grid (seq % period == 0).
/// Deterministic, so a replayed workload samples the same requests.
inline bool trace_should_sample(std::uint64_t seq) noexcept {
  if (!trace_enabled()) return false;
  const std::uint64_t period = trace_sample_period();
  return period <= 1 || seq % period == 0;
}

/// Suppresses span recording on the calling thread while alive. The
/// serve worker wraps unsampled requests in one of these so their nested
/// GCNT_KERNEL_SCOPE spans stay out of the trace while sampled requests
/// record their full span tree. Nests; stats are unaffected.
class TraceSuppressScope {
 public:
  explicit TraceSuppressScope(bool suppress = true);
  ~TraceSuppressScope();
  TraceSuppressScope(const TraceSuppressScope&) = delete;
  TraceSuppressScope& operator=(const TraceSuppressScope&) = delete;

 private:
  bool active_;
};

/// RAII span: records [construction, destruction) on the calling thread.
/// Given `stats` (as GCNT_KERNEL_SCOPE passes), the same clock pair also
/// feeds the stats registry (kernel.<name>.calls / kernel.<name>.ns). A
/// pass that wants span args and kernel stats uses one such span:
///   static KernelStats& stats = kernel_stats("gcn.incremental.update");
///   TraceSpan span("gcn.incremental.update", &stats);
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, KernelStats* stats = nullptr) noexcept
      : stats_(stats != nullptr && stats_enabled() ? stats : nullptr) {
    if (trace_enabled() && !trace_detail::thread_suppressed()) name_ = name;
    if (name_ != nullptr || stats_ != nullptr) {
      begin_ = trace_detail::now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ == nullptr && stats_ == nullptr) return;
    const std::uint64_t end = trace_detail::now_ns();
    if (stats_ != nullptr) {
      stats_->calls.add();
      stats_->latency_ns.record(end - begin_);
    }
    if (name_ != nullptr && trace_enabled()) {
      trace_detail::record(name_, begin_, end, keys_[0], values_[0], keys_[1],
                           values_[1], keys_[2], values_[2]);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric argument (at most three; `key` must be a literal).
  void arg(const char* key, double value) noexcept {
    if (name_ == nullptr || args_ == kArgs) return;
    keys_[args_] = key;
    values_[args_++] = value;
  }

 private:
  const char* name_ = nullptr;
  KernelStats* stats_;
  std::uint64_t begin_ = 0;
  static constexpr std::size_t kArgs = 3;
  const char* keys_[kArgs] = {nullptr, nullptr, nullptr};
  double values_[kArgs] = {0.0, 0.0, 0.0};
  std::size_t args_ = 0;
};

/// Standard per-kernel instrumentation: one span + calls/latency stats.
///   void CsrMatrix::spmm(...) { GCNT_KERNEL_SCOPE("spmm"); ... }
#define GCNT_KERNEL_SCOPE(name)                                      \
  static ::gcnt::KernelStats& gcnt_kernel_stats_here_ =              \
      ::gcnt::kernel_stats(name);                                    \
  ::gcnt::TraceSpan gcnt_kernel_scope_here_(name, &gcnt_kernel_stats_here_)

/// Structural validation of a Chrome trace-event JSON file, shared by
/// tools/trace_check and the unit tests.
struct TraceValidation {
  bool ok = false;
  std::string error;                 ///< first failure when !ok
  std::size_t span_count = 0;        ///< "ph":"X" events
  std::size_t thread_count = 0;      ///< distinct tids with at least 1 span
  std::size_t request_tree_count = 0;  ///< well-formed "rid" span trees
  std::vector<std::string> names;    ///< distinct span names, sorted
};

/// Checks that `path` parses as JSON, has a traceEvents array, every span
/// carries name/ph/pid/tid/ts/dur with dur >= 0, and per-thread span
/// completion times (ts + dur) are monotonically non-decreasing.
///
/// Spans carrying a numeric "rid" arg form request trees: each rid must
/// have exactly one "serve.request" root; "serve.queue_wait" spans must
/// end at or before their root begins (the hand-off from the reader
/// thread to the worker); every other rid span must nest inside its
/// root's interval. Orphaned rid spans (no root, or outside it) fail
/// validation; well-formed trees are counted in request_tree_count.
TraceValidation validate_trace_file(const std::string& path);

}  // namespace gcnt
