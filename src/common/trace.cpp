#include "common/trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "common/artifact.h"
#include "common/error.h"
#include "common/json.h"

namespace gcnt {

namespace trace_detail {

std::atomic<bool> enabled{false};

namespace {
std::atomic<std::uint64_t> sample_period{1};
thread_local std::uint32_t tl_suppress_depth = 0;
}  // namespace

bool thread_suppressed() noexcept { return tl_suppress_depth != 0; }

namespace {

constexpr std::size_t kDefaultRingCapacity = 1 << 16;

struct Event {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  const char* key0;
  const char* key1;
  double value0;
  double value1;
};

/// Fixed-capacity flight recorder owned by one thread; the mutex is only
/// contended when the writer drains it (record() holds it for an append).
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> ring;
  std::size_t capacity = kDefaultRingCapacity;
  std::uint64_t total = 0;    // appends ever; ring slot = total % capacity
  std::uint64_t dropped = 0;  // overwritten (oldest-first) spans
  std::uint32_t tid = 0;
  std::string name;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
  std::string exit_path;  // GCNT_TRACE target for the atexit writer
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Registry& registry() {
  // Leaked: worker threads and atexit handlers may record/flush after
  // static destruction has begun.
  static Registry* instance = new Registry();
  return *instance;
}

std::size_t ring_capacity_from_env() {
  static const std::size_t value = [] {
    const char* raw = std::getenv("GCNT_TRACE_BUFFER");
    if (raw == nullptr || *raw == '\0') return kDefaultRingCapacity;
    const unsigned long long parsed = std::strtoull(raw, nullptr, 10);
    return parsed == 0 ? kDefaultRingCapacity
                       : static_cast<std::size_t>(parsed);
  }();
  return value;
}

thread_local std::shared_ptr<ThreadBuffer> tl_buffer;
thread_local std::string tl_pending_name;

ThreadBuffer& this_thread_buffer() {
  if (!tl_buffer) {
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->capacity = ring_capacity_from_env();
    buffer->ring.reserve(std::min<std::size_t>(buffer->capacity, 1024));
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffer->tid = reg.next_tid++;
    buffer->name = tl_pending_name.empty()
                       ? "thread-" + std::to_string(buffer->tid)
                       : tl_pending_name;
    reg.buffers.push_back(buffer);
    tl_buffer = std::move(buffer);
  }
  return *tl_buffer;
}

void write_event(std::ostream& out, const Event& event, std::uint32_t tid,
                 bool& first) {
  char ts[48];
  char dur[48];
  std::snprintf(ts, sizeof(ts), "%.3f",
                static_cast<double>(event.begin_ns) / 1000.0);
  std::snprintf(dur, sizeof(dur), "%.3f",
                static_cast<double>(event.end_ns - event.begin_ns) / 1000.0);
  out << (first ? "\n" : ",\n") << "{\"name\":\"";
  first = false;
  json::write_escaped(out, event.name);
  out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts
      << ",\"dur\":" << dur;
  if (event.key0 != nullptr) {
    out << ",\"args\":{\"";
    json::write_escaped(out, event.key0);
    char value[48];
    std::snprintf(value, sizeof(value), "%.17g", event.value0);
    out << "\":" << value;
    if (event.key1 != nullptr) {
      out << ",\"";
      json::write_escaped(out, event.key1);
      std::snprintf(value, sizeof(value), "%.17g", event.value1);
      out << "\":" << value;
    }
    out << "}";
  }
  out << "}";
}

/// Drains every buffer (oldest span first per thread) into `out`.
/// Callers must have recording disabled; buffers are cleared on success.
void write_events(std::ostream& out) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> registry_lock(reg.mutex);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  out << (first ? "\n" : ",\n")
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"ts\":0,\"args\":{\"name\":\"gcnt\"}}";
  first = false;
  for (const auto& buffer : reg.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << buffer->tid << ",\"ts\":0,\"args\":{\"name\":\"";
    json::write_escaped(out, buffer->name);
    out << "\"}}";
    const std::size_t stored = buffer->ring.size();
    const std::size_t start =
        stored < buffer->capacity
            ? 0
            : static_cast<std::size_t>(buffer->total % buffer->capacity);
    for (std::size_t k = 0; k < stored; ++k) {
      write_event(out, buffer->ring[(start + k) % stored], buffer->tid, first);
    }
    buffer->ring.clear();
    buffer->total = 0;
  }
  out << "\n]}\n";
}

/// Atomic (temp + fsync + rename) trace export: a crash or full disk
/// mid-export never leaves a truncated JSON behind. Buffers are cleared
/// only when the writer callback ran (atomic_write_file runs it once the
/// temp file is open).
bool write_and_clear(const std::string& path) {
  try {
    atomic_write_file(path, [](std::ostream& out) { write_events(out); });
  } catch (const Error&) {
    return false;
  }
  return true;
}

/// Applies GCNT_TRACE=<path> before main(): starts recording and writes
/// the trace at process exit (unless trace_stop ran first).
/// GCNT_TRACE_SAMPLE accepts "1/N" or plain "N", both meaning "trace
/// every Nth request"; 0, 1, and garbage all mean "every request".
std::uint64_t sample_period_from_env() {
  const char* raw = std::getenv("GCNT_TRACE_SAMPLE");
  if (raw == nullptr || *raw == '\0') return 1;
  const char* cursor = raw;
  char* end = nullptr;
  unsigned long long value = std::strtoull(cursor, &end, 10);
  if (end != cursor && *end == '/') {
    cursor = end + 1;
    value = std::strtoull(cursor, &end, 10);
  }
  if (end == cursor || *end != '\0' || value == 0) return 1;
  return static_cast<std::uint64_t>(value);
}

struct EnvInit {
  EnvInit() {
    sample_period.store(sample_period_from_env(), std::memory_order_relaxed);
    const char* raw = std::getenv("GCNT_TRACE");
    if (raw == nullptr || *raw == '\0') return;
    registry().exit_path = raw;
    enabled.store(true, std::memory_order_relaxed);
    std::atexit([] {
      if (!trace_enabled()) return;  // trace_stop already wrote it
      std::string path;
      {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        path = reg.exit_path;
      }
      if (trace_stop(path)) {
        std::fprintf(stderr, "gcnt: wrote trace to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "gcnt: failed to write trace to %s\n",
                     path.c_str());
      }
    });
  }
} env_init;

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - registry().epoch)
          .count());
}

void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
            const char* key0, double value0, const char* key1, double value1) {
  ThreadBuffer& buffer = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  const Event event{name, begin_ns, end_ns, key0, key1, value0, value1};
  if (buffer.ring.size() < buffer.capacity) {
    buffer.ring.push_back(event);
  } else {
    buffer.ring[static_cast<std::size_t>(buffer.total % buffer.capacity)] =
        event;
    ++buffer.dropped;
  }
  ++buffer.total;
}

}  // namespace trace_detail

void trace_start() {
  trace_detail::registry();  // pin the epoch before the first span
  trace_detail::enabled.store(true, std::memory_order_relaxed);
}

bool trace_stop(const std::string& path) {
  trace_detail::enabled.store(false, std::memory_order_relaxed);
  return trace_detail::write_and_clear(path);
}

void trace_reset() {
  trace_detail::Registry& reg = trace_detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->ring.clear();
    buffer->total = 0;
    buffer->dropped = 0;
  }
}

void trace_set_thread_name(const std::string& name) {
  trace_detail::tl_pending_name = name;
  if (trace_detail::tl_buffer) {
    std::lock_guard<std::mutex> lock(trace_detail::tl_buffer->mutex);
    trace_detail::tl_buffer->name = name;
  }
}

std::uint64_t trace_dropped_spans() {
  trace_detail::Registry& reg = trace_detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : reg.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

std::uint64_t trace_sample_period() noexcept {
  return trace_detail::sample_period.load(std::memory_order_relaxed);
}

void set_trace_sample_period(std::uint64_t period) noexcept {
  trace_detail::sample_period.store(period == 0 ? 1 : period,
                                    std::memory_order_relaxed);
}

TraceSuppressScope::TraceSuppressScope(bool suppress) : active_(suppress) {
  if (active_) ++trace_detail::tl_suppress_depth;
}

TraceSuppressScope::~TraceSuppressScope() {
  if (active_) --trace_detail::tl_suppress_depth;
}


// ---------------------------------------------------------------------------
// Trace-file validation (shared by tools/trace_check and the unit tests),
// built on the shared common/json parser.

namespace {

const json::Value* require_field(const json::Value& event, const char* key,
                                 json::Value::Type type, std::size_t index,
                                 std::string& error) {
  const json::Value* field = event.find(key);
  if (field == nullptr || field->type != type) {
    error = "event " + std::to_string(index) + ": missing or mistyped \"" +
            key + "\"";
    return nullptr;
  }
  return field;
}

/// One rid-carrying span, collected for request-tree validation.
struct RidSpan {
  std::string name;
  double begin = 0.0;
  double end = 0.0;
};

}  // namespace

TraceValidation validate_trace_file(const std::string& path) {
  TraceValidation result;
  std::ifstream in(path);
  if (!in) {
    result.error = "cannot open " + path;
    return result;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  json::Value root;
  if (!json::parse(text, root, result.error)) return result;

  const json::Value* events = nullptr;
  if (root.type == json::Value::Type::kArray) {
    events = &root;  // Chrome also accepts a bare event array
  } else if (root.type == json::Value::Type::kObject) {
    events = root.find("traceEvents");
    if (events == nullptr || events->type != json::Value::Type::kArray) {
      result.error = "top-level object has no traceEvents array";
      return result;
    }
  } else {
    result.error = "top level is neither an object nor an array";
    return result;
  }

  // Per-thread completion times: spans are appended when they end, so the
  // file order within one tid must be non-decreasing in (ts + dur).
  std::vector<std::pair<double, double>> last_end;  // (tid, end) pairs
  std::set<double> span_tids;
  std::set<std::string> span_names;
  std::map<double, std::vector<RidSpan>> rid_spans;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const json::Value& event = events->array[i];
    if (event.type != json::Value::Type::kObject) {
      result.error = "event " + std::to_string(i) + " is not an object";
      return result;
    }
    const json::Value* ph = require_field(event, "ph",
                                          json::Value::Type::kString, i,
                                          result.error);
    if (ph == nullptr) return result;
    if (require_field(event, "name", json::Value::Type::kString, i,
                      result.error) == nullptr ||
        require_field(event, "pid", json::Value::Type::kNumber, i,
                      result.error) == nullptr) {
      return result;
    }
    const json::Value* tid = require_field(event, "tid",
                                           json::Value::Type::kNumber, i,
                                           result.error);
    if (tid == nullptr) return result;
    if (ph->text != "X") continue;  // metadata and other phases: no timing

    const json::Value* ts = require_field(event, "ts",
                                          json::Value::Type::kNumber, i,
                                          result.error);
    const json::Value* dur = require_field(event, "dur",
                                           json::Value::Type::kNumber, i,
                                           result.error);
    if (ts == nullptr || dur == nullptr) return result;
    if (ts->number < 0.0 || dur->number < 0.0) {
      result.error = "event " + std::to_string(i) + ": negative ts or dur";
      return result;
    }
    const double end = ts->number + dur->number;
    bool found = false;
    for (auto& [known_tid, known_end] : last_end) {
      if (known_tid == tid->number) {
        found = true;
        if (end + 1e-3 < known_end) {
          result.error = "event " + std::to_string(i) +
                         ": completion time regressed within tid " +
                         std::to_string(static_cast<long long>(tid->number));
          return result;
        }
        known_end = std::max(known_end, end);
        break;
      }
    }
    if (!found) last_end.emplace_back(tid->number, end);
    span_tids.insert(tid->number);
    span_names.insert(event.find("name")->text);
    ++result.span_count;

    const json::Value* args = event.find("args");
    if (args != nullptr && args->type == json::Value::Type::kObject) {
      const json::Value* rid = args->find("rid");
      if (rid != nullptr && rid->type == json::Value::Type::kNumber) {
        rid_spans[rid->number].push_back(
            RidSpan{event.find("name")->text, ts->number, end});
      }
    }
  }

  // Request trees: exactly one serve.request root per rid; queue-wait
  // spans hand off to it (end <= root begin), everything else nests
  // inside it. The writer prints microseconds to 3 decimals, so 2e-3 of
  // slack absorbs the rounding without hiding real ordering bugs.
  constexpr double kEps = 2e-3;
  for (const auto& [rid, spans] : rid_spans) {
    const std::string rid_text =
        std::to_string(static_cast<long long>(rid));
    const RidSpan* span_root = nullptr;
    for (const RidSpan& span : spans) {
      if (span.name != "serve.request") continue;
      if (span_root != nullptr) {
        result.error = "rid " + rid_text + " has multiple serve.request roots";
        return result;
      }
      span_root = &span;
    }
    if (span_root == nullptr) {
      result.error = "rid " + rid_text +
                     " has orphaned spans (no serve.request root)";
      return result;
    }
    for (const RidSpan& span : spans) {
      if (&span == span_root) continue;
      if (span.name == "serve.queue_wait") {
        if (span.end > span_root->begin + kEps) {
          result.error = "rid " + rid_text +
                         ": serve.queue_wait ends after its root begins";
          return result;
        }
      } else if (span.begin + kEps < span_root->begin ||
                 span.end > span_root->end + kEps) {
        result.error = "rid " + rid_text + ": span \"" + span.name +
                       "\" falls outside its serve.request root";
        return result;
      }
    }
    ++result.request_tree_count;
  }

  result.thread_count = span_tids.size();
  result.names.assign(span_names.begin(), span_names.end());
  result.ok = true;
  return result;
}

}  // namespace gcnt
