#include "common/fault_inject.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"

namespace gcnt {

namespace {

struct FaultState {
  /// The armed spec, or null when every probe is disarmed. A probe reads
  /// it with one acquire load and then only that immutable copy, so a
  /// spec published from another thread is never read half-written.
  std::atomic<const FaultSpec*> spec{nullptr};
  /// Every spec ever published. A replaced one stays alive because a
  /// probe on another thread may still be reading it.
  std::mutex published_mutex;
  std::vector<std::unique_ptr<const FaultSpec>> published;
  std::atomic<std::uint64_t> write_probes{0};
  std::atomic<std::uint64_t> read_probes{0};
  std::atomic<std::uint64_t> alloc_probes{0};
  std::atomic<std::uint64_t> serve_read_probes{0};
  std::atomic<std::uint64_t> serve_write_probes{0};
  std::atomic<std::uint64_t> serve_delay_probes{0};
  std::atomic<std::uint64_t> serve_alloc_probes{0};
  std::once_flag env_once;
};

/// Shared firing rule for clauses with the optional `every=K` repeat:
/// fire at probe `nth`, then at nth+K, nth+2K, ...
bool clause_fires(std::uint64_t n, std::uint64_t nth,
                  std::uint64_t every) noexcept {
  if (nth == 0 || n < nth) return false;
  return n == nth || (every != 0 && (n - nth) % every == 0);
}

FaultState& state() {
  static FaultState instance;
  return instance;
}

void publish(FaultState& s, const FaultSpec& spec) {
  const FaultSpec* armed = nullptr;
  if (spec.armed()) {
    std::lock_guard<std::mutex> lock(s.published_mutex);
    s.published.push_back(std::make_unique<const FaultSpec>(spec));
    armed = s.published.back().get();
  }
  s.spec.store(armed, std::memory_order_release);
}

/// Reads GCNT_FAULT_INJECT exactly once, before the first probe decision.
void ensure_env_loaded() {
  FaultState& s = state();
  std::call_once(s.env_once, [&s] {
    const char* raw = std::getenv("GCNT_FAULT_INJECT");
    if (raw == nullptr || *raw == '\0') return;
    publish(s, parse_fault_spec(raw));
  });
}

std::uint64_t parse_u64(const std::string& clause, const std::string& text) {
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    throw Error(ErrorKind::kUsage, "fault spec: bad number '" + text +
                                       "' in clause '" + clause + "'");
  }
}

struct FiredCounters {
  Counter& write_fail;
  Counter& short_write;
  Counter& bitflip;
  Counter& alloc_fail;
  Counter& serve_torn_read;
  Counter& serve_short_write;
  Counter& serve_delay;
  Counter& serve_alloc;
};

FiredCounters& fired_counters() {
  static FiredCounters counters{
      StatsRegistry::instance().counter("faultinject.fail_write_fired"),
      StatsRegistry::instance().counter("faultinject.short_write_fired"),
      StatsRegistry::instance().counter("faultinject.bitflip_read_fired"),
      StatsRegistry::instance().counter("faultinject.alloc_fail_fired"),
      StatsRegistry::instance().counter("faultinject.serve_torn_read_fired"),
      StatsRegistry::instance().counter(
          "faultinject.serve_short_write_fired"),
      StatsRegistry::instance().counter("faultinject.serve_delay_fired"),
      StatsRegistry::instance().counter("faultinject.serve_alloc_fired")};
  return counters;
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    std::string clause = text.substr(start, end - start);
    start = end + 1;
    // Trim surrounding whitespace so multi-line env values work.
    while (!clause.empty() && std::isspace(static_cast<unsigned char>(
                                  clause.front()))) {
      clause.erase(clause.begin());
    }
    while (!clause.empty() &&
           std::isspace(static_cast<unsigned char>(clause.back()))) {
      clause.pop_back();
    }
    if (clause.empty()) continue;

    const std::size_t colon = clause.find(':');
    const std::string name = clause.substr(0, colon);
    std::uint64_t nth = 0, bytes = 0, seed = 1, every = 0, ms = 0;
    bool saw_nth = false, saw_every = false, saw_ms = false;
    if (colon != std::string::npos) {
      std::size_t p = colon + 1;
      while (p < clause.size()) {
        std::size_t comma = clause.find(',', p);
        if (comma == std::string::npos) comma = clause.size();
        const std::string param = clause.substr(p, comma - p);
        p = comma + 1;
        const std::size_t eq = param.find('=');
        if (eq == std::string::npos) {
          throw Error(ErrorKind::kUsage,
                      "fault spec: expected key=value, got '" + param + "'");
        }
        const std::string key = param.substr(0, eq);
        const std::string value = param.substr(eq + 1);
        if (key == "nth") {
          nth = parse_u64(clause, value);
          saw_nth = true;
        } else if (key == "bytes") {
          bytes = parse_u64(clause, value);
        } else if (key == "seed") {
          seed = parse_u64(clause, value);
        } else if (key == "every") {
          every = parse_u64(clause, value);
          saw_every = true;
        } else if (key == "ms") {
          ms = parse_u64(clause, value);
          saw_ms = true;
        } else {
          throw Error(ErrorKind::kUsage,
                      "fault spec: unknown parameter '" + key + "'");
        }
      }
    }
    if (!saw_nth) {
      throw Error(ErrorKind::kUsage,
                  "fault spec: clause '" + name + "' needs nth=N");
    }
    const bool serve_clause = name.rfind("serve-", 0) == 0;
    if ((saw_every || saw_ms) && !serve_clause) {
      throw Error(ErrorKind::kUsage,
                  "fault spec: 'every'/'ms' only apply to serve-* clauses "
                  "(clause '" +
                      name + "')");
    }
    if (name == "fail-write") {
      spec.fail_write_nth = nth;
    } else if (name == "short-write") {
      spec.short_write_nth = nth;
      spec.short_write_bytes = bytes;
    } else if (name == "bitflip-read") {
      spec.bitflip_read_nth = nth;
      spec.bitflip_seed = seed;
    } else if (name == "alloc-fail") {
      spec.alloc_fail_nth = nth;
    } else if (name == "serve-torn-read") {
      spec.serve_torn_read_nth = nth;
      spec.serve_torn_read_every = every;
    } else if (name == "serve-short-write") {
      spec.serve_short_write_nth = nth;
      spec.serve_short_write_every = every;
    } else if (name == "serve-delay") {
      spec.serve_delay_nth = nth;
      spec.serve_delay_every = every;
      if (saw_ms) spec.serve_delay_ms = ms;
    } else if (name == "serve-alloc") {
      spec.serve_alloc_nth = nth;
      spec.serve_alloc_every = every;
    } else {
      throw Error(ErrorKind::kUsage,
                  "fault spec: unknown clause '" + name + "'");
    }
  }
  return spec;
}

void set_fault_spec(const FaultSpec& spec) {
  FaultState& s = state();
  ensure_env_loaded();  // consume the env slot so it cannot overwrite later
  s.write_probes.store(0, std::memory_order_relaxed);
  s.read_probes.store(0, std::memory_order_relaxed);
  s.alloc_probes.store(0, std::memory_order_relaxed);
  s.serve_read_probes.store(0, std::memory_order_relaxed);
  s.serve_write_probes.store(0, std::memory_order_relaxed);
  s.serve_delay_probes.store(0, std::memory_order_relaxed);
  s.serve_alloc_probes.store(0, std::memory_order_relaxed);
  publish(s, spec);
}

void clear_fault_injection() { set_fault_spec(FaultSpec{}); }

bool fault_injection_enabled() noexcept {
  return state().spec.load(std::memory_order_acquire) != nullptr;
}

std::size_t fault_write_probe(std::size_t intended_bytes) {
  ensure_env_loaded();
  FaultState& s = state();
  const FaultSpec* spec = s.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return intended_bytes;
  static Counter& probes =
      StatsRegistry::instance().counter("faultinject.write_probes");
  probes.add();
  const std::uint64_t n =
      s.write_probes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (spec->fail_write_nth != 0 && n == spec->fail_write_nth) {
    fired_counters().write_fail.add();
    throw Error(ErrorKind::kIo, "injected write failure (probe " +
                                    std::to_string(n) + ")");
  }
  if (spec->short_write_nth != 0 && n == spec->short_write_nth) {
    fired_counters().short_write.add();
    const std::size_t keep = spec->short_write_bytes != 0
                                 ? static_cast<std::size_t>(
                                       spec->short_write_bytes)
                                 : intended_bytes / 2;
    return keep < intended_bytes ? keep : intended_bytes;
  }
  return intended_bytes;
}

void fault_read_probe(void* data, std::size_t len) {
  ensure_env_loaded();
  FaultState& s = state();
  const FaultSpec* spec = s.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return;
  static Counter& probes =
      StatsRegistry::instance().counter("faultinject.read_probes");
  probes.add();
  const std::uint64_t n =
      s.read_probes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (spec->bitflip_read_nth == 0 || n != spec->bitflip_read_nth ||
      len == 0) {
    return;
  }
  fired_counters().bitflip.add();
  std::uint64_t mix = spec->bitflip_seed + n;
  const std::uint64_t draw = splitmix64(mix);
  auto* bytes = static_cast<unsigned char*>(data);
  bytes[(draw >> 3) % len] ^=
      static_cast<unsigned char>(1u << (draw & 7u));
}

void fault_alloc_probe(const char* what) {
  ensure_env_loaded();
  FaultState& s = state();
  const FaultSpec* spec = s.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return;
  static Counter& probes =
      StatsRegistry::instance().counter("faultinject.alloc_probes");
  probes.add();
  const std::uint64_t n =
      s.alloc_probes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (spec->alloc_fail_nth != 0 && n == spec->alloc_fail_nth) {
    fired_counters().alloc_fail.add();
    throw Error(ErrorKind::kResource,
                std::string("injected allocation failure at ") + what +
                    " (probe " + std::to_string(n) + ")");
  }
}

bool fault_serve_read_probe() {
  ensure_env_loaded();
  FaultState& s = state();
  const FaultSpec* spec = s.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return false;
  static Counter& probes =
      StatsRegistry::instance().counter("faultinject.serve_read_probes");
  probes.add();
  const std::uint64_t n =
      s.serve_read_probes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!clause_fires(n, spec->serve_torn_read_nth,
                    spec->serve_torn_read_every)) {
    return false;
  }
  fired_counters().serve_torn_read.add();
  return true;
}

bool fault_serve_write_probe() {
  ensure_env_loaded();
  FaultState& s = state();
  const FaultSpec* spec = s.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return false;
  static Counter& probes =
      StatsRegistry::instance().counter("faultinject.serve_write_probes");
  probes.add();
  const std::uint64_t n =
      s.serve_write_probes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!clause_fires(n, spec->serve_short_write_nth,
                    spec->serve_short_write_every)) {
    return false;
  }
  fired_counters().serve_short_write.add();
  return true;
}

std::uint64_t fault_serve_delay_probe() {
  ensure_env_loaded();
  FaultState& s = state();
  const FaultSpec* spec = s.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return 0;
  static Counter& probes =
      StatsRegistry::instance().counter("faultinject.serve_delay_probes");
  probes.add();
  const std::uint64_t n =
      s.serve_delay_probes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!clause_fires(n, spec->serve_delay_nth, spec->serve_delay_every)) {
    return 0;
  }
  fired_counters().serve_delay.add();
  return spec->serve_delay_ms;
}

void fault_serve_alloc_probe(const char* what) {
  ensure_env_loaded();
  FaultState& s = state();
  const FaultSpec* spec = s.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return;
  static Counter& probes =
      StatsRegistry::instance().counter("faultinject.serve_alloc_probes");
  probes.add();
  const std::uint64_t n =
      s.serve_alloc_probes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!clause_fires(n, spec->serve_alloc_nth, spec->serve_alloc_every)) {
    return;
  }
  fired_counters().serve_alloc.add();
  throw Error(ErrorKind::kResource,
              std::string("injected serve allocation failure decoding ") +
                  what + " (probe " + std::to_string(n) + ")");
}

}  // namespace gcnt
