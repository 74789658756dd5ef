#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "common/stats.h"

namespace gcnt {

namespace {

std::mutex pool_mutex;
std::unique_ptr<ThreadPool> pool;           // guarded by pool_mutex
std::size_t pool_workers = 0;               // workers `pool` was built with
std::size_t override_threads = 0;           // set_kernel_threads value

// True while the current thread is executing a kernel-pool block; nested
// kernels then run inline instead of deadlocking on their own pool.
thread_local bool in_kernel_block = false;

/// Upper bound on pool size; keeps a malformed or hostile GCNT_THREADS
/// (e.g. "-3" wrapping through strtoull) from attempting a giant reserve.
constexpr std::size_t kMaxKernelThreads = 1024;

/// GCNT_THREADS, parsed once per process (0 / unset / garbage = auto).
std::size_t env_threads() {
  static const std::size_t value = [] {
    const char* raw = std::getenv("GCNT_THREADS");
    if (raw == nullptr || *raw == '\0') return std::size_t{0};
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(raw, &end, 10);
    if (end == raw || raw[0] == '-') return std::size_t{0};  // garbage = auto
    return static_cast<std::size_t>(parsed);
  }();
  return value;
}

std::size_t resolve_threads() {
  std::size_t want = override_threads != 0 ? override_threads : env_threads();
  if (want == 0) want = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(want, kMaxKernelThreads);
}

}  // namespace

std::size_t kernel_threads() {
  std::lock_guard<std::mutex> lock(pool_mutex);
  return resolve_threads();
}

void set_kernel_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(pool_mutex);
  override_threads = n;
}

ThreadPool& kernel_pool() {
  std::lock_guard<std::mutex> lock(pool_mutex);
  const std::size_t want = resolve_threads();
  if (!pool || pool_workers != want) {
    pool.reset();  // join old workers before spawning replacements
    pool = std::make_unique<ThreadPool>(want);
    pool_workers = want;
  }
  return *pool;
}

BlockPlan plan_blocks(std::size_t n, std::size_t min_parallel,
                      std::size_t blocks_per_thread) {
  BlockPlan plan;
  plan.n = n;
  std::size_t count = 1;
  if (n >= min_parallel && !in_kernel_block) {
    const std::size_t threads = kernel_threads();
    if (threads > 1) count = threads * blocks_per_thread;
  }
  count = std::clamp<std::size_t>(count, 1, std::max<std::size_t>(1, n));
  plan.per_block = count == 0 ? 0 : (n + count - 1) / count;
  // ceil(n / per_block) blocks actually carry work; drop empty tails so
  // per-block scratch (histograms, lanes) is sized to real blocks only.
  plan.count =
      plan.per_block == 0 ? 1 : (n + plan.per_block - 1) / plan.per_block;
  if (plan.count == 0) plan.count = 1;
  return plan;
}

void run_blocks(
    const BlockPlan& plan,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (plan.n == 0) return;
  if (plan.count <= 1) {
    fn(0, 0, plan.n);
    return;
  }
  kernel_pool().parallel_blocks(
      plan.n, plan.count,
      [&fn](std::size_t block, std::size_t begin, std::size_t end) {
        const bool was_nested = in_kernel_block;
        in_kernel_block = true;
        try {
          fn(block, begin, end);
        } catch (...) {
          in_kernel_block = was_nested;
          throw;
        }
        in_kernel_block = was_nested;
      });
}

void parallel_blocks(std::size_t n, std::size_t min_parallel,
                     const std::function<void(std::size_t, std::size_t)>& fn) {
  run_blocks(plan_blocks(n, min_parallel),
             [&fn](std::size_t, std::size_t begin, std::size_t end) {
               fn(begin, end);
             });
}

void publish_kernel_pool_stats() {
  if (!stats_enabled()) return;
  std::lock_guard<std::mutex> lock(pool_mutex);
  if (!pool) return;
  StatsRegistry& registry = StatsRegistry::instance();
  registry.gauge("pool.workers")
      .set(static_cast<std::int64_t>(pool->worker_count()));
  for (std::size_t i = 0; i < pool->worker_count(); ++i) {
    registry.gauge("pool.worker" + std::to_string(i) + ".busy_ns")
        .set(static_cast<std::int64_t>(pool->worker_busy_ns(i)));
  }
}

}  // namespace gcnt
