#pragma once
// Process-wide parallel-execution layer for the compute kernels.
//
// One lazily-created ThreadPool is shared by every hot kernel (CSR SpMM,
// dense GEMM, fault-simulation partitions, per-node inference). Work is
// split with a deterministic static partition — contiguous index blocks,
// one per worker — so for a fixed thread count the schedule (and therefore
// every result) is reproducible. The kernels routed through this layer
// additionally write disjoint outputs with a fixed per-index reduction
// order, making their results bitwise identical across *different* thread
// counts as well (see docs/API.md "Threading model").
//
// Thread-count resolution, highest priority first:
//   1. set_kernel_threads(n)    — programmatic override (tests, sweeps)
//   2. GCNT_THREADS=n           — environment, read once per process
//   3. std::thread::hardware_concurrency()
//
// Nested use is safe: a kernel invoked from inside a kernel-pool task runs
// serially inline instead of re-entering the pool.

#include <cstddef>
#include <functional>

#include "common/thread_pool.h"

namespace gcnt {

/// Resolved worker count the kernel pool uses (always >= 1).
std::size_t kernel_threads();

/// Overrides the kernel thread count (0 reverts to GCNT_THREADS/hardware).
/// Recreates the pool on next use; must not race with running kernels.
void set_kernel_threads(std::size_t n);

/// The shared pool, created on first use with kernel_threads() workers.
ThreadPool& kernel_pool();

/// A deterministic static partition of [0, n) into `count` contiguous
/// blocks of ceil(n / count) indices (the last block may be short).
struct BlockPlan {
  std::size_t n = 0;
  std::size_t count = 1;
  std::size_t per_block = 0;

  std::size_t begin(std::size_t block) const noexcept {
    return block * per_block;
  }
  std::size_t end(std::size_t block) const noexcept {
    const std::size_t e = begin(block) + per_block;
    return e < n ? e : n;
  }
};

/// Plans `blocks_per_thread` blocks per kernel thread (more than one lets
/// the pool balance blocks of uneven cost); collapses to a single serial
/// block when n < min_parallel, a single thread is configured, or the
/// caller is already inside a kernel-pool task.
BlockPlan plan_blocks(std::size_t n, std::size_t min_parallel,
                      std::size_t blocks_per_thread = 1);

/// Executes fn(block, begin, end) for every block of `plan` across the
/// kernel pool (inline when plan.count == 1). Rethrows the first exception.
void run_blocks(
    const BlockPlan& plan,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Convenience: plan_blocks + run_blocks, ignoring the block index.
void parallel_blocks(std::size_t n, std::size_t min_parallel,
                     const std::function<void(std::size_t, std::size_t)>& fn);

/// Copies kernel-pool utilization into the stats registry: a
/// "pool.workers" gauge plus one "pool.worker<i>.busy_ns" gauge per
/// worker. No-op when stats are disabled or the pool was never created.
void publish_kernel_pool_stats();

}  // namespace gcnt
