#pragma once
// Event-driven parallel-pattern single-fault propagation (PPSFP).
//
// For one 64-pattern batch, the good machine is simulated once; each fault
// is then injected and only the divergence is propagated (in topological
// rank order) until it dies out or reaches a sink. Returns, per fault, the
// 64-bit word of patterns that detect it. Epoch-stamped scratch arrays make
// per-fault cleanup O(events), not O(nodes).

#include <cstdint>
#include <vector>

#include "sim/fault.h"
#include "sim/logic_sim.h"

namespace gcnt {

class FaultSimulator {
 public:
  explicit FaultSimulator(const LogicSimulator& sim);

  /// Detection word for `fault` under the batch whose good-machine values
  /// are `good` (from LogicSimulator::simulate). Bit k set = pattern k
  /// observes the fault at some sink.
  std::uint64_t detect_word(const Fault& fault,
                            const std::vector<std::uint64_t>& good);

  /// Empirical observability probe: injects an *inversion* at `node`
  /// (faulty word = ~good) so the fault is excited under every pattern,
  /// and returns the patterns under which the change reaches a sink. The
  /// popcount over many batches estimates P(change at node is observed) —
  /// the behavioral quantity commercial DFT tools threshold when flagging
  /// difficult-to-observe nodes.
  ///
  /// `bound` (1..64) lets a caller that only needs to know whether at
  /// least `bound` patterns observe the change stop the probe early: the
  /// result is then a subset of the full word with popcount >= bound. A
  /// full word with fewer than `bound` bits set is returned exactly, so
  /// the default of 64 always returns the full word.
  std::uint64_t observe_word(NodeId node,
                             const std::vector<std::uint64_t>& good,
                             int bound = 64);

  /// Convenience: simulates `batch` and updates `detected` flags for all
  /// not-yet-detected faults (fault dropping). Returns how many faults
  /// were newly detected, and stores each fault's detection word in
  /// `words` (zeroed for already-detected faults).
  std::size_t run_batch(const PatternBatch& batch,
                        const std::vector<Fault>& faults,
                        std::vector<bool>& detected,
                        std::vector<std::uint64_t>& words);

 private:
  /// Shared propagation engine: seeds `node` with `forced` and returns the
  /// detection word, stopping once `bound` patterns detect it.
  std::uint64_t propagate(NodeId node, std::uint64_t forced,
                          const std::vector<std::uint64_t>& good, int bound);

  struct Event {
    std::uint32_t rank;
    NodeId node;
    friend bool operator>(const Event& a, const Event& b) {
      return a.rank > b.rank;
    }
  };

  std::uint64_t faulty_or_good(NodeId u,
                               const std::vector<std::uint64_t>& good) const {
    return stamp_[u] == epoch_ ? faulty_[u] : good[u];
  }

  const LogicSimulator* sim_;
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> stamp_;    // faulty_[v] valid this epoch
  std::vector<std::uint32_t> queued_;   // v already scheduled this epoch
  std::uint32_t epoch_ = 0;
  std::vector<Event> heap_;  // rank-ordered event min-heap, reused per probe
  std::vector<std::uint64_t> scratch_values_;
};

/// Fault-partition parallel PPSFP: the good machine is simulated once per
/// batch, then the fault list is split into contiguous static blocks, each
/// propagated by a private FaultSimulator lane on the shared kernel pool
/// (common/parallel.h). Every fault's detection word depends only on the
/// shared good-machine values, so results are bitwise identical to the
/// serial FaultSimulator for any thread count; the detected/newly update
/// is a fixed-order serial reduce. Lanes persist across batches so the
/// per-lane scratch arrays are allocated once.
class ParallelFaultSimulator {
 public:
  explicit ParallelFaultSimulator(const LogicSimulator& sim);

  /// Drop-in replacement for FaultSimulator::run_batch.
  std::size_t run_batch(const PatternBatch& batch,
                        const std::vector<Fault>& faults,
                        std::vector<bool>& detected,
                        std::vector<std::uint64_t>& words);

 private:
  const LogicSimulator* sim_;
  std::vector<FaultSimulator> lanes_;  // one per partition, grown on demand
  std::vector<std::uint64_t> good_;
};

}  // namespace gcnt
