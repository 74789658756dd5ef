#include "sim/fault_sim.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "common/parallel.h"
#include "common/trace.h"
#include "sim/gate_eval.h"

namespace gcnt {

FaultSimulator::FaultSimulator(const LogicSimulator& sim) : sim_(&sim) {
  const std::size_t n = sim.netlist().size();
  faulty_.assign(n, 0);
  stamp_.assign(n, 0);
  queued_.assign(n, 0);
}

std::uint64_t FaultSimulator::detect_word(
    const Fault& fault, const std::vector<std::uint64_t>& good) {
  const std::uint64_t forced = fault.stuck_at_one ? ~0ULL : 0ULL;
  if ((good[fault.node] ^ forced) == 0) return 0;  // never excited
  return propagate(fault.node, forced, good, 64);
}

std::uint64_t FaultSimulator::observe_word(
    NodeId node, const std::vector<std::uint64_t>& good, int bound) {
  return propagate(node, ~good[node], good, bound);
}

std::uint64_t FaultSimulator::propagate(
    NodeId node, std::uint64_t forced,
    const std::vector<std::uint64_t>& good, int bound) {
  const Netlist& netlist = sim_->netlist();
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    // Epoch wrap would alias stale stamps; reset the scratch arrays.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(queued_.begin(), queued_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;

  faulty_[node] = forced;
  stamp_[node] = epoch_;

  // Events run in ascending rank, so every fanin of a gate is final when
  // the gate is evaluated.
  heap_.clear();
  const auto& rank = sim_->rank();
  const auto schedule = [&](NodeId v) {
    if (queued_[v] == epoch_) return;
    queued_[v] = epoch_;
    heap_.push_back(Event{rank[v], v});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  };

  std::uint64_t detected = 0;
  // A fault on a source/logic node may itself be directly captured if it
  // drives a sink; seed by scheduling its fanouts.
  for (NodeId g : netlist.fanouts(node)) schedule(g);

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const NodeId v = heap_.back().node;
    heap_.pop_back();
    const CellType type = netlist.type(v);
    if (is_sink(type)) {
      // Capture: compare the D/pin value. (For a DFF the fault effect is
      // captured but does not propagate through the Q output this cycle.)
      const NodeId driver = netlist.fanins(v).front();
      detected |= faulty_or_good(driver, good) ^ good[driver];
      // Only captures add bits, so the caller's bound is checked here.
      if (std::popcount(detected) >= bound) break;
      continue;
    }
    const std::uint64_t value = evaluate_gate(
        netlist, v, [&](NodeId u) { return faulty_or_good(u, good); });
    if (value == good[v]) continue;  // divergence died here
    faulty_[v] = value;
    stamp_[v] = epoch_;
    for (NodeId g : netlist.fanouts(v)) schedule(g);
  }
  return detected;
}

std::size_t FaultSimulator::run_batch(const PatternBatch& batch,
                                      const std::vector<Fault>& faults,
                                      std::vector<bool>& detected,
                                      std::vector<std::uint64_t>& words) {
  sim_->simulate(batch, scratch_values_);
  words.assign(faults.size(), 0);
  std::size_t newly = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    const std::uint64_t word = detect_word(faults[i], scratch_values_);
    words[i] = word;
    if (word != 0) {
      detected[i] = true;
      ++newly;
    }
  }
  return newly;
}

namespace {
// Fault propagation is hundreds of events per fault; small lists run on one
// lane to skip the dispatch cost.
constexpr std::size_t kMinParallelFaults = 64;
}  // namespace

ParallelFaultSimulator::ParallelFaultSimulator(const LogicSimulator& sim)
    : sim_(&sim) {}

std::size_t ParallelFaultSimulator::run_batch(
    const PatternBatch& batch, const std::vector<Fault>& faults,
    std::vector<bool>& detected, std::vector<std::uint64_t>& words) {
  GCNT_KERNEL_SCOPE("fault_sim.batch");
  static Counter& faults_counter =
      StatsRegistry::instance().counter("fault_sim.faults_simulated");
  faults_counter.add(faults.size());
  sim_->simulate(batch, good_);
  words.assign(faults.size(), 0);

  const BlockPlan plan = plan_blocks(faults.size(), kMinParallelFaults);
  while (lanes_.size() < plan.count) lanes_.emplace_back(*sim_);
  // Parallel phase: reads `detected` (no writer), writes disjoint `words`
  // slices; each lane keeps its own epoch-stamped scratch.
  run_blocks(plan, [&](std::size_t block, std::size_t begin, std::size_t end) {
    FaultSimulator& lane = lanes_[block];
    for (std::size_t i = begin; i < end; ++i) {
      if (detected[i]) continue;
      words[i] = lane.detect_word(faults[i], good_);
    }
  });
  // Fixed-order reduce: update drop flags and count new detections
  // serially (vector<bool> packs bits, so flag writes must not race).
  std::size_t newly = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!detected[i] && words[i] != 0) {
      detected[i] = true;
      ++newly;
    }
  }
  return newly;
}

}  // namespace gcnt
