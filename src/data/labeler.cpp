#include "data/labeler.h"

#include <algorithm>
#include <bit>

#include "common/rng.h"
#include "common/trace.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"

namespace gcnt {

namespace {

bool labelable(const Netlist& netlist, NodeId v) {
  const CellType t = netlist.type(v);
  // Sinks are pins/scan cells (directly observed); sources are scan-fed.
  return !is_sink(t) && t != CellType::kInput;
}

/// Smallest observed count k with !(k / patterns < rate), in the double
/// arithmetic of the final label test: a node whose count reaches it is
/// labeled 0 whatever later batches add. max_count + 1 (unreachable) when
/// even a node observed under every pattern stays below the rate.
std::uint64_t settle_count(std::uint64_t max_count, double patterns,
                           double rate) {
  std::uint64_t lo = 0;
  std::uint64_t hi = max_count + 1;
  while (lo < hi) {  // k / patterns < rate is monotone in k
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) / patterns < rate) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<std::int32_t> label_empirical(const Netlist& netlist,
                                          const LabelerOptions& options) {
  TraceSpan span("label.empirical");
  LogicSimulator sim(netlist);
  FaultSimulator probe(sim);
  Rng rng(options.seed);

  const double patterns = static_cast<double>(options.batches) * 64.0;
  const std::uint64_t need = settle_count(options.batches * 64, patterns,
                                          options.min_observed_rate);
  // Labelable nodes whose label is still open; a probe stops once the
  // node's count reaches `need`, and a settled node is never probed again.
  std::vector<NodeId> open;
  std::size_t labelable_count = 0;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (!labelable(netlist, v)) continue;
    ++labelable_count;
    if (need > 0) open.push_back(v);
  }

  std::vector<std::uint64_t> observed(netlist.size(), 0);
  std::vector<std::uint64_t> values;
  std::size_t probes = 0;
  std::size_t last_batch_probes = 0;
  for (std::size_t b = 0; b < options.batches && !open.empty(); ++b) {
    TraceSpan batch_span("fault_sim.observe");
    batch_span.arg("probes", static_cast<double>(open.size()));
    batch_span.arg("batch", static_cast<double>(b));
    probes += open.size();
    if (b + 1 == options.batches) last_batch_probes = open.size();
    sim.simulate(sim.random_batch(rng), values);
    std::size_t kept = 0;
    for (const NodeId v : open) {
      const int bound = static_cast<int>(std::min<std::uint64_t>(
          64, need - observed[v]));
      observed[v] += static_cast<std::uint64_t>(
          std::popcount(probe.observe_word(v, values, bound)));
      if (observed[v] < need) open[kept++] = v;
    }
    open.resize(kept);
  }
  span.arg("probes", static_cast<double>(probes));
  span.arg("settled",
           static_cast<double>(labelable_count - last_batch_probes));

  std::vector<std::int32_t> labels(netlist.size(), 0);
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (!labelable(netlist, v)) continue;
    const double rate = static_cast<double>(observed[v]) / patterns;
    labels[v] = rate < options.min_observed_rate ? 1 : 0;
  }
  return labels;
}

}  // namespace

std::vector<std::int32_t> label_by_cop(const Netlist& netlist,
                                       const CopMeasures& cop,
                                       double threshold) {
  std::vector<std::int32_t> labels(netlist.size(), 0);
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (!labelable(netlist, v)) continue;
    labels[v] = cop.observability[v] < threshold ? 1 : 0;
  }
  return labels;
}

std::vector<std::int32_t> label_difficult_to_control(const Netlist& netlist,
                                                     const CopMeasures& cop,
                                                     double threshold) {
  std::vector<std::int32_t> labels(netlist.size(), 0);
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (!labelable(netlist, v)) continue;
    const double p1 = cop.prob_one[v];
    labels[v] = std::min(p1, 1.0 - p1) < threshold ? 1 : 0;
  }
  return labels;
}

std::vector<std::int32_t> label_difficult_to_observe(
    const Netlist& netlist, const LabelerOptions& options) {
  if (options.oracle == LabelerOptions::Oracle::kCopThreshold) {
    const CopMeasures cop = compute_cop(netlist);
    return label_by_cop(netlist, cop, options.cop_threshold);
  }
  return label_empirical(netlist, options);
}

}  // namespace gcnt
