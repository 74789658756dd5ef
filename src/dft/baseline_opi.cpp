#include "dft/baseline_opi.h"

#include <algorithm>

#include "common/log.h"
#include "cop/cop.h"
#include "dft/insertion_loop.h"

namespace gcnt {

BaselineOpiResult run_baseline_opi(Netlist& netlist,
                                   const BaselineOpiOptions& options) {
  BaselineOpiResult result;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    const CopMeasures cop = compute_cop(netlist);
    std::vector<std::pair<double, NodeId>> candidates;
    for (NodeId v = 0; v < netlist.size(); ++v) {
      if (!netlist.can_observe(v)) continue;
      if (cop.observability[v] < options.observability_threshold) {
        candidates.emplace_back(cop.observability[v], v);
      }
    }
    result.remaining_below_threshold = candidates.size();
    if (candidates.empty()) break;
    result.rounds = round + 1;

    // Worst observability first.
    std::sort(candidates.begin(), candidates.end());
    const std::size_t budget =
        insertion_budget(candidates.size(), options.insert_fraction,
                         options.min_inserts_per_round);

    for (std::size_t k = 0; k < budget; ++k) {
      const NodeId target = candidates[k].second;
      netlist.insert_observe_point(target);
      result.inserted.push_back(target);
    }
    log_info("baseline-opi round ", round + 1, ": ", candidates.size(),
             " below threshold, inserted ", budget, " OPs");
  }
  return result;
}

}  // namespace gcnt
