#include "dft/cpi.h"

#include <algorithm>
#include <unordered_set>

#include "common/log.h"
#include "cop/cop.h"
#include "dft/insertion_loop.h"

namespace gcnt {

CpiResult run_baseline_cpi(Netlist& netlist, const CpiOptions& options) {
  CpiResult result;
  std::unordered_set<NodeId> already_controlled;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    const CopMeasures cop = compute_cop(netlist);

    // (rarity, node, rare value is one?)
    std::vector<std::tuple<double, NodeId, bool>> candidates;
    for (NodeId v = 0; v < netlist.size(); ++v) {
      if (!netlist.can_control(v) || already_controlled.count(v)) continue;
      const double p1 = cop.prob_one[v];
      const double rarity = std::min(p1, 1.0 - p1);
      if (rarity < options.probability_threshold) {
        candidates.emplace_back(rarity, v, p1 < 0.5);
      }
    }
    result.remaining_below_threshold = candidates.size();
    if (candidates.empty()) break;
    result.rounds = round + 1;

    std::sort(candidates.begin(), candidates.end());
    const std::size_t budget =
        insertion_budget(candidates.size(), options.insert_fraction,
                         options.min_inserts_per_round);

    for (std::size_t k = 0; k < budget; ++k) {
      const auto& [rarity, target, rare_is_one] = candidates[k];
      result.inserted.push_back(
          netlist.insert_control_point(target, rare_is_one));
      already_controlled.insert(target);
    }
    log_info("baseline-cpi round ", round + 1, ": ", candidates.size(),
             " below threshold, inserted ", budget, " CPs");
  }
  return result;
}

}  // namespace gcnt
