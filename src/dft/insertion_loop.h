#pragma once
// The budget rule of the test point insertion loops. The GCN flows' one
// loop (run_gcn_opi, run_gcn_cpi) is in insertion_loop.cpp.

#include <cstddef>

namespace gcnt {

/// How many of `candidates` ranked candidates one round inserts: the top
/// `fraction`, at least `minimum`, never more than there are. Shared by
/// the GCN flows and the COP baselines.
std::size_t insertion_budget(std::size_t candidates, double fraction,
                             std::size_t minimum);

}  // namespace gcnt
