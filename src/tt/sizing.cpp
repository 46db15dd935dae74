#include "tt/sizing.hpp"

#include "tt/solver_frontier.hpp"
#include "util/bits.hpp"

namespace ttp::tt {

SizingRow size_for(int k, std::uint64_t num_actions) {
  SizingRow row;
  row.k = k;
  row.num_actions = num_actions;
  const int a = util::ceil_log2(num_actions < 2 ? 2 : num_actions);
  row.machine_dims = k + a;
  // Feasibility sweeps go far past any machine; saturate rather than shift
  // out of the 64-bit range (the dims column stays exact).
  row.pes = row.machine_dims >= 64 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << row.machine_dims);
  row.fits_2_20 = row.machine_dims <= 20;
  row.fits_2_30 = row.machine_dims <= 30;
  return row;
}

std::uint64_t actions_for(int k, ActionBudget policy) {
  switch (policy) {
    case ActionBudget::kAllSubsets:
      // The paper's "all possible tests and treatments" regime, N = O(2^k):
      // 2^k actions, so the machine needs N·2^k = 2^(2k) PEs.
      return std::uint64_t{1} << k;
    case ActionBudget::kQuadratic:
      return static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(k);
    case ActionBudget::kLinear:
      return static_cast<std::uint64_t>(4 * k);
  }
  return 0;
}

int max_k_for_machine(int budget_log2, ActionBudget policy) {
  int best = 0;
  for (int k = 1; k <= 40; ++k) {
    const SizingRow row = size_for(k, actions_for(k, policy));
    if (row.machine_dims <= budget_log2) best = k;
  }
  return best;
}

ReachableEstimate estimate_reachable(const Instance& ins,
                                     std::uint64_t max_states) {
  // Function-local arena: callers may estimate concurrently, and a
  // measurement is rare enough that the allocation cost does not matter.
  FrontierArena arena;
  const ClosureResult cr = expand_reachable(
      ins, static_cast<std::size_t>(max_states), arena, /*pool=*/nullptr);
  return ReachableEstimate{static_cast<std::uint64_t>(cr.states), cr.complete};
}

std::string budget_name(ActionBudget policy) {
  switch (policy) {
    case ActionBudget::kAllSubsets:
      return "N=O(2^k)";
    case ActionBudget::kQuadratic:
      return "N=k^2";
    case ActionBudget::kLinear:
      return "N=4k";
  }
  return "?";
}

}  // namespace ttp::tt
