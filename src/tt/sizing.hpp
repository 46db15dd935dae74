// Machine-sizing arithmetic behind the paper's feasibility claims (§1):
// the algorithm needs O(N·2^k) PEs; a 2^20-PE machine handles ~15 candidates
// even with all N = O(2^k) actions; ~20 candidates when N = O(k^2).
#pragma once

#include <cstdint>
#include <string>

namespace ttp::tt {

class Instance;

struct SizingRow {
  int k = 0;
  std::uint64_t num_actions = 0;  ///< N (padded to a power of two).
  int machine_dims = 0;           ///< log2 of required PEs.
  std::uint64_t pes = 0;          ///< N_pad · 2^k.
  bool fits_2_20 = false;
  bool fits_2_30 = false;
};

/// PEs required for k objects and N actions (N rounded up to a power of 2).
SizingRow size_for(int k, std::uint64_t num_actions);

/// Largest k whose TT instance fits in 2^budget_log2 PEs when N is given by
/// the supplied policy.
enum class ActionBudget {
  kAllSubsets,  ///< N = 2^k (every subset as both test and treatment -> 2^(k+1))
  kQuadratic,   ///< N = k^2
  kLinear,      ///< N = 4k
};
int max_k_for_machine(int budget_log2, ActionBudget policy);

std::uint64_t actions_for(int k, ActionBudget policy);
std::string budget_name(ActionBudget policy);

/// Outcome of a bounded reachable-closure measurement (see
/// solver_frontier.hpp). `exact` means the expansion finished under the
/// cap and `states` is |R| exactly; otherwise the cap was hit and `states`
/// is only a lower bound (> max_states).
struct ReachableEstimate {
  std::uint64_t states = 0;
  bool exact = false;
};

/// Measures the reachable closure of `ins` by running the whole frontier
/// expansion with a `max_states` cap (no top-layer check): an exact result
/// under a cap of state_budget(k) means the solve-time expansion, run with
/// the same cap, also completes. Cost is O(min(|R|, max_states) · N); runs
/// serially on the caller's thread with function-local scratch, so it is
/// safe to call concurrently. The serving tier does not call it: its
/// solve's own expansion is the sparse tier's admission test.
ReachableEstimate estimate_reachable(const Instance& ins,
                                     std::uint64_t max_states);

}  // namespace ttp::tt
