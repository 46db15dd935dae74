// Cross-solver argmin determinism on tie-heavy instances. Equal table
// *costs* can hide divergent tie-breaking; the repo's contract is stronger:
// among equal-cost actions the LOWEST INDEX wins, in every table-building
// backend, so all solvers reconstruct the identical procedure tree. These
// instances are built to maximize ties (unit costs, uniform priors,
// symmetric action sets) — the case where a sloppy reduction order or a
// non-strict comparison would silently pick a different argmin.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tt/generator.hpp"
#include "tt/solver_ccc.hpp"
#include "tt/solver_hypercube.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/solver_state_parallel.hpp"
#include "tt/solver_threads.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ttp::tt {
namespace {

/// Every non-trivial subset as a unit-cost test, every singleton as a
/// unit-cost treatment, uniform priors: maximal tie pressure.
Instance all_subsets_unit_cost(int k) {
  Instance ins(k, std::vector<double>(static_cast<std::size_t>(k), 1.0));
  const Mask full = util::universe(k);
  for (Mask s = 1; s < full; ++s) ins.add_test(s, 1.0);
  for (int j = 0; j < k; ++j) ins.add_treatment(util::bit(j), 1.0);
  return ins;
}

/// Random sets, but every cost exactly 1 — ties abound wherever two
/// actions induce equal-cost splits.
Instance random_unit_cost(int k, std::uint64_t seed) {
  util::Rng rng(seed);
  RandomOptions opt;
  opt.num_tests = 6;
  opt.num_treatments = 5;
  opt.integer_costs = true;
  opt.max_cost = 1.0;
  return random_instance(k, opt, rng);
}

void expect_identical_argmins(const Instance& ins) {
  const auto seq = SequentialSolver().solve(ins);

  struct Backend {
    const char* name;
    SolveResult res;
  };
  const std::vector<Backend> backends = {
      {"threads(1)", ThreadsSolver(1).solve(ins)},
      {"threads(3)", ThreadsSolver(3).solve(ins)},
      {"hypercube", HypercubeSolver().solve(ins)},
      {"ccc", CccSolver().solve(ins)},
      {"state_parallel", StateParallelSolver().solve(ins)},
  };
  for (const Backend& b : backends) {
    EXPECT_EQ(max_table_diff(seq.table, b.res.table), 0.0) << b.name;
    // The strong check: identical best_action tables, not just equal costs.
    EXPECT_EQ(seq.table.best_action, b.res.table.best_action) << b.name;
  }

  // And the argmin itself obeys the lowest-index rule: no smaller index
  // attains the minimum anywhere.
  const std::vector<double>& wt = ins.subset_weight_table();
  for (std::size_t s = 1; s < seq.table.cost.size(); ++s) {
    const int arg = seq.table.best_action[s];
    if (arg < 0) continue;
    EXPECT_EQ(action_value(ins, seq.table.cost, wt, static_cast<Mask>(s), arg),
              seq.table.cost[s])
        << s;
    for (int i = 0; i < arg; ++i) {
      EXPECT_GT(action_value(ins, seq.table.cost, wt, static_cast<Mask>(s), i),
                seq.table.cost[s])
          << "state " << s << ": lower index " << i
          << " also attains the min picked at " << arg;
    }
  }
}

TEST(TieDeterminism, AllSubsetsUnitCostK4) {
  expect_identical_argmins(all_subsets_unit_cost(4));
}

TEST(TieDeterminism, AllSubsetsUnitCostK5) {
  expect_identical_argmins(all_subsets_unit_cost(5));
}

TEST(TieDeterminism, RandomUnitCostInstances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_identical_argmins(random_unit_cost(5, seed));
  }
}

}  // namespace
}  // namespace ttp::tt
