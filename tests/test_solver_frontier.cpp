// Reachable-subspace sparse DP solver (tt/solver_frontier.hpp): closure
// expansion, bitwise dense/sparse equality, the adaptive planner, and the
// svc sparse admission tier end to end through the wire protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "tt/generator.hpp"
#include "tt/kernel_sparse.hpp"
#include "tt/serialize.hpp"
#include "tt/sizing.hpp"
#include "tt/solver_frontier.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/validate.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ttp::tt {
namespace {

using util::bit;

/// Interval-structured instance: prefix tests T_m = {0..m-1} plus one
/// universal treatment. Every reachable state is a contiguous bit interval,
/// so |R| = O(k²) regardless of k — the regime the sparse solver exists
/// for. Optional padding appends duplicate-set actions (distinct costs so
/// argmins stay unambiguous under the lowest-index tie rule), which grow N
/// without growing the closure.
Instance interval_instance(int k, int pad_actions = 0) {
  std::vector<double> w(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) w[static_cast<std::size_t>(i)] = 0.01 + 0.003 * i;
  Instance ins(k, std::move(w));
  for (int m = 1; m < k; ++m) {
    ins.add_test(util::universe(m), 1.0 + 0.1 * m);
  }
  for (int p = 0; p < pad_actions / 2; ++p) {
    const int m = 1 + p % (k - 1);
    ins.add_test(util::universe(m), 5.0 + 0.01 * p);
  }
  ins.add_treatment(ins.universe(), 3.0);
  for (int p = 0; p < pad_actions - pad_actions / 2; ++p) {
    ins.add_treatment(ins.universe(), 6.0 + 0.01 * p);
  }
  return ins;
}

/// Singleton tests for every object + universal treatment: the worst case,
/// whose closure is the full 2^k lattice.
Instance singleton_instance(int k) {
  std::vector<double> w(static_cast<std::size_t>(k), 0.1);
  Instance ins(k, std::move(w));
  for (int i = 0; i < k; ++i) ins.add_test(bit(i), 1.0 + 0.1 * i);
  ins.add_treatment(ins.universe(), 2.0);
  return ins;
}

void expect_same_tree(const Tree& a, const Tree& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.root(), b.root());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.node(i).state, b.node(i).state) << "node " << i;
    EXPECT_EQ(a.node(i).action, b.node(i).action) << "node " << i;
    EXPECT_EQ(a.node(i).yes, b.node(i).yes) << "node " << i;
    EXPECT_EQ(a.node(i).no, b.node(i).no) << "node " << i;
  }
}

/// The core contract: on every reachable state the sparse tables must be
/// BITWISE identical to the dense DP — cost, argmin, tree, and the
/// restricted step accounting.
void expect_dense_sparse_identical(const Instance& ins) {
  const SolveResult dense = SequentialSolver().solve(ins);
  FrontierTables tables;
  const FrontierSolver frontier(2);
  const SolveResult sparse = frontier.solve_sparse(ins, &tables);

  EXPECT_EQ(sparse.cost, dense.cost);  // bitwise (== on identical doubles)
  expect_same_tree(sparse.tree, dense.tree);
  EXPECT_TRUE(sparse.table.cost.empty());  // no 2^k tables — the point

  ASSERT_FALSE(tables.masks.empty());
  for (std::size_t slot = 0; slot < tables.masks.size(); ++slot) {
    const Mask m = tables.masks[slot];
    const std::size_t mi = static_cast<std::size_t>(m);
    EXPECT_EQ(tables.cost[slot], dense.table.cost[mi]) << "mask " << m;
    EXPECT_EQ(tables.best[slot], dense.table.best_action[mi]) << "mask " << m;
  }

  // Restricted sequential cost model: every reachable non-empty state is
  // evaluated against all N actions, once.
  const std::uint64_t expect_ops =
      static_cast<std::uint64_t>(tables.masks.size() - 1) *
      static_cast<std::uint64_t>(ins.num_actions());
  EXPECT_EQ(sparse.steps.total_ops, expect_ops);
  EXPECT_EQ(sparse.steps.parallel_steps, expect_ops);
  EXPECT_EQ(sparse.breakdown.get("frontier_states"),
            tables.masks.size());
}

TEST(FrontierStateMap, InsertFindGrowAndReject) {
  StateMap map;
  map.reset(4);
  util::Rng rng(11);
  std::vector<Mask> keys;
  for (int i = 0; i < 5000; ++i) {
    const Mask m = static_cast<Mask>(rng.uniform(0, (1 << 24) - 1));
    if (map.insert(m, static_cast<std::uint32_t>(keys.size()))) {
      keys.push_back(m);
    }
  }
  EXPECT_EQ(map.size(), keys.size());
  EXPECT_GE(map.capacity(), 2 * map.size());  // ≤ 50% load
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.find(keys[i]), static_cast<std::uint32_t>(i));
    EXPECT_FALSE(map.insert(keys[i], 999));  // duplicate keeps the value
    EXPECT_EQ(map.find(keys[i]), static_cast<std::uint32_t>(i));
  }
  // A key that was never inserted misses (kMaxUniverse bound keeps it real).
  Mask absent = 0;
  while (map.find(absent) != StateMap::kNotFound) ++absent;
  EXPECT_EQ(map.find(absent), StateMap::kNotFound);
}

TEST(FrontierStateMap, ResetKeepsCapacityAndEmptiesMap) {
  StateMap map;
  map.reset(1000);
  for (Mask m = 1; m <= 1000; ++m) map.insert(m, m);
  const std::size_t cap = map.capacity();
  map.reset(8);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);  // arena reuse: backing array retained
  EXPECT_EQ(map.find(17), StateMap::kNotFound);
  map.insert(17, 3);
  EXPECT_EQ(map.find(17), 3u);
}

TEST(FrontierClosure, IntervalInstanceHasQuadraticClosure) {
  const int k = 16;
  const Instance ins = interval_instance(k);
  FrontierArena arena;
  const ClosureResult cr =
      expand_reachable(ins, std::size_t{1} << k, arena);
  ASSERT_TRUE(cr.complete);
  // Contiguous intervals only: far fewer than 2^k states.
  EXPECT_LE(cr.states, static_cast<std::size_t>(k) * k);
  EXPECT_EQ(arena.states, cr.states);

  // Layout discipline: ∅ at slot 0, layers ascend, masks ascend per layer,
  // and the map agrees with the layout.
  ASSERT_EQ(arena.layer_off.size(), static_cast<std::size_t>(k) + 2);
  EXPECT_EQ(arena.masks.data()[0], 0u);
  EXPECT_EQ(arena.layer_off.back(), arena.states);
  for (int j = 1; j <= k; ++j) {
    const std::size_t b = arena.layer_off[static_cast<std::size_t>(j)];
    const std::size_t e = arena.layer_off[static_cast<std::size_t>(j) + 1];
    for (std::size_t s = b; s < e; ++s) {
      EXPECT_EQ(util::popcount(arena.masks.data()[s]), j);
      if (s > b) EXPECT_LT(arena.masks.data()[s - 1], arena.masks.data()[s]);
      EXPECT_EQ(arena.map.find(arena.masks.data()[s]),
                static_cast<std::uint32_t>(s));
    }
  }
  // p(S) matches the dense table bitwise on every reachable state.
  const std::vector<double>& wt = ins.subset_weight_table();
  for (std::size_t s = 0; s < arena.states; ++s) {
    EXPECT_EQ(arena.ws.data()[s],
              wt[static_cast<std::size_t>(arena.masks.data()[s])]);
  }
}

TEST(FrontierClosure, SingletonTestsReachTheFullLattice) {
  const int k = 6;
  FrontierArena arena;
  const ClosureResult cr =
      expand_reachable(singleton_instance(k), (std::size_t{1} << k) + 1, arena);
  ASSERT_TRUE(cr.complete);
  EXPECT_EQ(cr.states, std::size_t{1} << k);
}

TEST(FrontierClosure, NeverSplitAndDuplicateActionsAddNothing) {
  const int k = 10;
  const Instance plain = interval_instance(k);
  // A test with set = U never splits any S (S − U = ∅), and duplicate-set
  // actions rediscover existing children only.
  Instance padded = interval_instance(k, /*pad_actions=*/12);
  padded.add_test(padded.universe(), 9.0);
  FrontierArena a1, a2;
  const ClosureResult r1 = expand_reachable(plain, std::size_t{1} << k, a1);
  const ClosureResult r2 = expand_reachable(padded, std::size_t{1} << k, a2);
  ASSERT_TRUE(r1.complete);
  ASSERT_TRUE(r2.complete);
  EXPECT_EQ(r1.states, r2.states);
}

TEST(FrontierClosure, KOneHasTwoStates) {
  Instance ins(1, {1.0});
  ins.add_treatment(bit(0), 1.0);
  FrontierArena arena;
  const ClosureResult cr = expand_reachable(ins, 16, arena);
  ASSERT_TRUE(cr.complete);
  EXPECT_EQ(cr.states, 2u);  // ∅ and U
}

TEST(FrontierClosure, BudgetAbortReportsLowerBound) {
  const int k = 10;
  FrontierArena arena;
  const ClosureResult cr = expand_reachable(singleton_instance(k), 64, arena);
  EXPECT_FALSE(cr.complete);
  EXPECT_GT(cr.states, 64u);
  EXPECT_FALSE(arena.complete);
}

TEST(FrontierEquality, RandomMixedInstances) {
  util::Rng rng(42);
  for (int trial = 0; trial < 12; ++trial) {
    const int k = 6 + trial % 7;  // 6..12
    RandomOptions opt;
    opt.num_tests = 2 + static_cast<int>(rng.uniform(0, k));
    opt.num_treatments = 1 + static_cast<int>(rng.uniform(0, k));
    const Instance ins = random_instance(k, opt, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" + std::to_string(k));
    expect_dense_sparse_identical(ins);
  }
}

TEST(FrontierEquality, TieHeavyIntegerInstances) {
  util::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const int k = 7 + trial % 5;
    RandomOptions opt;
    opt.num_tests = k;
    opt.num_treatments = 3;
    opt.integer_costs = true;   // many exactly-equal M values →
    opt.integer_weights = true;  // the lowest-index tie rule must decide
    opt.min_cost = 1.0;
    opt.max_cost = 3.0;
    const Instance ins = random_instance(k, opt, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" + std::to_string(k));
    expect_dense_sparse_identical(ins);
  }
}

TEST(FrontierEquality, ExtremeWeightSpread) {
  // Twelve orders of magnitude across the weights: any deviation from the
  // dense solver's summation association shows up immediately.
  const int k = 8;
  std::vector<double> w = {1e12, 3.0, 1e-9, 7.5, 2e10, 1e-6, 42.0, 5e-3};
  Instance ins(k, std::move(w));
  util::Rng rng(3);
  for (int i = 0; i < k; ++i) {
    ins.add_test(static_cast<Mask>(rng.uniform(1, (1 << k) - 2)),
                 rng.uniform_real(0.5, 4.0));
  }
  for (int i = 0; i < k; ++i) {
    ins.add_treatment(bit(i) | static_cast<Mask>(rng.uniform(0, (1 << k) - 1)),
                      rng.uniform_real(0.5, 4.0));
  }
  ASSERT_TRUE(ins.every_object_treatable());
  expect_dense_sparse_identical(ins);
}

TEST(FrontierEquality, TreatmentOnlyInstances) {
  util::Rng rng(19);
  for (int trial = 0; trial < 6; ++trial) {
    const int k = 6 + trial;
    RandomOptions opt;
    opt.num_tests = 0;
    opt.num_treatments = k + 2;
    const Instance ins = random_instance(k, opt, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" + std::to_string(k));
    expect_dense_sparse_identical(ins);
  }
}

TEST(FrontierPlanner, DenseBelowMinSparseK) {
  const Instance ins = interval_instance(8);
  const FrontierSolver solver(2);  // default config: min_sparse_k = 15
  const SolveResult res = solver.solve(ins);
  // The dense path materializes the 2^k table and records no frontier
  // counters; cost still matches the reference.
  EXPECT_FALSE(res.table.cost.empty());
  EXPECT_EQ(res.breakdown.get("frontier_states"), 0u);
  EXPECT_EQ(res.cost, SequentialSolver().solve(ins).cost);
}

TEST(FrontierPlanner, SparseAboveMinSparseK) {
  const Instance ins = interval_instance(16);
  FrontierConfig cfg;
  cfg.min_sparse_k = 15;
  const FrontierSolver solver(2, cfg);
  const SolveResult res = solver.solve(ins);
  EXPECT_TRUE(res.table.cost.empty());
  EXPECT_GT(res.breakdown.get("frontier_states"), 0u);
  EXPECT_EQ(res.cost, SequentialSolver().solve(ins).cost);
}

TEST(FrontierPlanner, BudgetOvershootFallsBackDense) {
  // Singleton tests make R = 2^9 = 512 states; a 64-state budget aborts
  // the expansion and the planner reruns the dense arena path.
  const Instance ins = singleton_instance(9);
  FrontierConfig cfg;
  cfg.min_sparse_k = 2;
  cfg.max_states = 64;
  const FrontierSolver solver(2, cfg);
  const SolveResult res = solver.solve(ins);
  EXPECT_EQ(res.breakdown.get("frontier_fallback"), 1u);
  EXPECT_FALSE(res.table.cost.empty());
  EXPECT_EQ(res.cost, SequentialSolver().solve(ins).cost);
}

TEST(FrontierPlanner, ThrowsWhenCappedAboveTheDenseCeiling) {
  const Instance ins = singleton_instance(9);
  FrontierConfig cfg;
  cfg.min_sparse_k = 2;
  cfg.max_states = 64;
  cfg.dense_max_k = 8;  // no dense fallback for k = 9
  const FrontierSolver solver(2, cfg);
  EXPECT_THROW((void)solver.solve(ins), std::runtime_error);
}

TEST(FrontierPlanner, OverBudgetThrowReleasesTheClosureMap) {
  // Batch workers reuse one arena per thread; an overrun left in it would
  // make every later expansion refill a budget-sized map.
  FrontierConfig cfg;
  cfg.min_sparse_k = 2;
  cfg.max_states = 2048;
  cfg.dense_max_k = 8;
  SolveArena dense;
  FrontierArena sparse;
  EXPECT_THROW((void)solve_adaptive(singleton_instance(12), dense, sparse, cfg),
               ClosureOverBudget);
  EXPECT_EQ(sparse.map.capacity(), 0u);
  // The arena still serves the next instance.
  const Instance ins = interval_instance(12);
  EXPECT_EQ(solve_adaptive(ins, dense, sparse, cfg).cost,
            SequentialSolver().solve(ins).cost);
}

TEST(FrontierPlanner, ForcedSparseThrowsOnPinnedBudget) {
  FrontierConfig cfg;
  cfg.max_states = 16;
  const FrontierSolver solver(1, cfg);
  EXPECT_THROW((void)solver.solve_sparse(singleton_instance(8)),
               std::runtime_error);
}

TEST(FrontierPlanner, EstimatorExactAndCapped) {
  const Instance ins = interval_instance(16);
  const ReachableEstimate big = estimate_reachable(ins, 1u << 16);
  ASSERT_TRUE(big.exact);
  EXPECT_LE(big.states, 16u * 16u);
  const ReachableEstimate small = estimate_reachable(ins, 8);
  EXPECT_FALSE(small.exact);
  EXPECT_GT(small.states, 8u);
  EXPECT_LE(small.states, big.states);
}

TEST(FrontierPlanner, StateBudgetArithmetic) {
  FrontierConfig cfg;
  cfg.max_state_bytes = 400 * 1024;  // 400 KiB / 40 B = 10240 states
  cfg.dense_crossover = 0.125;
  cfg.dense_max_k = 20;
  // Above the dense ceiling: pure byte-budget cap.
  EXPECT_EQ(cfg.state_budget(22), 10240u);
  // Inside the dense range the crossover fraction caps harder: 2^16/8.
  EXPECT_EQ(cfg.state_budget(16), 8192u);
  // The floor keeps tiny budgets from starving small closures.
  cfg.max_state_bytes = 1024;
  EXPECT_EQ(cfg.state_budget(22), 1024u);
  // A pinned max_states wins over the byte budget.
  cfg.max_states = 77;
  EXPECT_EQ(cfg.state_budget(22), 77u);
}

/// The paper's five domain families (PAPER.md §1), one generator each.
Instance domain_instance(int family, int k, util::Rng& rng) {
  switch (family) {
    case 0:
      return medical_instance(k, k, rng);
    case 1:
      return machine_fault_instance(k, rng);
    case 2:
      return biology_key_instance(k, rng);
    case 3:
      return lab_analysis_instance(k, rng);
    default:
      return logistics_instance(k, rng);
  }
}

/// The top three layers (U, layer k−1, layer k−2) hold at most
/// 1 + k + C(k,2) states; the top-layer verdict comes after expanding the
/// first two of them.
std::size_t top_layers(int k) {
  return static_cast<std::size_t>(1 + k + k * (k - 1) / 2);
}

TEST(FrontierPlanner, DomainFamiliesTakeTheTopLayerVerdict) {
  // Every layer of these closures is fully reachable, so the planner goes
  // dense as soon as layer k−2 is complete, long before the 2^k/8 cap.
  const int k = 16;
  const FrontierConfig cfg;
  util::Rng rng(2026);
  for (int family = 0; family < 5; ++family) {
    SCOPED_TRACE("family " + std::to_string(family));
    const Instance ins = domain_instance(family, k, rng);
    FrontierArena probe;
    const ClosureResult cr = expand_reachable(ins, cfg.state_budget(k), probe,
                                              nullptr, /*top_check=*/true);
    EXPECT_TRUE(cr.top_full);
    EXPECT_LE(cr.expanded, top_layers(k));
    EXPECT_LT(cr.states, cfg.state_budget(k));

    SolveArena dense;
    FrontierArena sparse;
    const SolveResult res = solve_adaptive(ins, dense, sparse, cfg);
    EXPECT_EQ(res.breakdown.get("frontier_fallback"), 1u);
    EXPECT_EQ(res.breakdown.get("frontier_states"), 0u);
    EXPECT_EQ(sparse.states, cr.states);
    const SolveResult ref = SequentialSolver().solve(ins);
    EXPECT_EQ(res.cost, ref.cost);  // bitwise
    expect_same_tree(res.tree, ref.tree);
  }
}

TEST(FrontierPlanner, RandomFamilyStaysSparseAndIdenticalOnR) {
  util::Rng rng(77);
  for (int k = 15; k <= 20; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const Instance ins = random_instance(k, RandomOptions{}, rng);
    SolveArena dense;
    FrontierArena sparse;
    const SolveResult res = solve_adaptive(ins, dense, sparse, FrontierConfig{});
    EXPECT_EQ(res.breakdown.get("frontier_fallback"), 0u);
    ASSERT_EQ(res.breakdown.get("frontier_states"), sparse.states);
    const SolveResult ref = SequentialSolver().solve(ins);
    EXPECT_EQ(res.cost, ref.cost);
    expect_same_tree(res.tree, ref.tree);
    for (std::size_t slot = 0; slot < sparse.states; ++slot) {
      const auto mi = static_cast<std::size_t>(sparse.masks.data()[slot]);
      ASSERT_EQ(sparse.cost.data()[slot], ref.table.cost[mi]) << "mask " << mi;
      ASSERT_EQ(sparse.best.data()[slot], ref.table.best_action[mi])
          << "mask " << mi;
    }
  }
}

TEST(FrontierPlanner, CrossoverOneNeverTakesTheTopLayerVerdict) {
  // perfbench's reference solve forces the sparse path this way, and its
  // k = 18 dense cross-check relies on it.
  const int k = 12;
  util::Rng rng(5);
  const Instance ins = medical_instance(k, k, rng);
  SolveArena dense;
  FrontierArena sparse;
  FrontierConfig forced;
  forced.min_sparse_k = 0;
  forced.dense_crossover = 1.0;
  const SolveResult res = solve_adaptive(ins, dense, sparse, forced);
  EXPECT_EQ(res.breakdown.get("frontier_fallback"), 0u);
  EXPECT_GT(res.breakdown.get("frontier_states"), top_layers(k));
  EXPECT_EQ(res.cost, SequentialSolver().solve(ins).cost);

  // The default crossover takes the verdict on the same instance.
  FrontierConfig cfg;
  cfg.min_sparse_k = 0;
  EXPECT_EQ(solve_adaptive(ins, dense, sparse, cfg)
                .breakdown.get("frontier_fallback"),
            1u);
  FrontierArena probe;
  EXPECT_TRUE(expand_reachable(ins, cfg.state_budget(k), probe, nullptr,
                               /*top_check=*/true)
                  .top_full);
}

}  // namespace
}  // namespace ttp::tt

namespace ttp::svc {
namespace {

std::string session(Service& svc, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  serve_session(svc, in, out);
  return out.str();
}

TEST(SvcFrontierAdmission, RejectNamesTheTrippedLimit) {
  ServiceConfig cfg;
  cfg.scheduler.max_k = 4;
  cfg.scheduler.max_actions = 32;
  cfg.scheduler.max_sparse_k = 12;
  // A deliberately tiny byte budget; the probe's state cap still floors at
  // 1024 states, so the rejected instance below needs a closure above that.
  cfg.scheduler.sparse_budget_bytes = 64 * tt::kSparseBytesPerState;
  Service svc(cfg);

  {  // N above max_actions.
    tt::Instance ins = tt::interval_instance(4, /*pad_actions=*/40);
    const Response r = svc.solve(ins);
    EXPECT_EQ(r.status, Status::kRejectedOversize);
    EXPECT_NE(r.error.find("(actions)"), std::string::npos) << r.error;
  }
  {  // k above even the sparse ceiling.
    const Response r = svc.solve(tt::interval_instance(14));
    EXPECT_EQ(r.status, Status::kRejectedOversize);
    EXPECT_NE(r.error.find("(k)"), std::string::npos) << r.error;
  }
  {  // Sparse tier, but the closure (2^11 = 2048 states) exceeds the
     // floored 1024-state budget.
    const Response r = svc.solve(tt::singleton_instance(11));
    EXPECT_EQ(r.status, Status::kRejectedOversize);
    EXPECT_NE(r.error.find("(sparse-budget)"), std::string::npos) << r.error;
  }
  EXPECT_EQ(svc.metrics().get("svc.sched.rejected_oversize"), 3u);
}

TEST(SvcFrontierAdmission, OverBudgetFailsOnlyItsOwnRequestInABatch) {
  // The sparse-budget verdict now comes from the solve, inside a shared
  // micro-batch: the ordinary request staged alongside must still get OK.
  ServiceConfig cfg;
  cfg.scheduler.autostart = false;  // stage both, then drain once
  cfg.scheduler.max_k = 4;
  cfg.scheduler.max_sparse_k = 12;
  cfg.scheduler.sparse_budget_bytes = 64 * tt::kSparseBytesPerState;
  Service svc(cfg);
  Service::Pending over = svc.submit(tt::singleton_instance(11));
  Service::Pending follower = svc.submit(tt::singleton_instance(11));
  Service::Pending good = svc.submit(tt::fig1_example());
  svc.scheduler().start();

  const Response r = over.get();
  EXPECT_EQ(r.status, Status::kRejectedOversize);
  EXPECT_NE(r.error.find("(sparse-budget)"), std::string::npos) << r.error;
  EXPECT_EQ(r.cache, CacheOutcome::kNone);
  const Response f = follower.get();
  EXPECT_EQ(f.status, Status::kRejectedOversize);
  EXPECT_EQ(f.error, r.error);
  const Response g = good.get();
  ASSERT_TRUE(g.ok()) << g.error;
  EXPECT_NEAR(g.cost, tt::SequentialSolver().solve(tt::fig1_example()).cost,
              1e-9);

  EXPECT_EQ(svc.metrics().get("svc.solve.batches"), 1u);
  EXPECT_EQ(svc.metrics().get("svc.sched.rejected_oversize"), 1u);
  EXPECT_EQ(svc.metrics().get("svc.solve.kernel_instances"), 1u);
  EXPECT_EQ(svc.cache().size(), 1u);  // nothing cached for the reject
}

TEST(SvcFrontierAdmission, SparseTierAdmitsAndCountsFrontierSolves) {
  ServiceConfig cfg;
  cfg.scheduler.max_k = 4;  // dense ceiling well below the instance's k
  cfg.scheduler.max_sparse_k = 16;
  Service svc(cfg);
  const tt::Instance ins = tt::interval_instance(16);
  const Response r = svc.solve(ins);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_GT(svc.metrics().get("svc.solve.frontier.instances"), 0u);
  EXPECT_GT(svc.metrics().get("svc.solve.frontier.states"), 0u);
  // The sparse wave never runs the dense SIMD code, so a sparse-only
  // service credits no dense kernel variant.
  for (const auto& [name, value] : svc.metrics().all()) {
    if (name.rfind("svc.solve.variant.", 0) == 0) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
  const double want = tt::SequentialSolver().solve(ins).cost;
  EXPECT_NEAR(r.cost, want, 1e-9 * std::max(1.0, std::abs(want)));
}

TEST(SvcFrontierAdmission, StatsTextReportsAdmissionLimits) {
  ServiceConfig cfg;
  cfg.scheduler.max_k = 12;
  cfg.scheduler.max_sparse_k = 18;
  Service svc(cfg);
  const std::string stats = svc.stats_text();
  EXPECT_NE(stats.find("admission.max_k: 12"), std::string::npos) << stats;
  EXPECT_NE(stats.find("admission.max_actions: 4096"), std::string::npos);
  EXPECT_NE(stats.find("admission.max_sparse_k: 18"), std::string::npos);
  EXPECT_NE(stats.find("admission.sparse_budget_bytes:"), std::string::npos);
}

TEST(SvcFrontierAdmission, ParseServeArgsSparseFlags) {
  const char* argv[] = {"ttp_serve", "--max-sparse-k=22",
                        "--sparse-budget-mb=16"};
  ServeArgs args;
  std::string error;
  ASSERT_TRUE(
      parse_serve_args(static_cast<int>(std::size(argv)), argv, args, error))
      << error;
  EXPECT_EQ(args.cfg.scheduler.max_sparse_k, 22);
  EXPECT_EQ(args.cfg.scheduler.sparse_budget_bytes, std::size_t{16} << 20);
  // Out-of-range rejects: the sparse ceiling is bounded by kMaxUniverse.
  const char* bad[] = {"ttp_serve", "--max-sparse-k=25"};
  ServeArgs args2;
  EXPECT_FALSE(parse_serve_args(static_cast<int>(std::size(bad)), bad, args2,
                                error));
}

TEST(SvcFrontierAdmission, ServesK22ThroughTheWireProtocol) {
  // The acceptance scenario: a k = 22 instance — far beyond the dense
  // admission ceiling — served end to end through the default-configured
  // wire path (max_sparse_k = 24), because its reachable closure is tiny.
  const int k = 22;
  const tt::Instance ins = tt::interval_instance(k, /*pad_actions=*/66);
  ASSERT_EQ(ins.num_actions(), 88);  // N = 4k, the paper's linear budget
  Service svc;

  const std::string reply =
      session(svc, "SOLVE\n" + tt::to_text(ins) + "END\nQUIT\n");
  ASSERT_EQ(reply.rfind("OK cache=miss cost=", 0), 0u) << reply;

  // Parse the reply: header line, tree payload, END.
  const std::size_t nl = reply.find('\n');
  const std::string head = reply.substr(0, nl);
  const std::size_t cost_at = head.find("cost=") + 5;
  const double cost = std::stod(head.substr(cost_at));
  const std::size_t end_at = reply.find("\nEND\n");
  ASSERT_NE(end_at, std::string::npos);
  const tt::Tree tree = tree_from_wire(reply.substr(nl + 1, end_at - nl));

  // The returned procedure is a valid optimal-cost tree for the instance.
  const tt::ValidationReport report = tt::validate_tree(ins, tree, cost);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_GT(svc.metrics().get("svc.solve.frontier.instances"), 0u);
}

}  // namespace
}  // namespace ttp::svc
