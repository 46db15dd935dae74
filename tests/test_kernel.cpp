// The layer-wave kernel (tt/kernel.*): SoA layout, layer index, tiled
// evaluation, arena reuse, and the batched entry point. The central check
// is byte-identity against `legacy_solve`, a faithful replica of the
// pre-kernel SequentialSolver inner loop (per-call action_value dispatch),
// so the kernel can never drift from the reference semantics unnoticed.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tt/generator.hpp"
#include "tt/kernel.hpp"
#include "tt/solver_batch.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/validate.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ttp::tt {
namespace {

/// The pre-kernel SequentialSolver, verbatim: layered sweep, per-call
/// action_value, strict `<` lowest-index ties.
DpTable legacy_solve(const Instance& ins) {
  const int k = ins.k();
  const int N = ins.num_actions();
  const std::size_t states = std::size_t{1} << k;
  const std::vector<double>& wt = ins.subset_weight_table();
  DpTable table;
  table.k = k;
  table.cost.assign(states, kInf);
  table.best_action.assign(states, -1);
  table.cost[0] = 0.0;
  for (int j = 1; j <= k; ++j) {
    for (Mask s : util::layer_subsets(k, j)) {
      double best = kInf;
      int arg = -1;
      for (int i = 0; i < N; ++i) {
        const double v = action_value(ins, table.cost, wt, s, i);
        if (v < best) {
          best = v;
          arg = i;
        }
      }
      table.cost[s] = best;
      table.best_action[s] = arg;
    }
  }
  return table;
}

Instance random_for(int seed, int k) {
  util::Rng rng(static_cast<std::uint64_t>(seed) * 1013 + 7);
  RandomOptions opt;
  opt.num_tests = 3 + seed % 4;
  opt.num_treatments = 3 + seed % 3;
  return random_instance(k, opt, rng);
}

TEST(ActionSoA, MirrorsInstanceActions) {
  const Instance ins = fig1_example();
  ActionSoA soa;
  soa.build(ins);
  ASSERT_EQ(soa.num_actions, ins.num_actions());
  EXPECT_EQ(soa.num_tests, ins.num_tests());
  for (int i = 0; i < ins.num_actions(); ++i) {
    const auto ui = static_cast<std::size_t>(i);
    EXPECT_EQ(soa.set[ui], ins.action(i).set) << i;
    EXPECT_EQ(soa.nset[ui], static_cast<Mask>(~ins.action(i).set)) << i;
    EXPECT_EQ(soa.cost[ui], ins.action(i).cost) << i;
    EXPECT_EQ(soa.is_test[ui] != 0, ins.action(i).is_test) << i;
    EXPECT_EQ(soa.is_test[ui] != 0, i < soa.num_tests) << i;
  }
}

TEST(LayerIndex, MatchesLayerSubsetsForAllK) {
  LayerIndex idx;
  for (int k = 1; k <= 10; ++k) {
    idx.build(k);
    EXPECT_EQ(idx.k(), k);
    for (int j = 0; j <= k; ++j) {
      const auto expect = util::layer_subsets(k, j);
      const auto got = idx.layer(j);
      ASSERT_EQ(got.size(), expect.size()) << "k=" << k << " j=" << j;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i], expect[i]) << "k=" << k << " j=" << j;
      }
    }
  }
}

TEST(Kernel, EvalStatesByteIdenticalToLegacyLoop) {
  for (int seed = 0; seed < 12; ++seed) {
    const int k = 4 + seed % 5;  // 4..8
    const Instance ins = random_for(seed, k);
    const DpTable legacy = legacy_solve(ins);
    const auto res = SequentialSolver().solve(ins);
    ASSERT_EQ(res.table.cost.size(), legacy.cost.size()) << seed;
    for (std::size_t s = 0; s < legacy.cost.size(); ++s) {
      // EXPECT_EQ, not NEAR: byte-identical is the contract.
      EXPECT_EQ(res.table.cost[s], legacy.cost[s]) << "seed " << seed;
      EXPECT_EQ(res.table.best_action[s], legacy.best_action[s])
          << "seed " << seed << " state " << s;
    }
  }
}

TEST(Kernel, TileBoundariesDoNotChangeResults) {
  // A layer larger than one tile (k = 10 middle layer has C(10,5) = 252
  // states > kKernelTile) must agree with the legacy loop too.
  const Instance ins = random_for(3, 10);
  const DpTable legacy = legacy_solve(ins);
  const auto res = SequentialSolver().solve(ins);
  EXPECT_EQ(res.table.cost, legacy.cost);
  EXPECT_EQ(res.table.best_action, legacy.best_action);
}

TEST(SolveArena, ReusedAcrossSolvesAndUniverseSizes) {
  SolveArena arena;
  for (int round = 0; round < 3; ++round) {
    for (int k : {4, 6, 5}) {  // deliberately non-monotone k sequence
      const Instance ins = random_for(round * 10 + k, k);
      const DpTable legacy = legacy_solve(ins);
      const auto res = solve_with_arena(ins, arena);
      EXPECT_EQ(res.table.cost, legacy.cost) << "round " << round;
      EXPECT_EQ(res.table.best_action, legacy.best_action)
          << "round " << round;
      EXPECT_EQ(res.breakdown.get("m_evaluations"), res.steps.total_ops);
    }
  }
}

TEST(SolveArena, SequentialCostModelPreserved) {
  const Instance ins = fig1_example();
  const auto res = SequentialSolver().solve(ins);
  const std::uint64_t evals =
      ((std::uint64_t{1} << ins.k()) - 1) *
      static_cast<std::uint64_t>(ins.num_actions());
  EXPECT_EQ(res.steps.total_ops, evals);
  EXPECT_EQ(res.steps.parallel_steps, evals);
  EXPECT_EQ(res.steps.route_steps, 0u);
}

TEST(BatchSolver, MatchesPerInstanceSolvesInOrder) {
  std::vector<Instance> batch;
  for (int seed = 0; seed < 9; ++seed) {
    batch.push_back(random_for(seed, 4 + seed % 4));  // heterogeneous k
  }
  const auto results = BatchSolver(3).solve_many(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const DpTable legacy = legacy_solve(batch[i]);
    EXPECT_EQ(results[i].table.cost, legacy.cost) << i;
    EXPECT_EQ(results[i].table.best_action, legacy.best_action) << i;
    if (!std::isinf(results[i].cost)) {
      const auto rep =
          validate_tree(batch[i], results[i].tree, results[i].cost);
      EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? "" : rep.errors[0]);
    }
    EXPECT_EQ(results[i].breakdown.get("m_evaluations"),
              results[i].steps.total_ops)
        << i;
  }
}

TEST(BatchSolver, EmptyAndSingleAndOversubscribed) {
  EXPECT_TRUE(BatchSolver(2).solve_many(std::span<const Instance>{}).empty());

  std::vector<Instance> one{fig1_example()};
  const auto r1 = BatchSolver(4).solve_many(one);  // more workers than items
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].table.cost, SequentialSolver().solve(one[0]).table.cost);

  std::vector<Instance> many;
  for (int seed = 0; seed < 17; ++seed) {  // more items than workers
    many.push_back(random_for(seed + 100, 5));
  }
  const auto rm = BatchSolver(2).solve_many(many);
  ASSERT_EQ(rm.size(), many.size());
  for (std::size_t i = 0; i < many.size(); ++i) {
    EXPECT_EQ(rm[i].table.cost, legacy_solve(many[i]).cost) << i;
  }
}

TEST(BatchSolver, ThrowsOnMalformedInstanceBeforeDispatch) {
  std::vector<Instance> batch{fig1_example(), Instance(2, {1.0, -1.0})};
  EXPECT_THROW(BatchSolver(2).solve_many(batch), std::invalid_argument);
}

TEST(BatchSolver, AFailingInstanceFailsOnlyItsOwnOutcome) {
  // k = 9 above a dense ceiling of 8 must go sparse, and singleton tests
  // make its closure the full 512-state lattice: over the 64-state cap,
  // its solve throws. fig1_example in the same batch still solves.
  FrontierConfig planner;
  planner.min_sparse_k = 2;
  planner.max_states = 64;
  planner.dense_max_k = 8;
  Instance unservable(9, std::vector<double>(9, 0.1));
  for (int i = 0; i < 9; ++i) unservable.add_test(util::bit(i), 1.0);
  unservable.add_treatment(unservable.universe(), 2.0);
  const Instance fig1 = fig1_example();
  const std::vector<const Instance*> batch{&unservable, &fig1};

  const std::vector<BatchOutcome> out =
      BatchSolver(2, planner).solve_many(std::span<const Instance* const>(batch));
  ASSERT_EQ(out.size(), 2u);
  ASSERT_TRUE(out[0].error);
  EXPECT_THROW(std::rethrow_exception(out[0].error), ClosureOverBudget);
  ASSERT_FALSE(out[1].error);
  EXPECT_EQ(out[1].result.cost, SequentialSolver().solve(fig1).cost);
}

}  // namespace
}  // namespace ttp::tt
