// Cross-checks of the host-side solvers: sequential backward induction vs
// independent top-down recursion vs full tree enumeration, plus tree and
// table validation on random instances. These pin down the DP semantics
// before any machine simulator gets involved.
#include <gtest/gtest.h>

#include <cmath>

#include "tt/generator.hpp"
#include "tt/instance.hpp"
#include "tt/report.hpp"
#include "tt/solver_exhaustive.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/solver_threads.hpp"
#include "tt/validate.hpp"

namespace ttp::tt {
namespace {

TEST(SequentialSolver, SingleObjectSingleTreatment) {
  Instance ins(1, {2.0});
  ins.add_treatment(0b1, 3.0);
  const auto res = SequentialSolver().solve(ins);
  EXPECT_DOUBLE_EQ(res.cost, 6.0);  // t * P
  ASSERT_FALSE(res.tree.empty());
  EXPECT_EQ(res.tree.size(), 1);
}

TEST(SequentialSolver, PicksCheaperTreatment) {
  Instance ins(1, {1.0});
  ins.add_treatment(0b1, 3.0, "dear");
  ins.add_treatment(0b1, 2.0, "cheap");
  const auto res = SequentialSolver().solve(ins);
  EXPECT_DOUBLE_EQ(res.cost, 2.0);
  EXPECT_EQ(ins.action(res.tree.node(res.tree.root()).action).name, "cheap");
}

TEST(SequentialSolver, InadequateInstanceGivesInfiniteCost) {
  Instance ins(2, {1.0, 1.0});
  ins.add_test(0b01, 1.0);
  ins.add_treatment(0b01, 1.0);  // object 1 never treatable
  const auto res = SequentialSolver().solve(ins);
  EXPECT_TRUE(std::isinf(res.cost));
  EXPECT_TRUE(res.tree.empty());
}

TEST(SequentialSolver, TestThenTreatBeatsBlindTreatment) {
  // Two equally likely faults; one broad dear treatment vs test + cheap
  // targeted cures.
  Instance ins(2, {1.0, 1.0});
  ins.add_test(0b01, 0.1);
  ins.add_treatment(0b01, 1.0);
  ins.add_treatment(0b10, 1.0);
  const auto res = SequentialSolver().solve(ins);
  // Optimal: test (0.1*2) then cure each side (1*1 + 1*1) = 2.2.
  EXPECT_NEAR(res.cost, 2.2, 1e-12);
  EXPECT_TRUE(ins.action(res.tree.node(res.tree.root()).action).is_test);
}

TEST(SequentialSolver, TreatmentFailureContinuation) {
  // One treatment covers both objects of unequal priors, another only the
  // rare one. Treating broad-first can still be optimal; verify the failure
  // arc semantics produce the first-principles cost.
  Instance ins(2, {0.9, 0.1});
  ins.add_treatment(0b01, 1.0, "common");
  ins.add_treatment(0b10, 5.0, "rare");
  const auto res = SequentialSolver().solve(ins);
  // Treat "common" first: 1.0*1.0 + failure on {1}: 5*0.1 = 1.5.
  EXPECT_NEAR(res.cost, 1.5, 1e-12);
  const auto rep = validate_tree(ins, res.tree, res.cost);
  EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? "" : rep.errors[0]);
}

TEST(SequentialSolver, MatchesFirstPrinciplesTreeCost) {
  const Instance ins = fig1_example();
  const auto res = SequentialSolver().solve(ins);
  ASSERT_FALSE(res.tree.empty());
  EXPECT_NEAR(res.tree.expected_cost(ins), res.cost, 1e-12);
  const auto rep = validate_tree(ins, res.tree, res.cost);
  EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? "" : rep.errors[0]);
  const auto trep = validate_table(ins, res.table);
  EXPECT_TRUE(trep.ok) << (trep.errors.empty() ? "" : trep.errors[0]);
}

TEST(SequentialSolver, OpCountIsLayeredSweep) {
  const Instance ins = fig1_example();
  const auto res = SequentialSolver().solve(ins);
  // (2^k - 1) states, N evaluations each.
  EXPECT_EQ(res.steps.total_ops,
            ((std::uint64_t{1} << ins.k()) - 1) *
                static_cast<std::uint64_t>(ins.num_actions()));
}

TEST(RecursiveSolver, AgreesWithSequentialOnFig1) {
  const Instance ins = fig1_example();
  const auto a = SequentialSolver().solve(ins);
  const auto b = RecursiveSolver().solve(ins);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  EXPECT_EQ(max_table_diff(a.table, b.table), 0.0);
}

TEST(EnumerateMinCost, MatchesDpOnTinyInstances) {
  util::Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    RandomOptions opt;
    opt.num_tests = 2;
    opt.num_treatments = 2;
    const Instance ins = random_instance(3, opt, rng);
    const auto dp = SequentialSolver().solve(ins);
    const auto enumd = enumerate_min_cost(ins, (1 << ins.k()) - 1);
    if (std::isinf(dp.cost)) {
      EXPECT_FALSE(enumd.has_value());
    } else {
      ASSERT_TRUE(enumd.has_value());
      EXPECT_NEAR(*enumd, dp.cost, 1e-9) << describe(ins);
    }
  }
}

class RandomCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomCrossCheck, SequentialVsRecursiveVsThreads) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  RandomOptions opt;
  opt.num_tests = 3 + GetParam() % 3;
  opt.num_treatments = 3 + GetParam() % 2;
  const int k = 4 + GetParam() % 4;  // 4..7
  const Instance ins = random_instance(k, opt, rng);

  const auto seq = SequentialSolver().solve(ins);
  const auto rec = RecursiveSolver().solve(ins);
  const auto thr = ThreadsSolver(2).solve(ins);

  EXPECT_EQ(max_table_diff(seq.table, rec.table), 0.0);
  EXPECT_EQ(max_table_diff(seq.table, thr.table), 0.0);
  EXPECT_EQ(seq.table.best_action, thr.table.best_action);

  if (!std::isinf(seq.cost)) {
    const auto rep = validate_tree(ins, seq.tree, seq.cost);
    EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? "" : rep.errors[0]);
    const auto trep = validate_table(ins, seq.table);
    EXPECT_TRUE(trep.ok) << (trep.errors.empty() ? "" : trep.errors[0]);
    // Threads reconstruct the identical procedure.
    EXPECT_EQ(seq.tree.size(), thr.tree.size());
    EXPECT_NEAR(thr.tree.expected_cost(ins), seq.cost, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCrossCheck, ::testing::Range(0, 20));

TEST(ThreadsSolver, WidthOneMatchesSequential) {
  util::Rng rng(99);
  const Instance ins = random_instance(5, RandomOptions{}, rng);
  const auto seq = SequentialSolver().solve(ins);
  const auto thr = ThreadsSolver(1).solve(ins);
  EXPECT_EQ(max_table_diff(seq.table, thr.table), 0.0);
}

TEST(SequentialSolver, LargeUniverseSmoke) {
  // k = 20: a million states — the scale where the paper's machine would
  // host one PE per (S, i). Sequential memory/time smoke.
  util::Rng rng(2020);
  RandomOptions opt;
  opt.num_tests = 4;
  opt.num_treatments = 4;
  const Instance ins = random_instance(20, opt, rng);
  const auto res = SequentialSolver().solve(ins);
  EXPECT_FALSE(std::isinf(res.cost));
  const auto rep = validate_tree(ins, res.tree, res.cost);
  EXPECT_TRUE(rep.ok);
}

TEST(Tree, PathCostDetectsMalformedTrees) {
  Instance ins(2, {1.0, 1.0});
  ins.add_treatment(0b01, 1.0);
  ins.add_treatment(0b10, 1.0);
  // A tree that forgets the failure continuation for object 1.
  std::vector<TreeNode> nodes{{0b11, 0, -1, -1}};
  Tree broken(std::move(nodes), 0);
  EXPECT_NO_THROW(broken.path_cost(ins, 0));
  EXPECT_THROW(broken.path_cost(ins, 1), std::runtime_error);
}

TEST(Tree, DepthAndRender) {
  const Instance ins = fig1_example();
  const auto res = SequentialSolver().solve(ins);
  EXPECT_GE(res.tree.depth(), 2);
  const std::string s = res.tree.to_string(ins);
  EXPECT_NE(s.find("TREAT"), std::string::npos);
}

}  // namespace
}  // namespace ttp::tt
