// Normative step-accounting semantics (solver.hpp): the paper's claims are
// cost-model comparisons, so the simulated counters must mean the same
// thing in every backend. These tests pin the documented formulas —
// including the partial-final-round rule that ThreadsSolver used to get
// wrong — and that per-layer trace spans exactly partition the totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "tt/generator.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/solver_threads.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ttp::tt {
namespace {

Instance accounting_instance(int k) {
  util::Rng rng(4242);
  RandomOptions opt;
  opt.num_tests = 5;
  opt.num_treatments = 4;
  return random_instance(k, opt, rng);
}

/// The documented ThreadsSolver formula: Σ_j ceil(|layer j| / width) steps,
/// N·(2^k − 1) ops.
struct Expected {
  std::uint64_t parallel_steps = 0;
  std::uint64_t total_ops = 0;
};

Expected threads_formula(int k, int num_actions, std::uint64_t width) {
  Expected e;
  for (int j = 1; j <= k; ++j) {
    const std::uint64_t n = util::layer_subsets(k, j).size();
    e.parallel_steps += (n + width - 1) / width;
    e.total_ops += n * static_cast<std::uint64_t>(num_actions);
  }
  return e;
}

TEST(StepAccounting, ThreadsMatchesDocumentedFormula) {
  const Instance ins = accounting_instance(6);
  for (std::size_t width : {1u, 2u, 3u, 5u, 8u}) {
    const auto res = ThreadsSolver(width).solve(ins);
    const Expected want = threads_formula(ins.k(), ins.num_actions(), width);
    EXPECT_EQ(res.steps.parallel_steps, want.parallel_steps)
        << "width " << width;
    EXPECT_EQ(res.steps.total_ops, want.total_ops) << "width " << width;
    EXPECT_EQ(res.steps.route_steps, 0u) << "width " << width;
  }
}

TEST(StepAccounting, PartialFinalRoundIsNotOvercharged) {
  // k = 6: the middle layer has C(6,3) = 20 states. With width = 8 the old
  // accounting charged 3 rounds × N×8 = 24N ops for that layer; the rule
  // charges the 20 evaluations per action that actually happen.
  const Instance ins = accounting_instance(6);
  const auto res = ThreadsSolver(8).solve(ins);
  const std::uint64_t n_states = (std::uint64_t{1} << ins.k()) - 1;
  EXPECT_EQ(res.steps.total_ops,
            n_states * static_cast<std::uint64_t>(ins.num_actions()));
}

TEST(StepAccounting, ThreadsEvaluationCountMatchesSequential) {
  // Acceptance rule: on a single-worker pool the threaded backend performs
  // exactly the sequential number of M-evaluations — and the breakdown
  // entry both backends record agrees.
  const Instance ins = accounting_instance(6);
  const auto seq = SequentialSolver().solve(ins);
  const auto thr = ThreadsSolver(1).solve(ins);
  EXPECT_EQ(thr.steps.total_ops, seq.steps.total_ops);
  EXPECT_EQ(seq.breakdown.get("m_evaluations"), seq.steps.total_ops);
  EXPECT_EQ(thr.breakdown.get("m_evaluations"), thr.steps.total_ops);
  EXPECT_EQ(thr.breakdown.get("m_evaluations"),
            seq.breakdown.get("m_evaluations"));
  // Wider pools change the round count, never the evaluation count.
  const auto thr4 = ThreadsSolver(4).solve(ins);
  EXPECT_EQ(thr4.breakdown.get("m_evaluations"),
            seq.breakdown.get("m_evaluations"));
}

TEST(StepAccounting, LayerSpansExactlyPartitionThreadsTotals) {
  const Instance ins = accounting_instance(6);
  const int k = ins.k();
  const std::uint64_t width = 3;

  obs::tracer().configure(obs::TraceConfig{obs::TraceMode::kSpans, ""});
  const auto res = ThreadsSolver(width).solve(ins);
  const std::vector<obs::SpanRecord> spans = obs::tracer().snapshot();
  obs::tracer().configure(obs::TraceConfig{});

  const obs::SpanRecord* root = nullptr;
  for (const auto& s : spans) {
    if (s.name == "solve.threads") root = &s;
  }
  ASSERT_NE(root, nullptr);

  // Each per-layer span carries exactly its layer's documented charge, and
  // the layers together partition the solver totals.
  std::uint64_t sum_steps = 0, sum_ops = 0;
  int layers_seen = 0;
  for (const auto& s : spans) {
    if (s.parent != root->id || s.name != "layer") continue;
    int j = -1;
    for (const auto& [key, value] : s.attrs) {
      if (key == "j") j = std::stoi(value);
    }
    ASSERT_GE(j, 1);
    ASSERT_LE(j, k);
    const std::uint64_t n = util::layer_subsets(k, j).size();
    EXPECT_EQ(s.parallel_delta(), (n + width - 1) / width) << "layer " << j;
    EXPECT_EQ(s.ops_delta(),
              n * static_cast<std::uint64_t>(ins.num_actions()))
        << "layer " << j;
    sum_steps += s.parallel_delta();
    sum_ops += s.ops_delta();
    ++layers_seen;
  }
  EXPECT_EQ(layers_seen, k);
  EXPECT_EQ(sum_steps, res.steps.parallel_steps);
  EXPECT_EQ(sum_ops, res.steps.total_ops);
}

}  // namespace
}  // namespace ttp::tt
