// E27 — reachable-subspace frontier solver vs the dense kernel path.
//
// The dense path (PR 2/4) evaluates all N actions on every one of the 2^k
// states; the frontier solver (this PR) first closes the state space under
// S∩T_i / S−T_i from U and runs the same wave kernel over the reachable
// set only. This bench asks the acceptance question directly: on a family
// whose closure is O(k²) — prefix-interval tests plus a universal
// treatment — how much does skipping the unreachable lattice buy, as N
// scales with k under the paper's machine-sizing policies?
//
//   BM_DenseSolve     warm-arena solve_with_arena at k = 14..20 — the best
//                     dense variant the CPU supports (simd-avx2 on x86).
//   BM_FrontierSolve  FrontierSolver::solve_sparse at k = 14..22 — closure
//                     expansion + sparse waves (always the scalar tile),
//                     end to end, every iteration (no cached closure).
//
// Args are {k, policy} with policy 0 = ActionBudget::kQuadratic (N = k²)
// and 1 = kLinear (N = 4k); instances pad the k meaningful actions with
// duplicates so the kernel sweeps the full N-wide action set without the
// closure growing. Acceptance (ISSUE 9): frontier ≥ 5x dense at k = 18,
// N = k², and ≥ 20x at k = 20. Every run records
// {bench, args, k, N, variant, ns_per_solve} via the shared --json harness
// (bench_json.hpp); BENCH_e27.json at the repo root is the committed
// trajectory and tools/bench_compare.py diffs two such files.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdint>
#include <string>

#include "tt/kernel.hpp"
#include "tt/sizing.hpp"
#include "tt/solver_frontier.hpp"
#include "util/bits.hpp"

namespace {

using ttp::tt::ActionBudget;
using ttp::tt::Instance;

ActionBudget policy_from(std::int64_t idx) {
  return idx == 0 ? ActionBudget::kQuadratic : ActionBudget::kLinear;
}

/// Prefix-interval family sized to the policy: tests on {0..m-1} for
/// m = 1..k-1 keep the closure at the contiguous bit intervals (O(k²)
/// states), a universal treatment terminates every branch, and duplicate
/// actions pad N up to actions_for(k, policy) so dense and sparse sweep
/// the same N-wide action set per state.
Instance frontier_instance(int k, ActionBudget policy) {
  const auto n_actions = static_cast<int>(ttp::tt::actions_for(k, policy));
  const int pad = n_actions > k ? n_actions - k : 0;
  std::vector<double> w(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) w[static_cast<std::size_t>(i)] = 0.01 + 0.003 * i;
  Instance ins(k, std::move(w));
  for (int m = 1; m < k; ++m) {
    ins.add_test(ttp::util::universe(m), 1.0 + 0.1 * m);
  }
  for (int p = 0; p < pad / 2; ++p) {
    const int m = 1 + p % (k - 1);
    ins.add_test(ttp::util::universe(m), 5.0 + 0.01 * p);
  }
  ins.add_treatment(ins.universe(), 3.0);
  for (int p = 0; p < pad - pad / 2; ++p) {
    ins.add_treatment(ins.universe(), 6.0 + 0.01 * p);
  }
  return ins;
}

void annotate(benchmark::State& state, const Instance& ins,
              ActionBudget policy) {
  state.counters["k"] = static_cast<double>(ins.k());
  state.counters["N"] = static_cast<double>(ins.num_actions());
  state.SetLabel(std::string(ttp::tt::active_kernel_variant_name()) + "/" +
                 ttp::tt::budget_name(policy));
}

void BM_DenseSolve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const ActionBudget policy = policy_from(state.range(1));
  const Instance ins = frontier_instance(k, policy);
  ttp::tt::SolveArena arena;
  double cost = 0;
  for (auto _ : state) {
    cost = ttp::tt::solve_with_arena(ins, arena).cost;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["C(U)"] = cost;
  annotate(state, ins, policy);
}

void BM_FrontierSolve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const ActionBudget policy = policy_from(state.range(1));
  const Instance ins = frontier_instance(k, policy);
  // Pin the planner sparse for every k in range (min_sparse_k below 14)
  // so the bench times the sparse path itself, not the planner's choice.
  ttp::tt::FrontierConfig cfg;
  cfg.min_sparse_k = 2;
  ttp::tt::FrontierSolver solver(/*workers=*/0, cfg);
  double cost = 0;
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto res = solver.solve_sparse(ins);
    cost = res.cost;
    states = res.breakdown.get("frontier_states");
    benchmark::DoNotOptimize(cost);
  }
  state.counters["C(U)"] = cost;
  state.counters["reachable"] = static_cast<double>(states);
  annotate(state, ins, policy);
}

}  // namespace

// Dense stops at k = 20 (N·2^k evals; k = 22 dense is minutes per solve),
// the frontier runs through k = 22 — the serving tier's --max-sparse-k
// headroom. Policy 0 = N = k² (quadratic), 1 = N = 4k (linear).
BENCHMARK(BM_DenseSolve)
    ->ArgsProduct({benchmark::CreateDenseRange(14, 20, 2), {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrontierSolve)
    ->ArgsProduct({benchmark::CreateDenseRange(14, 22, 2), {0, 1}})
    ->Unit(benchmark::kMillisecond);

TTP_BENCH_JSON_MAIN()
