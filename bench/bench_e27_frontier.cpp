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
//   BM_FrontierSolve  solve_adaptive pinned sparse at k = 14..22 — closure
//                     expansion + sparse waves (always the scalar tile),
//                     end to end, every iteration (no cached closure), on
//                     one reused arena pair, serially, as a BatchSolver
//                     worker runs it.
//
// Args are {k, policy} with policy 0 = ActionBudget::kQuadratic (N = k²)
// and 1 = kLinear (N = 4k); instances pad the k meaningful actions with
// duplicates so the kernel sweeps the full N-wide action set without the
// closure growing. Acceptance: frontier ≥ 5x dense at k = 18, N = k², and
// ≥ 20x at k = 20.
//
// The planner cases ask whether the adaptive planner picks the cheaper
// path on the families the serving tier sees:
//
//   BM_PlannerAdaptive  solve_adaptive with the daemon's default planner
//   BM_PlannerDense     solve_with_arena on the same instance
//
// Args are {family, k}: families 0–4 are the paper's domain generators
// (medical, machine fault, biology, lab analysis, logistics) at k = 16,
// whose closures are the full lattice, and family 5 is random_instance
// with default options at k = 16..20, whose closures are sparse.
//
// Every run records {bench, args, k, N, variant, ns_per_solve}, plus
// family and reachable (the exact closure size), via the shared --json
// harness (bench_json.hpp); BENCH_e27.json at the repo root is the
// committed trajectory and tools/bench_compare.py diffs two such files.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "tt/generator.hpp"
#include "tt/kernel.hpp"
#include "tt/sizing.hpp"
#include "tt/solver_frontier.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

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
  ttp::benchjson::label(state,
                        std::string(ttp::tt::active_kernel_variant_name()) +
                            "/" + ttp::tt::budget_name(policy),
                        "interval");
}

constexpr std::array<std::string_view, 6> kFamilies = {
    "medical", "machine_fault", "biology", "lab", "logistics", "random"};

/// One seeded instance of planner family `family` at universe size k.
Instance planner_instance(std::int64_t family, int k) {
  ttp::util::Rng rng(static_cast<std::uint64_t>(1000 * family + k));
  switch (family) {
    case 0:
      return ttp::tt::medical_instance(k, k, rng);
    case 1:
      return ttp::tt::machine_fault_instance(k, rng);
    case 2:
      return ttp::tt::biology_key_instance(k, rng);
    case 3:
      return ttp::tt::lab_analysis_instance(k, rng);
    case 4:
      return ttp::tt::logistics_instance(k, rng);
    default:
      return ttp::tt::random_instance(k, ttp::tt::RandomOptions{}, rng);
  }
}

void annotate_planner(benchmark::State& state, const Instance& ins) {
  const int k = ins.k();
  state.counters["k"] = static_cast<double>(k);
  state.counters["N"] = static_cast<double>(ins.num_actions());
  state.counters["reachable"] = static_cast<double>(
      ttp::tt::estimate_reachable(ins, (std::uint64_t{1} << k) + 1).states);
  ttp::benchjson::label(state, ttp::tt::active_kernel_variant_name(),
                        kFamilies[static_cast<std::size_t>(state.range(0))]);
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
  // Pin the planner sparse for every k in range (no dense floor, and a
  // crossover of 1 disarms the top-layer check) so the bench times the
  // sparse path itself, not the planner's choice.
  ttp::tt::FrontierConfig cfg;
  cfg.min_sparse_k = 0;
  cfg.dense_crossover = 1.0;
  ttp::tt::SolveArena dense;
  ttp::tt::FrontierArena sparse;
  double cost = 0;
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto res = ttp::tt::solve_adaptive(ins, dense, sparse, cfg);
    cost = res.cost;
    states = res.breakdown.get("frontier_states");
    benchmark::DoNotOptimize(cost);
  }
  state.counters["C(U)"] = cost;
  state.counters["reachable"] = static_cast<double>(states);
  annotate(state, ins, policy);
}

void BM_PlannerAdaptive(benchmark::State& state) {
  const Instance ins = planner_instance(state.range(0),
                                        static_cast<int>(state.range(1)));
  const ttp::tt::FrontierConfig planner;  // = ttp_serve's default flags
  ttp::tt::SolveArena dense;
  ttp::tt::FrontierArena sparse;
  double cost = 0;
  std::uint64_t sparse_states = 0;
  for (auto _ : state) {
    const auto res = ttp::tt::solve_adaptive(ins, dense, sparse, planner);
    cost = res.cost;
    sparse_states = res.breakdown.get("frontier_states");
    benchmark::DoNotOptimize(cost);
  }
  state.counters["C(U)"] = cost;
  state.counters["sparse"] = sparse_states != 0 ? 1.0 : 0.0;
  annotate_planner(state, ins);
}

void BM_PlannerDense(benchmark::State& state) {
  const Instance ins = planner_instance(state.range(0),
                                        static_cast<int>(state.range(1)));
  ttp::tt::SolveArena arena;
  double cost = 0;
  for (auto _ : state) {
    cost = ttp::tt::solve_with_arena(ins, arena).cost;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["C(U)"] = cost;
  annotate_planner(state, ins);
}

/// {family, k}: the five domain families at k = 16, random at k = 16..20.
void planner_args(benchmark::internal::Benchmark* b) {
  for (int family = 0; family < 5; ++family) b->Args({family, 16});
  for (int k = 16; k <= 20; ++k) b->Args({5, k});
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
BENCHMARK(BM_PlannerAdaptive)->Apply(planner_args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlannerDense)->Apply(planner_args)->Unit(benchmark::kMillisecond);

TTP_BENCH_JSON_MAIN()
