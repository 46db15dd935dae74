// E25 — The AVX2 kernel vs the scalar path, variant-forced.
//
// bench_e23 compares the kernel against the pre-kernel legacy loop under
// whatever variant TTP_KERNEL selects; this bench pins the variant per run
// with set_kernel_variant() and asks the speed-up question directly, at
// four altitudes:
//
//   BM_WarmSolve       ns/solve for a warm-arena solve_with_arena at
//                      k = 10..18, re-solving one instance — the kernel's
//                      own speedup (bar: avx2 >= 1.5x scalar at
//                      k = 14..16).
//   BM_DistinctSolve   ns/solve over a stream of distinct domain instances
//                      at k = 10 and 12 on one arena — what a serving
//                      worker sees: every solve brings new action sets and
//                      weights, so nothing keyed on them is ever reused.
//   BM_BatchMany       a 32-instance BatchSolver::solve_many batch — the
//                      speedup as the serving scheduler sees it, through
//                      the per-worker arena machinery.
//   BM_ServiceColdPath end-to-end svc::Service requests with a cache too
//                      small to hold anything and per-iteration-distinct
//                      instances, so every request walks the full miss
//                      path: canon -> cache miss -> scheduler -> kernel.
//
// Every run records {bench, k, N, variant, ns_per_solve} via the shared
// --json harness (bench_json.hpp); BENCH_e25.json at the repo root is this
// bench's committed trajectory and tools/bench_compare.py diffs two such
// files. The AVX2 runs keep the capture name "simd" so their keys match
// earlier records. The forced variant is restored to "auto" after each
// benchmark so run order cannot leak a pin into a later family.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "svc/service.hpp"
#include "tt/generator.hpp"
#include "tt/kernel.hpp"
#include "tt/solver_batch.hpp"
#include "util/rng.hpp"

namespace {

using ttp::tt::Instance;

Instance bench_instance(int k, std::uint64_t seed = 77) {
  ttp::util::Rng rng(seed);
  ttp::tt::RandomOptions opt;
  opt.num_tests = 10;
  opt.num_treatments = 10;
  return ttp::tt::random_instance(k, opt, rng);
}

/// Round-robin over the paper's five application domains (generator.hpp).
Instance domain_instance(int i, int k, ttp::util::Rng& rng) {
  switch (i % 5) {
    case 0:
      return ttp::tt::medical_instance(k, k, rng);
    case 1:
      return ttp::tt::machine_fault_instance(k, rng);
    case 2:
      return ttp::tt::biology_key_instance(k, rng);
    case 3:
      return ttp::tt::lab_analysis_instance(k, rng);
    default:
      return ttp::tt::logistics_instance(k, rng);
  }
}

/// Pins the requested variant for the duration of one benchmark run and
/// restores auto-dispatch on destruction. Skips the run (with a visible
/// reason) when the variant is unavailable, e.g. "avx2" on a non-AVX2 CPU.
class VariantPin {
 public:
  VariantPin(benchmark::State& state, const char* spec) {
    if (!ttp::tt::set_kernel_variant(spec)) {
      state.SkipWithError(
          (std::string("kernel variant unavailable: ") + spec).c_str());
      ok_ = false;
    }
  }
  ~VariantPin() { ttp::tt::set_kernel_variant("auto"); }
  bool ok() const noexcept { return ok_; }

 private:
  bool ok_ = true;
};

void annotate(benchmark::State& state, const Instance& ins) {
  state.counters["k"] = static_cast<double>(ins.k());
  state.counters["N"] = static_cast<double>(ins.num_actions());
  state.SetLabel(std::string(ttp::tt::active_kernel_variant_name()));
}

void BM_WarmSolve(benchmark::State& state, const char* variant) {
  const VariantPin pin(state, variant);
  if (!pin.ok()) return;
  const auto ins = bench_instance(static_cast<int>(state.range(0)));
  ttp::tt::SolveArena arena;
  double cost = 0;
  for (auto _ : state) {
    cost = ttp::tt::solve_with_arena(ins, arena).cost;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["C(U)"] = cost;
  annotate(state, ins);
}

void BM_DistinctSolve(benchmark::State& state, const char* variant) {
  const VariantPin pin(state, variant);
  if (!pin.ok()) return;
  const int k = static_cast<int>(state.range(0));
  ttp::util::Rng rng(4000 + static_cast<std::uint64_t>(k));
  std::vector<Instance> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(domain_instance(i, k, rng));
    pool.back().subset_weight_table();  // built once, outside the timing
  }
  ttp::tt::SolveArena arena;
  std::size_t next = 0;
  for (auto _ : state) {
    const double cost = ttp::tt::solve_with_arena(pool[next], arena).cost;
    benchmark::DoNotOptimize(cost);
    next = (next + 1) % pool.size();
  }
  annotate(state, pool.front());
}

void BM_BatchMany(benchmark::State& state, const char* variant) {
  const VariantPin pin(state, variant);
  if (!pin.ok()) return;
  const int k = static_cast<int>(state.range(0));
  std::vector<Instance> batch;
  for (std::uint64_t i = 0; i < 32; ++i) {
    batch.push_back(bench_instance(k, 2000 + i));
  }
  ttp::tt::BatchSolver solver;
  for (auto _ : state) {
    auto results = solver.solve_many(batch);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
  annotate(state, batch.front());
}

void BM_ServiceColdPath(benchmark::State& state, const char* variant) {
  const VariantPin pin(state, variant);
  if (!pin.ok()) return;
  const int k = static_cast<int>(state.range(0));
  // A cache too small for even one procedure plus a zero batch window:
  // every request is a leader that pays the full canon + miss + solve
  // path, and latency is not padded by the micro-batch delay.
  ttp::svc::ServiceConfig cfg;
  cfg.cache.capacity_bytes = 1;
  cfg.scheduler.batch_delay = std::chrono::microseconds(0);
  ttp::svc::Service service(cfg);
  // Distinct weight vectors so canonicalization cannot collapse two
  // requests onto one key mid-iteration.
  std::vector<Instance> pool;
  for (std::uint64_t i = 0; i < 64; ++i) {
    pool.push_back(bench_instance(k, 3000 + i));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const auto r = service.solve(pool[next]);
    benchmark::DoNotOptimize(r.cost);
    next = (next + 1) % pool.size();
  }
  annotate(state, pool.front());
}

}  // namespace

// k = 10..18 spans the regimes that matter: tables inside L1 (k=10),
// L2-resident (k=12..16, the acceptance window), and spilling toward L3
// (k=18). The "simd" captures pin "avx2" and skip on a CPU without it.
BENCHMARK_CAPTURE(BM_WarmSolve, scalar, "scalar")
    ->DenseRange(10, 18, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WarmSolve, simd, "avx2")
    ->DenseRange(10, 18, 2)
    ->Unit(benchmark::kMillisecond);

// k = 10 and 12 cover the bulk of the warm working set's sizes.
BENCHMARK_CAPTURE(BM_DistinctSolve, scalar, "scalar")
    ->Arg(10)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DistinctSolve, simd, "avx2")
    ->Arg(10)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_BatchMany, scalar, "scalar")
    ->Arg(12)
    ->Arg(14)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchMany, simd, "avx2")
    ->Arg(12)
    ->Arg(14)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Real time: the solve happens on the scheduler's drain thread while the
// caller blocks in solve().
BENCHMARK_CAPTURE(BM_ServiceColdPath, scalar, "scalar")
    ->Arg(12)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceColdPath, simd, "avx2")
    ->Arg(12)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

TTP_BENCH_JSON_MAIN()
