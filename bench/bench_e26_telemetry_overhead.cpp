// E26 — Telemetry overhead: does the always-on request telemetry (trace
// IDs, quantile sketches, flight recorder) cost anything the serving path
// can feel?
//
// Three altitudes:
//
//   BM_WarmSolve        identical family/args to bench_e25's BM_WarmSolve
//                       (same instance generator, same k sweep, same
//                       variant pins), so tools/bench_compare.py diffs
//                       BENCH_e25.json vs BENCH_e26.json directly — the PR
//                       acceptance bar is warm-solve within 3%. The kernel
//                       itself does not touch the new telemetry, so any
//                       delta here is build/host noise; the comparison is
//                       the control.
//   BM_TelemetryRecord  the incremental cost of one request's telemetry:
//                       trace mint + binding + a wire cache hit's timeline
//                       (six stage marks) + its sketch records + one flight
//                       record — the per-request work the daemon adds.
//   BM_ServiceWarmPath  end-to-end Service::solve on a warm cache (every
//                       request a hit), the hot serving path that now runs
//                       publishes its timeline on every request.
//
// Run with --json BENCH_e26.json; compare against the committed e25 file:
//   tools/bench_compare.py BENCH_e25.json BENCH_e26.json --threshold 0.03
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "tt/generator.hpp"
#include "tt/kernel.hpp"
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

/// Byte-for-byte the e25 warm-solve loop: same generator, same arena reuse.
/// Keeping the family name and args identical is what lets bench_compare
/// key e25 and e26 records against each other.
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

/// The per-request telemetry work in isolation: mint a trace ID, bind it,
/// open a timeline and mark the six stages a wire cache hit crosses (one
/// clock read each), record them and e2e in ttp_serve's stage sketches,
/// publish one flight record. This is the entire incremental cost the
/// timeline adds to a cache hit.
void BM_TelemetryRecord(benchmark::State& state) {
  using ttp::obs::Stage;
  ttp::obs::FlightRecorder flight(4096);
  ttp::obs::StageSketches sketches(ttp::obs::kServeStages);
  for (auto _ : state) {
    const std::uint64_t trace = ttp::obs::next_trace_id();
    const ttp::obs::TraceBinding bind(trace);
    ttp::obs::FlightRecord rec;
    rec.trace = trace;
    rec.start_ns = ttp::obs::steady_now_ns();
    for (const Stage s : {Stage::kRead, Stage::kParse, Stage::kAdmit,
                          Stage::kRespond, Stage::kFormat, Stage::kWrite}) {
      rec.mark(s, ttp::obs::steady_now_ns());
    }
    sketches.record(rec);
    flight.record(rec);
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(std::string(ttp::tt::active_kernel_variant_name()));
}

/// End-to-end hits: the serving hot path with telemetry finalize on every
/// request. Pre-warms one key, then hammers it.
void BM_ServiceWarmPath(benchmark::State& state, const char* variant) {
  const VariantPin pin(state, variant);
  if (!pin.ok()) return;
  const int k = static_cast<int>(state.range(0));
  ttp::svc::Service service;
  const Instance ins = bench_instance(k);
  if (!service.solve(ins).ok()) {
    state.SkipWithError("warmup solve failed");
    return;
  }
  for (auto _ : state) {
    const auto r = service.solve(ins);
    benchmark::DoNotOptimize(r.cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  annotate(state, ins);
}

}  // namespace

// Mirror e25 exactly: same k sweep, same variant pins, same units.
BENCHMARK_CAPTURE(BM_WarmSolve, scalar, "scalar")
    ->DenseRange(10, 18, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WarmSolve, simd, "avx2")
    ->DenseRange(10, 18, 2)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TelemetryRecord);

BENCHMARK_CAPTURE(BM_ServiceWarmPath, scalar, "scalar")
    ->Arg(12)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ServiceWarmPath, simd, "avx2")
    ->Arg(12)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

TTP_BENCH_JSON_MAIN()
