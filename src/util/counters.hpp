// Deterministic cost accounting shared by the machine simulators and the
// solvers. Every reproduction claim in EXPERIMENTS.md is stated in terms of
// these counters, never wall-clock, because the paper's results are
// step-count results.
#pragma once

#include <cstdint>

namespace ttp::util {

/// Parallel-machine cost model: `parallel_steps` advances once per
/// machine-wide SIMD step regardless of width; `total_ops` accumulates the
/// number of PE-operations performed (work); `route_steps` counts the subset
/// of parallel steps that moved data between PEs.
struct StepCounter {
  std::uint64_t parallel_steps = 0;
  std::uint64_t route_steps = 0;
  std::uint64_t total_ops = 0;

  void step(std::uint64_t ops, bool routed = false) {
    parallel_steps += 1;
    total_ops += ops;
    if (routed) route_steps += 1;
  }

  /// Bulk form: charges `steps_count` unrouted parallel steps performing
  /// `ops` PE-operations in total. Equivalent to the matching sequence of
  /// step() calls; used by the layer-wave kernel so per-evaluation
  /// accounting stays out of the hot loop.
  void charge(std::uint64_t steps_count, std::uint64_t ops) {
    parallel_steps += steps_count;
    total_ops += ops;
  }
  void reset() { *this = StepCounter{}; }

  StepCounter& operator+=(const StepCounter& o) {
    parallel_steps += o.parallel_steps;
    route_steps += o.route_steps;
    total_ops += o.total_ops;
    return *this;
  }
};

}  // namespace ttp::util
