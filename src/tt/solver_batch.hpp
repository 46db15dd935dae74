// Batched solving — the serving-shaped entry point.
//
// A traffic-serving deployment solves many independent TT instances per
// second, not one; BatchSolver pipelines a batch through the thread pool
// with one reusable SolveArena per worker, so steady-state throughput pays
// no per-solve layer re-derivation and no scratch allocation. Instances
// are pulled dynamically (not pre-chunked), so a batch mixing small and
// large instances keeps every worker busy until the queue drains.
//
// Each instance is solved through the adaptive dense/sparse planner
// (tt/solver_frontier.hpp): below the planner's min_sparse_k the dense
// layer-wave arena path runs exactly as before; above it the reachable-
// closure sparse path takes over (each worker solving its own instance
// serially — instance-level parallelism already saturates the pool, so
// the frontier's internal pool stays unused here). Either path charges the
// sequential cost model per result (steps.total_ops == that instance's
// M-evaluation count); results come back in input order, and an instance
// whose solve throws fails only its own outcome. Bench E23 measures
// instances/sec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <vector>

#include "tt/solver.hpp"
#include "tt/solver_frontier.hpp"
#include "util/thread_pool.hpp"

namespace ttp::tt {

/// One instance's share of a batch: its result, or what its solve threw.
struct BatchOutcome {
  SolveResult result;        ///< Meaningful when `error` is null.
  std::exception_ptr error;  ///< E.g. ClosureOverBudget; the rest still ran.
};

class BatchSolver {
 public:
  /// `workers` == 0 -> hardware concurrency. `planner` configures the
  /// per-instance dense/sparse dispatch; the default keeps every k ≤ 14
  /// instance on the dense path.
  explicit BatchSolver(std::size_t workers = 0, FrontierConfig planner = {})
      : pool_(workers), planner_(planner) {}

  /// Solves every instance; results are positionally aligned with the input.
  /// Validates every instance before dispatch, and rethrows the first
  /// (lowest-index) failure once the batch has run. (Elements of a
  /// contiguous span are distinct objects by construction, so the pointer
  /// overload's aliasing restriction cannot be violated here.)
  std::vector<SolveResult> solve_many(
      std::span<const Instance> instances) const;

  /// Pointer-span overload for callers whose instances are not contiguous
  /// (e.g. the svc scheduler's queued entries), with one outcome per
  /// instance: a malformed or unservable instance fails only its own.
  /// NO ALIASING: all pointers must refer to distinct Instance objects.
  /// The lazy p(S) subset-weight table is a mutable per-instance cache with
  /// no synchronization, so two pool workers solving the same object race
  /// on it; debug builds assert distinctness, release builds do not check.
  ///
  /// `traces`, when non-empty, must be positionally aligned with
  /// `instances`: the worker binds traces[i] as the obs trace ID around
  /// instance i's solve, so the per-instance kernel spans ("solve.batch")
  /// carry the request's trace ID even though they run on pool threads.
  std::vector<BatchOutcome> solve_many(
      std::span<const Instance* const> instances,
      std::span<const std::uint64_t> traces = {}) const;

  std::size_t workers() const noexcept { return pool_.size(); }
  const FrontierConfig& planner() const noexcept { return planner_; }

 private:
  mutable util::ThreadPool pool_;
  FrontierConfig planner_;
};

}  // namespace ttp::tt
