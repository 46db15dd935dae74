#include "tt/solver_batch.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "obs/trace.hpp"
#include "tt/kernel.hpp"

namespace ttp::tt {

std::vector<SolveResult> BatchSolver::solve_many(
    std::span<const Instance> instances) const {
  std::vector<const Instance*> ptrs;
  ptrs.reserve(instances.size());
  for (const Instance& ins : instances) {
    ins.check();  // a malformed instance throws here, before dispatch
    ptrs.push_back(&ins);
  }
  std::vector<SolveResult> out;
  out.reserve(instances.size());
  for (BatchOutcome& o : solve_many(std::span<const Instance* const>(ptrs))) {
    if (o.error) std::rethrow_exception(o.error);
    out.push_back(std::move(o.result));
  }
  return out;
}

std::vector<BatchOutcome> BatchSolver::solve_many(
    std::span<const Instance* const> instances,
    std::span<const std::uint64_t> traces) const {
  std::vector<BatchOutcome> out(instances.size());
  if (instances.empty()) return out;
  assert((traces.empty() || traces.size() == instances.size()) &&
         "BatchSolver::solve_many: traces must align with instances");
#ifndef NDEBUG
  {
    // The lazy p(S) cache is per instance and not thread-safe to share: two
    // workers solving the same object would race on subset_weight_table().
    std::vector<const Instance*> sorted(instances.begin(), instances.end());
    std::sort(sorted.begin(), sorted.end());
    assert(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
           "BatchSolver::solve_many: instance pointers must be distinct");
  }
#endif

  TTP_TRACE_SPAN(span, "solve.batch_many");
  span.attr("instances", static_cast<std::uint64_t>(instances.size()));
  span.attr("workers", static_cast<std::uint64_t>(pool_.size()));

  // parallel_for wakes one task per worker; the ranges are ignored and
  // instances pulled from a shared cursor instead, so heterogeneous sizes
  // balance dynamically. Result placement is by input index, so the
  // output is deterministic regardless of which worker solves what.
  std::atomic<std::size_t> next{0};
  const std::size_t n = instances.size();
  pool_.parallel_for(n, [&](std::size_t, std::size_t) {
    static thread_local SolveArena arena;
    static thread_local FrontierArena frontier;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      // Bind the request's trace ID on this worker so the kernel-level
      // span for this instance joins the request's journey.
      const obs::TraceBinding bind(traces.empty() ? obs::current_trace()
                                                  : traces[i]);
      // An exception escaping a pool task would std::terminate the
      // process; each instance keeps its own (solve_adaptive validates the
      // instance and throws ClosureOverBudget for an unservable closure).
      try {
        // pool=nullptr: this worker IS the parallelism — nesting the
        // frontier's own fan-out inside a pool task would double-book the
        // cores for no win at batch depth ≥ workers.
        out[i].result = solve_adaptive(*instances[i], arena, frontier,
                                       planner_, /*pool=*/nullptr,
                                       "solve.batch");
      } catch (...) {
        out[i].error = std::current_exception();
      }
    }
  });
  TTP_METRIC_ADD("batch.instances", instances.size());
  return out;
}

}  // namespace ttp::tt
