// Shared-memory parallel DP (the hardware-substitute baseline, bench E12).
//
// The layer schedule is the same as the paper's parallel algorithm — all
// (S, i) pairs inside layer |S| = j are independent once layers < j are
// final — so a thread pool sweeps each layer through the shared layer-wave
// kernel (tt/kernel.hpp), one task per range of states S, each scanning
// all N actions. Results are bitwise identical to SequentialSolver (same
// kernel, same tie-breaking, disjoint writes).
//
// Normative step accounting (see solver.hpp):
//   steps.parallel_steps == Σ_j ceil(|layer j| / width)   (one step per
//       width-wide round of N-way state evaluations)
//   steps.total_ops      == N · (2^k − 1)                 (every M[S,i]
//       evaluation, the partial final round charged at its true size —
//       equal to SequentialSolver's evaluation count by construction)
#pragma once

#include <atomic>
#include <cstddef>

#include "tt/kernel.hpp"
#include "tt/solver.hpp"
#include "util/thread_pool.hpp"

namespace ttp::tt {

/// Thread safety: one ThreadsSolver owns one mutable SolveArena, reused
/// across solves exactly like BatchSolver's per-worker arenas — so
/// solve() is single-caller: two concurrent calls on the same object race
/// on the shared tables (same aliasing rule as solver_batch.hpp's
/// pointer-span overload; debug builds assert). Distinct ThreadsSolver
/// objects are fully independent. SequentialSolver, by contrast, keeps
/// its arena thread_local and is safe to share across threads.
class ThreadsSolver {
 public:
  /// `workers` == 0 -> hardware concurrency.
  explicit ThreadsSolver(std::size_t workers = 0) : pool_(workers) {}

  SolveResult solve(const Instance& ins) const;

  std::size_t workers() const noexcept { return pool_.size(); }

 private:
  mutable util::ThreadPool pool_;
  mutable SolveArena arena_;  ///< reused across solves, like pool_
  mutable std::atomic<bool> in_solve_{false};  ///< debug re-entrancy guard
};

}  // namespace ttp::tt
