// Reachable-subspace sparse DP solver ("frontier solver").
//
// Every dense solver materializes all 2^k states, but the DP only ever
// consults the closure R of U under S∩T_i / S−T_i — and when N is small
// (the paper's feasibility regime: N = O(k²)) that closure is typically a
// vanishing fraction of the lattice. This solver makes that observation
// executable:
//
//   1. Frontier expansion (top-down): starting from U, each popcount layer
//      is expanded in parallel chunks — workers emit candidate children
//      into disjoint scratch while the dedup StateMap is read-only, then a
//      serial merge inserts the genuinely new states into per-popcount
//      buckets. Children have strictly smaller popcount than their parent,
//      so a single k→1 descent discovers everything. Expansion aborts once
//      a state budget is exceeded (singleton tests can make R = 2^k).
//   2. Layout: buckets are sorted ascending and concatenated popcount-
//      ascending (∅ = slot 0, U = last slot), mirroring LayerIndex order;
//      the StateMap is rebuilt as mask -> slot; p(S) per slot is derived
//      with the same association as subset_weight_table(), bitwise.
//   3. Bottom-up waves: per layer, gather rows (child slots, action-major)
//      are built chunk-by-chunk into per-thread scratch and evaluated by
//      eval_states_sparse (kernel_sparse.hpp). Chunks are deterministic
//      functions of (layer, N); writes are per-state disjoint and reads
//      touch only finalized layers (or the state's own still-kInf slot),
//      so the result is bitwise identical to SequentialSolver on R
//      regardless of the pool width — ties included.
//
// Cost model (normative, see solver.hpp): parallel_steps == total_ops ==
// the number of M-evaluations actually performed == N·(|R|−1) — the
// sequential model restricted to the reachable set. The "m_evaluations"
// and "frontier_states" breakdown counters record the same numbers.
//
// Sparse results leave SolveResult::table EMPTY (no 2^k vectors — that is
// the point); cost/tree/steps/breakdown are fully populated. Callers that
// need per-state tables use solve_sparse(..., FrontierTables*).
//
// The adaptive planner (solve_adaptive) arbitrates dense vs sparse per
// instance: below min_sparse_k the dense arena path wins outright (no hash
// traffic); above it, a budget-capped expansion either completes — sparse
// solve — or hits the cap and falls back dense (k ≤ dense_max_k) or throws
// ClosureOverBudget (k above it). Where dense is exact the expansion also
// stops at the top-layer check: once U and layer k−1 are expanded, layer
// k−2 is complete, and if more than half of its C(k,2) sets are reachable
// the closure is near the full lattice and the dense sweep runs at once.
// svc::Scheduler solves its sparse tier through this planner, so the
// solve's own expansion is the tier's admission test.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "tt/kernel.hpp"
#include "tt/kernel_sparse.hpp"
#include "tt/solver.hpp"
#include "util/thread_pool.hpp"

namespace ttp::tt {

/// Conservative closure bytes per reachable state (mask + p(S) + cost +
/// best + StateMap cell at 50% load), used to turn byte budgets into state
/// caps for planning and admission.
inline constexpr std::size_t kSparseBytesPerState = 40;

/// Planner knobs shared by the standalone FrontierSolver, BatchSolver's
/// per-instance dispatch, and svc admission.
struct FrontierConfig {
  /// Hard cap on closure states; 0 derives the cap from max_state_bytes.
  std::size_t max_states = 0;
  /// Byte budget for the closure tables when max_states == 0.
  std::size_t max_state_bytes = std::size_t{64} << 20;
  /// For k ≤ dense_max_k the expansion is additionally capped at
  /// crossover·2^k: past that fraction the dense wave (no hash lookups, no
  /// row builds) is the better kernel, so expansion stops early and the
  /// planner falls back dense. Below 1 it also arms the top-layer check.
  double dense_crossover = 0.125;
  /// Below this k the dense path runs unconditionally.
  int min_sparse_k = 15;
  /// Largest k the dense fallback may materialize (2^k tables).
  int dense_max_k = 20;
  bool enable_sparse = true;

  /// The resolved expansion cap for universe size k (≥ 1024 states so tiny
  /// budgets cannot starve trivially-small closures).
  std::size_t state_budget(int k) const;
};

/// Reusable storage for one frontier-solving thread: closure buckets, the
/// mask->slot map, and the slot-indexed tables. Treat as opaque outside
/// tt; contents are only valid between expand_reachable() and the solve
/// that consumes them.
struct FrontierArena {
  StateMap map;
  std::vector<std::vector<Mask>> buckets;  ///< pending states by popcount
  AlignedBuf<Mask> masks;                  ///< layer-contiguous closure
  std::vector<std::size_t> layer_off;      ///< k+2 offsets into masks
  AlignedBuf<double> ws;                   ///< p(S) per slot
  AlignedBuf<double> cost;                 ///< C(S) per slot
  AlignedBuf<int> best;                    ///< argmin per slot
  AlignedBuf<Mask> cand;                   ///< parallel-emit scratch
  AlignedBuf<std::uint32_t> cand_n;        ///< children per scratch row
  std::size_t states = 0;                  ///< |R| incl. ∅ after expansion
  bool complete = false;                   ///< closure finished under budget
};

struct ClosureResult {
  bool complete = false;     ///< false: stopped early, `states` is a lower bound
  bool top_full = false;     ///< stopped by the top-layer check, not the cap
  std::size_t states = 0;    ///< states discovered (incl. ∅)
  std::size_t expanded = 0;  ///< states whose children were emitted
};

/// Expands the reachable closure of U, stopping once more than max_states
/// states are discovered. With `top_check`, it also stops as soon as layer
/// k−2 is complete if more than half of that layer is reachable (see the
/// header comment). On completion the arena holds the laid-out closure
/// (masks/layer_off/map/ws) ready for the sparse waves; on a stop only
/// `states` is meaningful. `pool` parallelizes the per-layer emit phase;
/// nullptr runs serially (the batch-worker mode). Deterministic either way.
ClosureResult expand_reachable(const Instance& ins, std::size_t max_states,
                               FrontierArena& arena,
                               util::ThreadPool* pool = nullptr,
                               bool top_check = false);

/// What solve_adaptive throws when k is above the dense ceiling and the
/// budget-capped closure overruns: no path can serve the instance under
/// that config. svc reports it as the (sparse-budget) admission verdict.
struct ClosureOverBudget : std::runtime_error {
  ClosureOverBudget(int k, std::size_t states, int dense_max_k);
  int k;
  std::size_t states;  ///< Discovered when the cap tripped: a lower bound.
};

/// Test/bench view of the sparse tables (copies of the arena's storage).
struct FrontierTables {
  std::vector<Mask> masks;
  std::vector<std::size_t> layer_off;
  std::vector<double> cost;
  std::vector<int> best;
};

/// Adaptive solve on caller-owned arenas: dense below min_sparse_k, on
/// budget-capped closures and on full top layers (k ≤ dense_max_k), sparse
/// otherwise. The top-layer check runs only while dense_crossover < 1, so
/// a caller that sets it to 1 forces the sparse path. Throws
/// ClosureOverBudget when the closure exceeds budget AND k > dense_max_k.
/// Single caller per (dense, sparse) arena pair at a time — same aliasing
/// rule as solver_batch.hpp. `span_name` names the root trace span.
SolveResult solve_adaptive(const Instance& ins, SolveArena& dense,
                           FrontierArena& sparse, const FrontierConfig& cfg,
                           util::ThreadPool* pool = nullptr,
                           std::string_view span_name = "solve.frontier");

/// Standalone frontier solver owning its pool and arenas. solve() is the
/// adaptive planner with parallel expansion and waves; solve_sparse()
/// forces the sparse path (throws when the closure exceeds the budget) and
/// can hand the slot tables back for inspection.
///
/// Thread safety: the arenas are shared mutable state, so solve() is
/// single-caller — concurrent calls on one FrontierSolver race (debug
/// builds assert). Distinct instances are independent.
class FrontierSolver {
 public:
  /// `workers` == 0 -> hardware concurrency.
  explicit FrontierSolver(std::size_t workers = 0, FrontierConfig cfg = {});

  SolveResult solve(const Instance& ins) const;
  SolveResult solve_sparse(const Instance& ins,
                           FrontierTables* tables = nullptr) const;

  std::size_t workers() const noexcept { return pool_.size(); }
  const FrontierConfig& config() const noexcept { return cfg_; }

 private:
  mutable util::ThreadPool pool_;
  mutable SolveArena dense_arena_;
  mutable FrontierArena arena_;
  mutable std::atomic<bool> in_solve_{false};  ///< debug re-entrancy guard
  FrontierConfig cfg_;
};

}  // namespace ttp::tt
