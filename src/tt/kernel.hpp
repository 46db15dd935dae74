// The shared layer-wave DP kernel.
//
// Every host-side table-building solver (SequentialSolver, ThreadsSolver,
// and the hypercube StateParallelSolver's per-action fold) evaluates the
// same recurrence
//
//   M[S,i] = t_i·p(S) + C(S∩T_i) + C(S−T_i)   tests,      ∅ ≠ S∩T_i ≠ S
//   M[S,i] = t_i·p(S) + C(S−T_i)              treatments, S∩T_i ≠ ∅
//
// and this header is where that evaluation lives, once, in a form shaped
// for throughput rather than exposition:
//
//  * ActionSoA — a structure-of-arrays copy of the instance's actions
//    (set, ~set, cost, is_test). The AoS `Action` carries a std::string
//    name, so scanning a vector<Action> in the inner loop drags ~56-byte
//    strides through the cache and a bounds-checked `actions_.at(i)` per
//    evaluation; the SoA keeps the three words the loop needs contiguous.
//  * eval_states() — the per-layer wave. Runs one of two byte-identical
//    implementations (see "Kernel variants" below): the scalar reference
//    tile (cache-blocked, branch-free selects — the same tile body the
//    sparse wave in kernel_sparse.hpp runs), or an AVX2 path that computes
//    S∩T_i in registers and gathers the table reads. The arithmetic
//    (association order, strict `<` minimization ascending in i) is
//    lane-for-lane identical to the reference action_value() loop, so both
//    produce byte-identical cost/best_action tables
//    (tests/test_kernel_simd.cpp enforces this).
//  * eval_pairs()/reduce_pairs() — the same evaluation split into the
//    paper's (S,i)-pair phase plus a per-state min phase, for
//    ThreadsSolver's pair-parallel mode. Scalar only: no serving path
//    runs them.
//  * SolveArena — owns the cost/best-action/M-buffer storage (64-byte
//    aligned, growth-capped — see AlignedBuf) plus the per-k layer index
//    and the SoA, all reused across solves so a high-QPS caller stops
//    re-deriving layer subsets and re-allocating tables on every request.
//  * solve_with_arena() — the full sequential layer sweep on arena
//    storage: the serving hot path shared by SequentialSolver and
//    BatchSolver (solver_batch.hpp).
//
// Kernel variants
// ---------------
// The active variant is resolved once from the TTP_KERNEL environment
// variable ("scalar", "avx2", "auto"; unset == auto == AVX2 when the CPU
// and the build support it, scalar otherwise) and can be forced
// programmatically with set_kernel_variant() (tests, benches, the serving
// daemon's knob). The scalar tile is the normative reference; the AVX2
// path assigns one STATE per vector lane and walks actions in the same
// ascending order with the same strict-< blend, so min/argmin association
// matches the scalar loop lane for lane (docs/kernel.md has the proof
// sketch). Remainder states (count % 4) always go through the scalar
// tile, so layer sizes not divisible by the vector width cannot diverge.
//
// Step accounting is the caller's policy, not the kernel's: eval_states
// returns the number of M-evaluations performed and each solver charges
// its documented cost model (see solver.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <new>
#include <span>
#include <string_view>
#include <vector>

#include "tt/solver.hpp"

namespace ttp::tt {

/// M[S,i] for a test, in the exact association order of action_value():
/// ((t_i·p(S)) + C(S∩T_i)) + C(S−T_i). Single-sourced so the tiled kernel
/// and the machine solvers' local folds stay bitwise identical.
inline double m_test_value(double t_cost, double ps, double c_inter,
                           double c_minus) noexcept {
  return (t_cost * ps + c_inter) + c_minus;
}

/// M[S,i] for a treatment: t_i·p(S) + C(S−T_i).
inline double m_treat_value(double t_cost, double ps,
                            double c_minus) noexcept {
  return t_cost * ps + c_minus;
}

// ---------------------------------------------------------------------------
// Kernel variant selection

/// The dense wave implementations. kScalar is the normative reference;
/// kSimdAvx2 is a byte-identical acceleration of it. The sparse wave and
/// the pair phase always run the scalar tile.
enum class KernelVariant {
  kScalar,    ///< Reference tiles.
  kSimdAvx2,  ///< AVX2 gathers + blends; needs CPU + build support.
};

/// The variant eval_states currently runs. First call resolves
/// TTP_KERNEL + CPUID; later calls are one atomic load.
KernelVariant active_kernel_variant() noexcept;

/// "scalar" or "simd-avx2".
std::string_view kernel_variant_name(KernelVariant v) noexcept;

/// kernel_variant_name(active_kernel_variant()).
std::string_view active_kernel_variant_name() noexcept;

/// Forces the variant. Accepts "scalar", "avx2", or "auto" (same
/// resolution as an unset TTP_KERNEL). Returns false — and leaves the
/// variant unchanged — for any other spec, and for "avx2" when this
/// CPU/build cannot run it.
bool set_kernel_variant(std::string_view spec) noexcept;

/// True when the AVX2 variant is compiled in AND the CPU reports AVX2.
bool kernel_avx2_available() noexcept;

// ---------------------------------------------------------------------------
// Shared data structures

/// Structure-of-arrays action layout. Indices coincide with the instance's
/// action indices (tests 0..num_tests-1, then treatments), so argmins read
/// straight out of the kernel are already in the solver's convention.
struct ActionSoA {
  std::vector<Mask> set;               ///< T_i
  std::vector<Mask> nset;              ///< ~T_i (precomputed complement)
  std::vector<double> cost;            ///< t_i
  std::vector<std::uint8_t> is_test;   ///< 1 for tests (indices < num_tests)
  int num_tests = 0;
  int num_actions = 0;

  void build(const Instance& ins);
};

/// All 2^k masks grouped by popcount layer (ascending within each layer —
/// the same order util::layer_subsets produces), built in one counting-sort
/// pass and cached by SolveArena so repeated solves at the same k never
/// re-enumerate subsets.
class LayerIndex {
 public:
  void build(int k);
  int k() const noexcept { return k_; }

  /// The masks of layer |S| == j (j in 0..k).
  std::span<const Mask> layer(int j) const {
    const auto b = offsets_[static_cast<std::size_t>(j)];
    const auto e = offsets_[static_cast<std::size_t>(j) + 1];
    return {masks_.data() + b, e - b};
  }

 private:
  int k_ = -1;
  std::vector<Mask> masks_;
  std::vector<std::size_t> offsets_;  ///< k+2 entries; layer j = [j, j+1)
};

/// 64-byte-aligned, growth-capped storage for the arena's flat tables.
/// resize_discard() never copies old contents on growth — every user fully
/// reinitializes (prepare_tables, the frontier tables, the pair-phase M
/// buffer) — and capacity is monotone, so steady-state arena reuse touches
/// the allocator exactly zero times. Alignment is asserted in debug builds;
/// 64 bytes covers a full cache line and every vector width up to AVX-512.
template <typename T>
class AlignedBuf {
  static_assert(std::is_trivial_v<T>,
                "AlignedBuf skips construction; trivial types only");

 public:
  static constexpr std::size_t kAlign = 64;

  AlignedBuf() = default;
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;
  ~AlignedBuf() { release(); }

  T* data() noexcept { return ptr_; }
  const T* data() const noexcept { return ptr_; }
  std::size_t size() const noexcept { return size_; }

  /// size() becomes n; contents are indeterminate (never copied). Only
  /// reallocates when n exceeds every size seen before.
  void resize_discard(std::size_t n) {
    if (n > cap_) {
      release();
      ptr_ = static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
      cap_ = n;
    }
    size_ = n;
    assert(reinterpret_cast<std::uintptr_t>(ptr_) % kAlign == 0 &&
           "SolveArena tables must be 64-byte aligned");
  }

 private:
  void release() noexcept {
    if (ptr_ != nullptr) {
      ::operator delete(ptr_, std::align_val_t{kAlign});
      ptr_ = nullptr;
    }
    cap_ = 0;
    size_ = 0;
  }

  T* ptr_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

/// States per scalar kernel tile. The tile's running best/argmin and
/// hoisted p(S) values live in ~3 KiB of stack, well inside L1.
inline constexpr std::size_t kKernelTile = 128;

/// Evaluates C(S) = min_i M[S,i] and its argmin for `count` states of one
/// layer (lower layers finalized in `cost`), writing cost[s] and best[s]
/// for each. Tie rule: lowest action index. Returns the number of
/// M-evaluations performed (count · num_actions). Runs the active kernel
/// variant.
std::uint64_t eval_states(const ActionSoA& a, const double* wt,
                          const Mask* states, std::size_t count, double* cost,
                          int* best);

/// Pair phase of the paper's decomposition: M[S,i] for the pair indices
/// [begin, end) of a layer, where pair idx maps to (states[idx / N],
/// idx % N). Results land in m[idx] (layer-relative layout).
void eval_pairs(const ActionSoA& a, const double* wt, const double* cost,
                const Mask* states, std::size_t begin, std::size_t end,
                double* m);

/// Reduce phase: per-state min over m[pos·N .. pos·N+N) for state positions
/// [begin, end), ascending i so ties match eval_states exactly.
void reduce_pairs(const ActionSoA& a, const double* m, const Mask* states,
                  std::size_t begin, std::size_t end, double* cost, int* best);

/// Reusable solve storage. One arena per solving thread; everything grows
/// monotonically and is recycled across solves, so steady-state serving
/// performs no layer re-derivation and no table allocation beyond the
/// DpTable handed back to the caller.
class SolveArena {
 public:
  /// Layer index for universe size k (rebuilt only when k changes).
  const LayerIndex& layers(int k) {
    if (layers_.k() != k) layers_.build(k);
    return layers_;
  }

  /// SoA for this instance's actions (rebuilt per solve; O(N)).
  const ActionSoA& actions(const Instance& ins) {
    soa_.build(ins);
    return soa_;
  }

  /// Resets the working tables to the DP start state: cost ≡ kInf except
  /// cost[∅] = 0, best ≡ -1.
  void prepare_tables(std::size_t states);

  double* cost() noexcept { return cost_.data(); }
  const double* cost() const noexcept { return cost_.data(); }
  int* best() noexcept { return best_.data(); }
  const int* best() const noexcept { return best_.data(); }
  std::size_t table_size() const noexcept { return cost_.size(); }

  /// M-buffer of at least n doubles for the pair-parallel phases (contents
  /// indeterminate — every pair slot is written before it is read).
  double* m_buffer(std::size_t n) {
    if (m_.size() < n) m_.resize_discard(n);
    return m_.data();
  }

 private:
  LayerIndex layers_;
  ActionSoA soa_;
  AlignedBuf<double> cost_;
  AlignedBuf<int> best_;
  AlignedBuf<double> m_;
};

/// Full sequential layer-wave solve on `arena` storage. Identical results
/// (bitwise, including argmins and steps) to the classic per-call
/// action_value sweep; `span_name` names the root trace span so callers
/// keep their own identity ("solve.sequential", "solve.batch", ...).
/// Sequential cost model: steps.parallel_steps == steps.total_ops == number
/// of M-evaluations.
SolveResult solve_with_arena(const Instance& ins, SolveArena& arena,
                             std::string_view span_name = "solve.sequential");

namespace detail {

/// The scalar reference tile (m <= kKernelTile) on mask-indexed tables: the
/// AVX2 wave calls it for remainder lanes so sub-width counts stay
/// byte-identical by construction.
void eval_tile_scalar(const ActionSoA& a, const double* wt, const Mask* states,
                      std::size_t m, double* cost, int* best);

#if defined(TTP_KERNEL_HAS_AVX2)
/// The AVX2 dense wave (kernel_simd_avx2.cpp); call only when
/// kernel_avx2_available().
void eval_states_avx2(const ActionSoA& a, const double* wt,
                      const Mask* states, std::size_t count, double* cost,
                      int* best);
#endif

}  // namespace detail

}  // namespace ttp::tt
