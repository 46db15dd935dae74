// Sparse companion to the layer-wave kernel (tt/kernel.hpp): the same
// recurrence evaluated over a *reachable* state set instead of the full
// 2^k lattice.
//
// The dense kernel indexes its cost/best tables by mask, which is exactly
// what stops it short of k > 20: the tables are 2^k-sized whether or not
// the DP ever visits those states. The frontier solver
// (tt/solver_frontier.hpp) instead stores only the closure of U under
// S∩T_i / S−T_i, laid out layer-contiguously (popcount-ascending, masks
// ascending within a layer — the same discipline LayerIndex imposes on the
// full lattice), and addresses it through two pieces defined here:
//
//  * StateMap — an open-addressing mask -> slot hash table. Keys are
//    subset masks (< 2^24, see kMaxUniverse), so the all-ones sentinel can
//    never collide with a real key. Linear probing, power-of-two capacity,
//    ≤ 50% load; find() is lock-free-read-safe while no insert runs, which
//    is the only concurrency the frontier solver ever asks of it (parallel
//    expansion phases read, the serial merge between them writes).
//  * eval_states_sparse() — the per-layer wave over slot-indexed tables.
//    Child lookups go through precomputed slot rows (action-major) while
//    validity is recomputed from the masks, so an invalid split can safely
//    point its row entry at slot 0 (∅, cost 0): the select after the
//    arithmetic overwrites the value with kInf exactly as the dense tile
//    does. It runs the dense wave's scalar tile itself (kernel.cpp), with
//    only the child index, the p(S) source and the output slot swapped, so
//    on the reachable states the sparse wave is bitwise identical to the
//    dense one (the frontier tests pin this). It is scalar under every
//    TTP_KERNEL: a portable 4-wide sparse tile measured slower than this
//    one on serving traffic (docs/kernel.md).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "tt/kernel.hpp"

namespace ttp::tt {

/// Open-addressing hash map from subset mask to a 32-bit payload (the
/// frontier solver stores state slots). Capacity is a power of two and at
/// least twice the element count; probing is linear, so lookups of present
/// keys touch one or two cache lines in the common case.
class StateMap {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  /// Empties the map and reserves capacity for `expected` keys. Keeps the
  /// backing array when it is large enough (arena reuse) but no more than
  /// kMaxSlack times what `expected` needs; a larger one is released, so a
  /// worker that once held a huge closure does not clear it every solve.
  void reset(std::size_t expected);

  /// Inserts key -> value; returns false (leaving the stored value alone)
  /// when the key is already present. Grows at 50% load.
  bool insert(Mask key, std::uint32_t value);

  /// The stored value, or kNotFound. Safe to call concurrently from many
  /// threads as long as no insert() runs in parallel.
  std::uint32_t find(Mask key) const noexcept {
    if (cells_.empty()) return kNotFound;
    std::size_t i = hash(key) & index_mask_;
    while (true) {
      const Cell c = cells_[i];
      if (c.key == key) return c.value;
      if (c.key == kEmptyKey) return kNotFound;
      i = (i + 1) & index_mask_;
    }
  }

  /// Overwrites the value of `key`, which must be present.
  void set(Mask key, std::uint32_t value) noexcept {
    std::size_t i = hash(key) & index_mask_;
    while (cells_[i].key != key) {
      assert(cells_[i].key != kEmptyKey && "StateMap::set: key absent");
      i = (i + 1) & index_mask_;
    }
    cells_[i].value = value;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return cells_.size(); }

 private:
  struct Cell {
    std::uint32_t key;
    std::uint32_t value;
  };
  /// Masks are < 2^24 (kMaxUniverse), so all-ones is unreachable as a key.
  static constexpr std::uint32_t kEmptyKey = 0xFFFFFFFFu;
  /// reset() keeps a backing array up to this multiple of its need.
  static constexpr std::size_t kMaxSlack = 8;

  static std::uint32_t hash(Mask m) noexcept {
    // splitmix-style avalanche; subset masks are dense in the low bits.
    std::uint32_t h = static_cast<std::uint32_t>(m) * 0x9E3779B1u;
    h ^= h >> 15;
    h *= 0x85EBCA77u;
    h ^= h >> 13;
    return h;
  }

  void rehash(std::size_t capacity_pow2);

  std::vector<Cell> cells_;
  std::size_t index_mask_ = 0;
  std::size_t size_ = 0;
};

/// Evaluates C(S) = min_i M[S,i] and its argmin for `count` states of one
/// layer of the *reachable* closure. Tables are slot-indexed:
///
///   states[p], ws[p]                  mask and p(S) of position p
///   inter[i·stride + p]               slot of C(S∩T_i) (0 = ∅ when empty)
///   minus[i·stride + p]               slot of C(S−T_i) (0 = ∅ when empty)
///   cost[slot], best[slot]            global closure tables; positions p
///                                     write slots slot_base + p
///
/// Validity (∅ ≠ S∩T_i ≠ S for tests, S∩T_i ≠ ∅ for treatments) is
/// recomputed from the masks, so row entries of invalid splits may point at
/// any finalized slot — the builder uses slot 0. `ws[p]` must equal the
/// dense subset_weight_table()[states[p]] bitwise (solver_frontier derives
/// it with the same association), which makes the result bitwise identical
/// to eval_states on the same states. Tie rule: lowest action index.
/// Returns the number of M-evaluations (count · num_actions).
std::uint64_t eval_states_sparse(const ActionSoA& a, const Mask* states,
                                 const double* ws, const std::uint32_t* inter,
                                 const std::uint32_t* minus, std::size_t stride,
                                 std::size_t count, double* cost, int* best,
                                 std::size_t slot_base);

}  // namespace ttp::tt
