// Canonical instance keying for the serving layer.
//
// Two requests that describe the same test-and-treatment problem — the same
// subsets, costs, and relative weights, in any action order, under any
// action names, at any weight scale — should hit the same cache line. The
// canonical form makes that true:
//
//   * actions reordered by canonical_action_order (tests before
//     treatments, each group stably sorted by (set, cost));
//   * names regenerated positionally ("test0", "treat0", ...), so labels
//     never reach the key;
//   * weights divided by their sum. C(S) is linear in the weight vector
//     (every term is t_i·p(S) summed down the recursion), so the optimal
//     tree is scale-invariant and the original expected cost is exactly
//     `weight_scale` times the canonical one in real arithmetic;
//   * a -0.0 cost folded to +0.0, so the two zeros key (and solve) alike.
//
// The key is a 128-bit hash (two independent 64-bit FNV-1a/splitmix mixes)
// of the canonical fields themselves, as fixed-width little-endian bits:
// k (u32), the normalized weights (f64 each), then per canonical action its
// kind byte (1 = test), set (u32) and cost (f64). Given k the layout is
// unambiguous, so semantically identical requests collide and the chance of
// an accidental cross-instance collision is negligible. No text is
// formatted on the way. The canonicalization also hands back the
// permutation needed to translate a cached tree's action indices back into
// the requester's own indices.
//
// Caveat (documented, not hidden): weight normalization divides doubles, so
// two instances whose weights are proportional but not bit-identical after
// division (e.g. accumulated rounding upstream) may key differently. That
// only costs a duplicate solve — correctness never depends on collisions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tt/instance.hpp"
#include "tt/tree.hpp"

namespace ttp::svc {

/// 128-bit canonical-content key.
struct CanonKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CanonKey&, const CanonKey&) = default;

  /// 32 lowercase hex chars, hi first — the wire/debug spelling.
  std::string hex() const;
};

struct CanonKeyHash {
  std::size_t operator()(const CanonKey& k) const noexcept {
    // hi and lo are independent mixes of the same bytes; folding them keeps
    // the full entropy available to the shard selector and the hash map.
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ull));
  }
};

/// Two independent 64-bit mixes over arbitrary bytes (FNV-1a with distinct
/// offset bases, splitmix-finalized into `hi`). Exposed for tests and for
/// the cluster ring, which hashes backend names with it.
CanonKey hash128(std::string_view bytes);

/// The canonical action order: tests before treatments, each group stably
/// sorted by (set, cost). Returns a permutation `ord` with `ord[i]` = the
/// original index of the i-th canonical action; duplicate (set, cost)
/// actions keep their relative order, so the permutation is deterministic.
std::vector<int> canonical_action_order(const tt::Instance& ins);

/// A canonicalized request.
struct Canonical {
  tt::Instance instance;         ///< Normalized weights, canonical actions.
  std::vector<int> to_original;  ///< canonical action i -> requester's index.
  double weight_scale = 1.0;     ///< Σ original weights; original cost =
                                 ///< canonical cost · weight_scale.
  CanonKey key;                  ///< hash128 of the canonical fields.
};

/// Builds the canonical form. Calls ins.check() first and propagates its
/// std::invalid_argument for malformed input — including weights that do
/// not normalize to finite positive priors (an overflowing sum, or a
/// weight that underflows to 0 after division).
Canonical canonicalize(const tt::Instance& ins);

/// Rewrites a tree solved on the canonical instance so its action indices
/// refer to the requester's original actions (states and arcs unchanged).
tt::Tree remap_tree_actions(const tt::Tree& tree,
                            const std::vector<int>& to_original);

}  // namespace ttp::svc
