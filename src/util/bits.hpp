// Bit and subset utilities for the test-and-treatment dynamic program.
//
// Subsets of the universe U = {0..k-1} are represented as uint32_t masks
// (k <= 24 enforced at the instance level); the DP iterates subsets in
// layers of equal cardinality using Gosper's hack.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ttp::util {

using Mask = std::uint32_t;

/// Number of set bits.
constexpr int popcount(Mask m) noexcept { return std::popcount(m); }

/// True if bit `b` is set in `m`.
constexpr bool has_bit(Mask m, int b) noexcept { return (m >> b) & 1u; }

/// Mask with only bit `b` set.
constexpr Mask bit(int b) noexcept { return Mask{1} << b; }

/// Full universe mask for k objects.
constexpr Mask universe(int k) noexcept {
  return k >= 32 ? ~Mask{0} : (Mask{1} << k) - 1;
}

/// Bit `p` of integer `q` (the paper's bit(p,q) helper).
constexpr int bit_of(int p, std::uint64_t q) noexcept {
  return static_cast<int>((q >> p) & 1u);
}

/// Integer with bit `t` of `x` complemented (the paper's x#t operator).
constexpr std::uint64_t flip_bit(std::uint64_t x, int t) noexcept {
  return x ^ (std::uint64_t{1} << t);
}

/// log2 of a power of two.
constexpr int log2_exact(std::uint64_t n) noexcept {
  return std::bit_width(n) - 1;
}

constexpr bool is_pow2(std::uint64_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest q with 2^q >= n (n >= 1).
constexpr int ceil_log2(std::uint64_t n) noexcept {
  return n <= 1 ? 0 : std::bit_width(n - 1);
}

/// Next subset of the same cardinality in lexicographic order (Gosper's
/// hack). Returns 0 when `m` was the last such subset below 2^k.
Mask next_same_popcount(Mask m, int k) noexcept;

/// All subsets of `space` (including empty and full), ascending as ints.
std::vector<Mask> all_subsets(Mask space);

/// All subsets of {0..k-1} with exactly `j` bits, ascending.
std::vector<Mask> layer_subsets(int k, int j);

/// Appends the "{a,b,c}" form of a mask (ascending elements), "{}" if
/// empty.
void append_mask(std::string& out, Mask m);

/// The "{a,b,c}" form as a string (append_mask onto an empty one).
std::string mask_to_string(Mask m);

/// Parses the "{a,b,...}" form (any element order, empty elements skipped)
/// — the one set parser of the instance text and the wire's tree text.
/// Each element must be a whole decimal (digits only) below `width`
/// (clamped to Mask's 32 bits). Throws std::invalid_argument naming the
/// token or element otherwise.
Mask mask_from_string(std::string_view tok, int width);

/// Render the low `width` bits of `v`, most significant first.
std::string to_binary(std::uint64_t v, int width);

}  // namespace ttp::util
