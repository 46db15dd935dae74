#include "svc/canon.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <tuple>

namespace ttp::svc {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;
constexpr std::uint64_t kFnvOffsetLo = 0xCBF29CE484222325ull;  // standard
constexpr std::uint64_t kFnvOffsetHi = 0x6C62272E07BB0142ull;  // FNV-1a 128 hi

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Appends the low `n` bytes of `v`, little-endian.
void put_le(std::string& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

}  // namespace

CanonKey hash128(std::string_view bytes) {
  std::uint64_t lo = kFnvOffsetLo;
  std::uint64_t hi = kFnvOffsetHi;
  for (const unsigned char c : bytes) {
    lo = (lo ^ c) * kFnvPrime;
    // The hi lane folds the running position-sensitive lo back in, so the
    // two lanes do not reduce to one mix under a common prefix.
    hi = (hi ^ (c + (lo >> 56))) * kFnvPrime;
  }
  return CanonKey{splitmix64(hi), lo};
}

std::string CanonKey::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kDigits[(hi >> (4 * i)) & 0xF];
    out[static_cast<std::size_t>(31 - i)] = kDigits[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

std::vector<int> canonical_action_order(const tt::Instance& ins) {
  std::vector<int> ord(static_cast<std::size_t>(ins.num_actions()));
  std::iota(ord.begin(), ord.end(), 0);
  // Index as the last key makes plain sort stable: duplicate (kind, set,
  // cost) actions keep their relative input order deterministically.
  std::sort(ord.begin(), ord.end(), [&](int a, int b) {
    const tt::Action& x = ins.action(a);
    const tt::Action& y = ins.action(b);
    // Tests (is_test == true) sort before treatments.
    return std::make_tuple(!x.is_test, x.set, x.cost, a) <
           std::make_tuple(!y.is_test, y.set, y.cost, b);
  });
  return ord;
}

Canonical canonicalize(const tt::Instance& ins) {
  // check() also guarantees the weights normalize: their sum is finite and
  // no weight divided by it underflows to 0, so every canonical weight
  // below is a finite positive prior and the solve-time check() of the
  // canonical instance cannot fail (it would fail its whole micro-batch).
  ins.check();
  const int k = ins.k();
  double total = 0.0;
  for (int j = 0; j < k; ++j) total += ins.weight(j);
  std::vector<double> weights(static_cast<std::size_t>(k));
  std::string fields;
  fields.reserve(4 + 8 * static_cast<std::size_t>(k) +
                 13 * static_cast<std::size_t>(ins.num_actions()));
  put_le(fields, static_cast<std::uint64_t>(k), 4);
  for (int j = 0; j < k; ++j) {
    const double w = ins.weight(j) / total;
    weights[static_cast<std::size_t>(j)] = w;
    put_le(fields, std::bit_cast<std::uint64_t>(w), 8);
  }

  std::vector<int> order = canonical_action_order(ins);
  tt::Instance canon(k, std::move(weights));
  for (const int i : order) {
    const tt::Action& a = ins.action(i);
    // -0.0 == 0.0, so this maps both zeros to +0.0 and leaves others alone.
    const double cost = a.cost == 0.0 ? 0.0 : a.cost;
    // Empty names regenerate positionally ("test0", "treat0", ...).
    if (a.is_test) {
      canon.add_test(a.set, cost);
    } else {
      canon.add_treatment(a.set, cost);
    }
    fields.push_back(a.is_test ? 1 : 0);
    put_le(fields, a.set, 4);
    put_le(fields, std::bit_cast<std::uint64_t>(cost), 8);
  }

  return Canonical{std::move(canon), std::move(order), total,
                   hash128(fields)};
}

tt::Tree remap_tree_actions(const tt::Tree& tree,
                            const std::vector<int>& to_original) {
  if (tree.empty()) return tree;
  std::vector<tt::TreeNode> nodes = tree.nodes();
  for (tt::TreeNode& n : nodes) {
    if (n.action < 0 ||
        n.action >= static_cast<int>(to_original.size())) {
      throw std::invalid_argument("remap_tree_actions: action out of range");
    }
    n.action = to_original[static_cast<std::size_t>(n.action)];
  }
  return tt::Tree(std::move(nodes), tree.root());
}

}  // namespace ttp::svc
