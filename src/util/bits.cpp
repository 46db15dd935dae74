#include "util/bits.hpp"

#include <algorithm>
#include <stdexcept>

namespace ttp::util {

Mask next_same_popcount(Mask m, int k) noexcept {
  if (m == 0) return 0;
  const Mask c = m & (0u - m);  // lowest set bit
  const Mask r = m + c;
  // r wraps to a value below m exactly when m's top run of ones reaches bit
  // width(Mask)-1, i.e. m was the last subset of its popcount in the full
  // 32-bit space; Gosper's formula is meaningless past that point.
  if (r < m) return 0;
  Mask next = (((r ^ m) >> 2) / c) | r;
  // universe(k) instead of (Mask{1} << k): the shift is UB at k == 32.
  if (next > universe(k)) return 0;
  return next;
}

std::vector<Mask> all_subsets(Mask space) {
  std::vector<Mask> out;
  Mask s = 0;
  while (true) {
    out.push_back(s);
    if (s == space) break;
    s = (s - space) & space;  // enumerate sub-masks ascending
  }
  return out;
}

std::vector<Mask> layer_subsets(int k, int j) {
  std::vector<Mask> out;
  if (j == 0) {
    out.push_back(0);
    return out;
  }
  if (j > k) return out;
  // universe(j), not (Mask{1} << j) - 1: the shift is UB at j == 32.
  Mask m = universe(j);
  while (m != 0) {
    out.push_back(m);
    m = next_same_popcount(m, k);
  }
  return out;
}

void append_mask(std::string& out, Mask m) {
  out += '{';
  for (bool first = true; m != 0; m &= m - 1, first = false) {
    const int b = std::countr_zero(m);
    if (!first) out += ',';
    if (b >= 10) out += static_cast<char>('0' + b / 10);
    out += static_cast<char>('0' + b % 10);
  }
  out += '}';
}

std::string mask_to_string(Mask m) {
  std::string s;
  append_mask(s, m);
  return s;
}

Mask mask_from_string(std::string_view tok, int width) {
  if (tok.size() < 2 || tok.front() != '{' || tok.back() != '}') {
    throw std::invalid_argument("expected {a,b,...} set, got '" +
                                std::string(tok) + "'");
  }
  const int limit = std::clamp(width, 0, 32);
  const std::string_view inner = tok.substr(1, tok.size() - 2);
  const auto piece = [&](std::size_t start) {
    return std::string(inner.substr(start, inner.find(',', start) - start));
  };
  Mask m = 0;
  std::size_t start = 0;  // where the current element began
  int v = 0;
  // One pass: digits accumulate, and a ',' or the closing brace ends an
  // element (empty elements are skipped).
  for (std::size_t i = 0; i <= inner.size(); ++i) {
    if (i == inner.size() || inner[i] == ',') {
      if (i > start) {
        if (v >= limit) {
          throw std::invalid_argument("set element '" + piece(start) +
                                      "' outside universe [0, " +
                                      std::to_string(limit) + ")");
        }
        m |= bit(v);
      }
      start = i + 1;
      v = 0;
      continue;
    }
    const char c = inner[i];
    if (c < '0' || c > '9') {
      throw std::invalid_argument("set element '" + piece(start) +
                                  "' is not a decimal index");
    }
    // Saturates once out of range, so a long digit run cannot overflow.
    if (v < limit) v = v * 10 + (c - '0');
  }
  return m;
}

std::string to_binary(std::uint64_t v, int width) {
  std::string s(static_cast<std::size_t>(width), '0');
  for (int b = 0; b < width; ++b) {
    if ((v >> b) & 1u) s[static_cast<std::size_t>(width - 1 - b)] = '1';
  }
  return s;
}

}  // namespace ttp::util
