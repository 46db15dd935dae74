// Plain-text serialization of TT instances, for tooling, data exchange and
// the wire's SOLVE frames:
//
//   # medical example
//   tt 4
//   weights 0.4 0.3 0.2 0.1
//   test  testAB {0,1}   1.0
//   test  testAC {0,2}   1.5
//   treat cureA  {0}     2.0
//
// Order of actions is preserved within each kind; '#' starts a comment.
// Lines end in '\n' (a '\r' before it is whitespace); tokens split on the
// C locale's isspace set (space, \t, \n, \v, \f, \r).
//
// The grammar is strict: every token is read whole, and nothing may trail
// a line's last token.
// - k is a decimal int with an optional sign ("tt 2.5" is an error).
// - Weights and costs are decimal or exponent form with an optional sign,
//   '+' included: "1", ".5", "+2e-3" and subnormals such as "4e-320" parse.
//   Hex ("0x1p3"), inf, nan, partial numbers ("0.5x") and values that
//   underflow to 0 ("1e-400") or overflow are errors.
// - An action line is exactly "<test|treat> <name> {set} <cost>".
// Sets are parsed by util::mask_from_string, the same parser the wire's
// tree text uses. The serving layer's canonical form (action order,
// normalized weights, key) lives in svc/canon, not here.
//
// from_text is one forward scan over the bytes: memchr splits the lines,
// std::from_chars reads the numbers (util/text.hpp), and no stream is
// built. to_text writes each double with 17 significant digits, so a
// to_text -> from_text round trip is bitwise.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "tt/instance.hpp"
#include "tt/tree.hpp"

namespace ttp::tt {

/// Writes the plain text form, actions in insertion order (order matters to
/// solvers — ties break toward the lowest action index — so the default
/// serialization never reorders).
std::string to_text(const Instance& ins);

/// Parses the text form; throws std::invalid_argument on malformed input,
/// with a "line N: " message for every error a single line causes, and
/// ends in Instance::check().
Instance from_text(std::string_view text);

/// File helpers (throw std::runtime_error on I/O failure); load_file reads
/// the whole file, then parses it with from_text.
void save_file(const std::string& path, const Instance& ins);
Instance load_file(const std::string& path);

// ---------------------------------------------------------------------------
// Compact binary tree codec (the durable procedure store's record payload,
// src/store/format.hpp). Layout: LEB128 varint node count, then the root
// and each node's state mask, action, yes and no arcs as varints (zigzag
// for the signed fields, so the -1 "absent" marker stays one byte). A
// decode -> re-encode round trip is byte-identical.
//
// The decoder is hardened for untrusted bytes: every read is bounds-checked
// against the input span (never past-the-end, no matter how the length
// fields lie), the node count is capped (kMaxBinaryNodes) before any
// allocation, and arcs, actions and state bits are range-checked.
// Malformed input throws std::invalid_argument; it never crashes or reads
// out of bounds (tests/test_serialize_binary.cpp fuzzes truncations and
// bit flips under the sanitizer jobs).

/// kMaxBinaryNodes caps the node count on encode and decode alike. Actions
/// index an instance the codec never sees, so kMaxBinaryActions only bounds
/// a decoded action's value range.
inline constexpr std::uint64_t kMaxBinaryNodes = std::uint64_t{1} << 26;
inline constexpr std::uint64_t kMaxBinaryActions = std::uint64_t{1} << 20;

/// Appends the binary form of `tree` to `out`.
void encode_tree_binary(const Tree& tree, std::string& out);

/// Parses encode_tree_binary output; throws std::invalid_argument on
/// malformed input (truncation, arc indices outside the node array, counts
/// past the caps). Requires the whole span to be consumed.
Tree decode_tree_binary(std::string_view bytes);

}  // namespace ttp::tt
