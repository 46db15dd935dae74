// Number text for the wire's hot path, without streams.
//
// Appenders write onto the end of a caller-owned std::string, so a session
// that formats many replies reuses one buffer. append_double writes exactly
// the bytes an ostream at precision(17) writes (std::to_chars, general
// format, 17 significant digits), so every double survives a later parse
// bit for bit and the reply grammar is unchanged.
//
// Readers accept a token only when the whole token is the number: nothing
// may trail it. They take the decimal and exponent forms an istream reads
// in the C locale, a leading '+' included, and refuse what std::from_chars
// alone would let through or round away: hex, inf, nan, and a value that
// underflows to 0 or overflows.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ttp::util {

/// Appends `v` in decimal.
void append_int(std::string& out, std::int64_t v);

/// Appends `v` with 17 significant digits, as an ostream at precision(17)
/// prints it.
void append_double(std::string& out, double v);

/// Parses a whole token as a decimal int (optional sign); false on anything
/// else, including a value outside int.
bool parse_int(std::string_view tok, int& v) noexcept;

/// Parses a whole token as a finite double in decimal or exponent form
/// (optional sign); false on anything else.
bool parse_double(std::string_view tok, double& v) noexcept;

}  // namespace ttp::util
