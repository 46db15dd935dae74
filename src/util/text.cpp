#include "util/text.hpp"

#include <charconv>
#include <system_error>

namespace ttp::util {

namespace {

/// The part of `tok` std::from_chars should read, or an empty view when
/// the token does not start like a decimal number. One sign is allowed; a
/// leading '+', which an istream takes and from_chars does not, is
/// dropped. The first-digit check is what keeps from_chars' inf, infinity
/// and nan out.
std::string_view decimal_body(std::string_view tok) noexcept {
  std::size_t at = 0;
  if (at < tok.size() && (tok[at] == '+' || tok[at] == '-')) ++at;
  if (at == tok.size() ||
      !((tok[at] >= '0' && tok[at] <= '9') || tok[at] == '.')) {
    return {};
  }
  return tok.front() == '+' ? tok.substr(1) : tok;
}

template <typename T, typename... Format>
bool parse_whole(std::string_view tok, T& v, Format... fmt) noexcept {
  tok = decimal_body(tok);
  if (tok.empty()) return false;
  const char* end = tok.data() + tok.size();
  const std::from_chars_result r = std::from_chars(tok.data(), end, v, fmt...);
  return r.ec == std::errc() && r.ptr == end;
}

}  // namespace

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_double(std::string& out, double v) {
  char buf[32];  // sign, 17 digits, point, "e-308": 25 at most
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

bool parse_int(std::string_view tok, int& v) noexcept {
  return parse_whole(tok, v);
}

bool parse_double(std::string_view tok, double& v) noexcept {
  // from_chars reports a value that underflows to 0 or overflows as
  // result_out_of_range; subnormals parse.
  return parse_whole(tok, v, std::chars_format::general);
}

}  // namespace ttp::util
