#include "util/strict_parse.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace flashflow::util {

namespace {

[[noreturn]] void fail_format(const std::string& what, const char* type,
                              std::string_view text) {
  throw std::invalid_argument(what + ": expected " + type + ", got '" +
                              std::string(text) + "'");
}

[[noreturn]] void fail_range(const std::string& what, const char* type,
                             std::string_view text) {
  throw std::invalid_argument(what + ": " + type + " out of range: '" +
                              std::string(text) + "'");
}

/// from_chars over the whole token: no leading whitespace, no trailing
/// bytes, strict errc mapping. Returns true on full success; sets
/// `out_of_range` when the text was numeric but overflowed.
template <typename T>
bool whole_token(std::string_view text, T& value, bool& out_of_range) {
  out_of_range = false;
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range) {
    // Only a *fully consumed* numeric token counts as overflow; "1e999x"
    // is garbage, not a range error.
    out_of_range = ptr == text.data() + text.size();
    return false;
  }
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

std::int64_t parse_i64(std::string_view text, const std::string& what) {
  std::int64_t value = 0;
  bool overflow = false;
  if (!whole_token(text, value, overflow)) {
    if (overflow) fail_range(what, "integer", text);
    fail_format(what, "an integer", text);
  }
  return value;
}

std::uint64_t parse_u64(std::string_view text, const std::string& what) {
  // from_chars<unsigned> already rejects '-', but be explicit about '+'
  // too: scenario files and bandwidth files never sign unsigned fields.
  if (!text.empty() && (text.front() == '+' || text.front() == '-'))
    fail_format(what, "a non-negative integer", text);
  std::uint64_t value = 0;
  bool overflow = false;
  if (!whole_token(text, value, overflow)) {
    if (overflow) fail_range(what, "integer", text);
    fail_format(what, "a non-negative integer", text);
  }
  return value;
}

double parse_double(std::string_view text, const std::string& what) {
  if (text.empty()) fail_format(what, "a number", text);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range &&
      ptr == text.data() + text.size())
    fail_range(what, "number", text);
  if (ec != std::errc() || ptr != text.data() + text.size())
    fail_format(what, "a number", text);
  // from_chars accepts "inf"/"nan" spellings; no field in this project is
  // meaningfully non-finite, so treat them as malformed input.
  if (!std::isfinite(value)) fail_format(what, "a finite number", text);
  return value;
}

int parse_int(std::string_view text, const std::string& what) {
  const std::int64_t value = parse_i64(text, what);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max())
    fail_range(what, "integer", text);
  return static_cast<int>(value);
}

bool parse_bool(std::string_view text, const std::string& what) {
  if (text == "true") return true;
  if (text == "false") return false;
  fail_format(what, "'true' or 'false'", text);
}

void format_double(std::string& out, double v) {
  // The longest shortest form, "-2.2250738585072014e-308", is 24 chars.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string format_double(double v) {
  std::string out;
  format_double(out, v);
  return out;
}

}  // namespace flashflow::util
