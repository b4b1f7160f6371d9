// Strict whole-token numeric parsing, and the one number formatter whose
// output it reads back exactly.
//
// The std::stoll/std::stod/atoi family silently accepts trailing garbage
// ("12junk" parses as 12) and surfaces overflow as a generic exception
// that loses the offending input. Every text-input path in this repo —
// the Tor bandwidth-file parser, the scenario-file parser, CLI flags —
// must instead consume the *whole* token or fail naming what was being
// parsed and what was seen, so a corrupted input never silently truncates
// into a plausible value.
//
// All helpers reject: empty input, leading/trailing whitespace or garbage,
// sign prefixes the type cannot hold, values out of range, and (for
// doubles) non-finite results. On failure they throw std::invalid_argument
// with a message of the form
//
//   <what>: expected <type>, got 'text'
//   <what>: <type> out of range: 'text'
//
// where `what` names the field/key/flag the caller was parsing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace flashflow::util {

/// Signed 64-bit integer; accepts an optional leading '-'.
std::int64_t parse_i64(std::string_view text, const std::string& what);

/// Unsigned 64-bit integer; rejects any sign prefix.
std::uint64_t parse_u64(std::string_view text, const std::string& what);

/// Finite double in the usual fixed/scientific forms ("2.25", "1e-5").
double parse_double(std::string_view text, const std::string& what);

/// parse_i64 narrowed to int, with the int range enforced.
int parse_int(std::string_view text, const std::string& what);

/// Exactly "true" or "false".
bool parse_bool(std::string_view text, const std::string& what);

/// Appends the shortest text that parse_double reads back as exactly `v`
/// (std::to_chars' round-trip form: 0.05 -> "0.05", 2.5e8 -> "2.5e+08"),
/// the way every file this project writes spells its doubles.
void format_double(std::string& out, double v);
std::string format_double(double v);

}  // namespace flashflow::util
