// Strict whole-token parsing (util/strict_parse.h).
//
// These helpers exist because the stoll/stod/atoi family accepts trailing
// garbage and loses the offending input on overflow — the exact failure
// modes behind the bandwidth-file and bench-CLI parsing bugs this suite
// regression-tests at their call sites. Here the contract itself is
// pinned: whole-token or throw, with the caller's label and the bad text
// in the message.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/strict_parse.h"

namespace flashflow::util {
namespace {

/// Expects `fn` to throw std::invalid_argument whose message contains
/// every fragment — the label, so a failure names its field, and the
/// offending text, so the user sees what was rejected.
template <typename Fn>
void expect_throws_containing(Fn fn,
                              std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* fragment : fragments)
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' missing '" << fragment << "'";
  }
}

TEST(StrictParse, I64AcceptsWholeTokens) {
  EXPECT_EQ(parse_i64("0", "t"), 0);
  EXPECT_EQ(parse_i64("-42", "t"), -42);
  EXPECT_EQ(parse_i64("9223372036854775807", "t"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_i64("-9223372036854775808", "t"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(StrictParse, I64RejectsTrailingGarbage) {
  // The motivating bug class: stoll("12junk") == 12.
  expect_throws_containing([] { parse_i64("12junk", "timestamp"); },
                           {"timestamp", "12junk"});
  expect_throws_containing([] { parse_i64("1 ", "t"); }, {"'1 '"});
  expect_throws_containing([] { parse_i64(" 1", "t"); }, {"' 1'"});
  expect_throws_containing([] { parse_i64("", "t"); }, {"t:"});
  expect_throws_containing([] { parse_i64("1.5", "t"); }, {"1.5"});
}

TEST(StrictParse, I64ReportsOverflowAsRange) {
  expect_throws_containing([] { parse_i64("9223372036854775808", "t"); },
                           {"out of range", "9223372036854775808"});
}

TEST(StrictParse, U64RejectsSigns) {
  EXPECT_EQ(parse_u64("18446744073709551615", "t"),
            std::numeric_limits<std::uint64_t>::max());
  expect_throws_containing([] { parse_u64("-1", "t"); }, {"-1"});
  expect_throws_containing([] { parse_u64("+1", "t"); }, {"+1"});
  expect_throws_containing([] { parse_u64("18446744073709551616", "t"); },
                           {"out of range"});
}

TEST(StrictParse, DoubleAcceptsUsualForms) {
  EXPECT_DOUBLE_EQ(parse_double("2.25", "t"), 2.25);
  EXPECT_DOUBLE_EQ(parse_double("1e-5", "t"), 1e-5);
  EXPECT_DOUBLE_EQ(parse_double("998e6", "t"), 998e6);
  EXPECT_DOUBLE_EQ(parse_double("-0.5", "t"), -0.5);
}

TEST(StrictParse, DoubleRejectsGarbageAndNonFinite) {
  expect_throws_containing([] { parse_double("12junk", "bw"); },
                           {"bw", "12junk"});
  expect_throws_containing([] { parse_double("", "t"); }, {"t:"});
  expect_throws_containing([] { parse_double("nan", "t"); }, {"nan"});
  expect_throws_containing([] { parse_double("inf", "t"); }, {"inf"});
  expect_throws_containing([] { parse_double("1e999", "t"); },
                           {"out of range", "1e999"});
}

TEST(StrictParse, FormatDoubleRoundTripsThroughParseDouble) {
  EXPECT_EQ(format_double(0.05), "0.05");
  EXPECT_EQ(format_double(2.5e8), "2.5e+08");
  EXPECT_EQ(format_double(-0.5), "-0.5");
  std::string appended = "x=";
  format_double(appended, 1e-5);
  EXPECT_EQ(appended, "x=1e-05");
  // Shortest text, exact value: the last bit survives the trip.
  for (const double v : {0.1 + 0.2, 1.0 / 3.0, 123456789.123456789, 5e-324,
                         1.7976931348623157e308, -2.2250738585072014e-308}) {
    const std::string text = format_double(v);
    EXPECT_EQ(parse_double(text, "t"), v) << text;
  }
}

TEST(StrictParse, IntEnforcesIntRange) {
  EXPECT_EQ(parse_int("-2147483648", "t"),
            std::numeric_limits<int>::min());
  EXPECT_EQ(parse_int("2147483647", "t"), std::numeric_limits<int>::max());
  // The bench-CLI bug class: atoi("2k") == 2.
  expect_throws_containing([] { parse_int("2k", "--relays"); },
                           {"--relays", "2k"});
  expect_throws_containing([] { parse_int("2147483648", "t"); },
                           {"out of range"});
}

TEST(StrictParse, BoolIsExact) {
  EXPECT_TRUE(parse_bool("true", "t"));
  EXPECT_FALSE(parse_bool("false", "t"));
  expect_throws_containing([] { parse_bool("True", "flag"); },
                           {"flag", "True"});
  expect_throws_containing([] { parse_bool("1", "t"); }, {"'1'"});
}

}  // namespace
}  // namespace flashflow::util
