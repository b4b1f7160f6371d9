#include "tor/bandwidth_file.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "net/units.h"

namespace flashflow::tor {
namespace {

BandwidthFile sample_entries() {
  return {{"AAAA", net::mbit(80), net::mbit(100)},
          {"BBBB", net::mbit(8), 0.0}};
}

TEST(BandwidthFileFormat, RoundTrip) {
  BandwidthFileHeader header;
  header.timestamp = 1234567890;
  const auto text = serialize_bandwidth_file(header, sample_entries());
  const auto parsed = parse_bandwidth_file(text);
  EXPECT_EQ(parsed.header.timestamp, 1234567890);
  EXPECT_EQ(parsed.header.software, "flashflow");
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].fingerprint, "AAAA");
  // bw= is rounded to KB/s: 80 Mbit/s = 10000 KB/s.
  EXPECT_NEAR(parsed.entries[0].weight, net::mbit(80), 8000.0);
  EXPECT_NEAR(parsed.entries[0].capacity_bits, net::mbit(100),
              net::mbit(0.01));
  EXPECT_DOUBLE_EQ(parsed.entries[1].capacity_bits, 0.0);
}

TEST(BandwidthFileFormat, SerializedShape) {
  BandwidthFileHeader header;
  header.timestamp = 42;
  const auto text = serialize_bandwidth_file(header, sample_entries());
  EXPECT_EQ(text.find("42\n"), 0u);
  EXPECT_NE(text.find("version=1.4.0"), std::string::npos);
  EXPECT_NE(text.find("=====\n"), std::string::npos);
  EXPECT_NE(text.find("node_id=$AAAA bw=10000"), std::string::npos);
  EXPECT_NE(text.find("flashflow_capacity_mbits=100.000"),
            std::string::npos);
}

TEST(BandwidthFileFormat, CapacitiesPrintAsPrintfFixedThree) {
  // The writer formats capacities with std::to_chars; every value must
  // read exactly as printf's "%.3f" prints it. Mbit values exactly half-way
  // between two thousandths (1/16, 3/16, ... are exact in binary, so
  // printf rounds them to even), values a rounding away from half-way,
  // and the extremes of the double range.
  std::vector<double> mbits;
  for (int k = 1; k < 32; k += 2) mbits.push_back(k / 16.0);
  for (const double x : {0.0005, 1.0005, 2.0015, 2.6745, 999.9995, 0.00049,
                         123456789012.3455, 0x1p53 + 2.0, 1e22, 1e300})
    mbits.push_back(x);
  mbits.push_back(std::nextafter(0.0625, 0.0));
  mbits.push_back(std::nextafter(0.0625, 1.0));
  BandwidthFile entries;
  for (const double mbit : mbits) entries.push_back({"R", 8000.0, mbit * 1e6});
  for (const double bits :
       {DBL_MAX, DBL_MIN, std::numeric_limits<double>::denorm_min(), 1e-300,
        std::numeric_limits<double>::infinity()})
    entries.push_back({"R", 8000.0, bits});

  const std::string text = serialize_bandwidth_file({}, entries);
  std::string want = "0\nversion=1.4.0\nsoftware=flashflow\n"
                     "software_version=1.0\n=====\n";
  std::vector<char> buf(400);
  for (const auto& e : entries) {
    std::snprintf(buf.data(), buf.size(), "%.3f",
                  net::to_mbit(e.capacity_bits));
    want += "node_id=$R bw=1 flashflow_capacity_mbits=";
    want += buf.data();
    want += '\n';
  }
  EXPECT_EQ(text, want);
  EXPECT_NE(text.find("=0.062\n"), std::string::npos);  // 1/16, to even
  EXPECT_NE(text.find("=0.188\n"), std::string::npos);  // 3/16, to even
}

TEST(BandwidthFileFormat, TinyWeightsGetFloorOfOne) {
  BandwidthFileHeader header;
  const BandwidthFile entries = {{"CCCC", 10.0, 0.0}};  // ~0 KB/s
  const auto parsed =
      parse_bandwidth_file(serialize_bandwidth_file(header, entries));
  EXPECT_GE(parsed.entries[0].weight, 8000.0);  // bw=1
}

TEST(BandwidthFileFormat, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_bandwidth_file(""), std::invalid_argument);
  EXPECT_THROW(parse_bandwidth_file("not-a-timestamp\n=====\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_bandwidth_file("42\nversion=1.4.0\n"),  // no =====
               std::invalid_argument);
  EXPECT_THROW(
      parse_bandwidth_file("42\n=====\nnode_id=$AAAA\n"),  // missing bw
      std::invalid_argument);
  EXPECT_THROW(
      parse_bandwidth_file("42\n=====\nbw=10\n"),  // missing node_id
      std::invalid_argument);
  EXPECT_THROW(
      parse_bandwidth_file("42\n=====\nnode_id=$A bw=-5\n"),
      std::invalid_argument);
}

TEST(BandwidthFileFormat, RejectsTrailingGarbageInNumbers) {
  // Regression: the stoll/stod-era parser accepted "123abc" as timestamp
  // 123 and "bw=12junk" as a 12 KB/s relay — corruption silently
  // truncated into plausible values. The strict parser must reject the
  // whole token and name what it was parsing.
  try {
    parse_bandwidth_file("123abc\n=====\nnode_id=$A bw=10\n");
    FAIL() << "trailing garbage in timestamp accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timestamp"), std::string::npos) << what;
    EXPECT_NE(what.find("123abc"), std::string::npos) << what;
  }
  try {
    parse_bandwidth_file("42\n=====\nnode_id=$A bw=12junk\n");
    FAIL() << "trailing garbage in bw accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bw"), std::string::npos) << what;
    EXPECT_NE(what.find("12junk"), std::string::npos) << what;
  }
  EXPECT_THROW(
      parse_bandwidth_file(
          "42\n=====\nnode_id=$A bw=10 flashflow_capacity_mbits=1.5x\n"),
      std::invalid_argument);
  // Overflow reports the offending value instead of a bare
  // std::out_of_range from stoll.
  EXPECT_THROW(parse_bandwidth_file("99999999999999999999999\n=====\n"
                                    "node_id=$A bw=10\n"),
               std::invalid_argument);
}

TEST(BandwidthFileFormat, IgnoresUnknownKeys) {
  const auto parsed = parse_bandwidth_file(
      "42\nversion=9.9\nfuture_header=yes\n=====\n"
      "node_id=$AAAA bw=100 nick=foo unmeasured=0\n");
  EXPECT_EQ(parsed.header.version, "9.9");
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].fingerprint, "AAAA");
}

}  // namespace
}  // namespace flashflow::tor
