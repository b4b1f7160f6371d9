#include <gtest/gtest.h>

#include "tor/authority.h"

namespace flashflow::tor {
namespace {

TEST(BuildConsensus, TakesMedianAcrossBWAuths) {
  BandwidthFile f1 = {{"a", 10.0, 0.0}};
  BandwidthFile f2 = {{"a", 20.0, 0.0}};
  BandwidthFile f3 = {{"a", 90.0, 0.0}};
  const std::vector<BandwidthFile> files = {f1, f2, f3};
  const auto c = build_consensus(0, files);
  ASSERT_EQ(c.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(c.entries[0].weight, 20.0);  // median defeats outliers
}

TEST(BuildConsensus, RequiresMajority) {
  BandwidthFile f1 = {{"a", 10.0, 0.0}, {"b", 5.0, 0.0}};
  BandwidthFile f2 = {{"a", 20.0, 0.0}};
  BandwidthFile f3 = {{"a", 30.0, 0.0}};
  const std::vector<BandwidthFile> files = {f1, f2, f3};
  const auto c = build_consensus(0, files);
  // "b" appears in only 1 of 3 files: excluded.
  ASSERT_EQ(c.entries.size(), 1u);
  EXPECT_EQ(c.entries[0].fingerprint, "a");
}

TEST(BuildConsensus, MedianCapacity) {
  BandwidthFile f1 = {{"a", 1.0, 100.0}};
  BandwidthFile f2 = {{"a", 1.0, 300.0}};
  const std::vector<BandwidthFile> files = {f1, f2};
  EXPECT_DOUBLE_EQ(median_capacity(files, "a"), 200.0);
  EXPECT_DOUBLE_EQ(median_capacity(files, "nope"), 0.0);
}

}  // namespace
}  // namespace flashflow::tor
