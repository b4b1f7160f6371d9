#include <gtest/gtest.h>

#include "tor/authority.h"
#include "tor/descriptor.h"

namespace flashflow::tor {
namespace {

TEST(Descriptor, AdvertisedBandwidth) {
  ServerDescriptor d;
  d.observed_bits = 100.0;
  d.rate_limit_bits = 60.0;
  EXPECT_DOUBLE_EQ(d.advertised_bits(), 60.0);
  d.rate_limit_bits = 0.0;
  EXPECT_DOUBLE_EQ(d.advertised_bits(), 100.0);
}

TEST(Descriptor, IntervalConstants) {
  EXPECT_EQ(kDescriptorInterval, 18 * sim::kHour);
  EXPECT_EQ(kConsensusInterval, sim::kHour);
}

Consensus make_consensus() {
  Consensus c;
  c.entries = {{"a", 10.0, false}, {"b", 30.0, false}, {"c", 60.0, false}};
  return c;
}

TEST(Consensus, NormalizedWeights) {
  const auto c = make_consensus();
  EXPECT_DOUBLE_EQ(c.total_weight(), 100.0);
  const auto w = c.normalized_weights();
  EXPECT_DOUBLE_EQ(w[0], 0.1);
  EXPECT_DOUBLE_EQ(w[2], 0.6);
}

TEST(Consensus, FindByFingerprint) {
  const auto c = make_consensus();
  EXPECT_EQ(c.find("b"), 1u);
  EXPECT_EQ(c.find("zzz"), Consensus::npos);
}

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
  EXPECT_EQ(c.find("b"), Consensus::npos);
  EXPECT_NE(c.find("a"), Consensus::npos);
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
