#include <gtest/gtest.h>

#include "trafficgen/benchmark.h"

namespace flashflow::trafficgen {
namespace {

TEST(Benchmark, ConstantsMatchPaper) {
  EXPECT_DOUBLE_EQ(kTransferBytes[0], 50.0 * 1024);
  EXPECT_DOUBLE_EQ(kTransferBytes[1], 1024.0 * 1024);
  EXPECT_DOUBLE_EQ(kTransferBytes[2], 5.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(kTransferTimeoutS[0], 15.0);
  EXPECT_DOUBLE_EQ(kTransferTimeoutS[1], 60.0);
  EXPECT_DOUBLE_EQ(kTransferTimeoutS[2], 120.0);
}

TEST(Benchmark, ResultsFilterBySizeAndTimeout) {
  BenchmarkResults results;
  results.records.push_back(
      {TransferSize::k50KiB, 0, 0.5, 1.0, false});
  results.records.push_back(
      {TransferSize::k50KiB, 0, 0.5, 15.0, true});
  results.records.push_back({TransferSize::k1MiB, 0, 0.7, 4.0, false});

  EXPECT_EQ(results.ttfb_all().size(), 2u);  // timeouts excluded
  EXPECT_EQ(results.ttlb_for(TransferSize::k50KiB).size(), 1u);
  EXPECT_DOUBLE_EQ(results.ttlb_for(TransferSize::k1MiB)[0], 4.0);
  EXPECT_NEAR(results.error_rate(), 1.0 / 3.0, 1e-12);
}

TEST(Benchmark, EmptyResults) {
  BenchmarkResults results;
  EXPECT_DOUBLE_EQ(results.error_rate(), 0.0);
  EXPECT_TRUE(results.ttfb_all().empty());
}

}  // namespace
}  // namespace flashflow::trafficgen
