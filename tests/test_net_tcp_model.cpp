#include "net/tcp_model.h"

#include <gtest/gtest.h>

#include "net/units.h"

namespace flashflow::net {
namespace {

TEST(KernelProfile, DefaultBuffers) {
  const auto k = KernelProfile::default_profile();
  EXPECT_DOUBLE_EQ(k.read_buffer_bytes, 4.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(k.write_buffer_bytes, 6.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(k.usable_window_bytes(), 4.0 * 1024 * 1024);
}

TEST(KernelProfile, TunedBuffers) {
  const auto k = KernelProfile::tuned_profile();
  EXPECT_DOUBLE_EQ(k.usable_window_bytes(), 64.0 * 1024 * 1024);
}

TEST(TcpModel, WindowBoundDominatesOnCleanPath) {
  // 4 MiB window at 340 ms RTT: ~98 Mbit/s, exactly window/RTT — window-
  // limited flows are ACK-clocked and stable (the paper's Fig 12
  // default-kernel data point).
  const double rate = tcp_socket_throughput(KernelProfile::default_profile(),
                                            0.340, 0.0);
  const double window_only = 4.0 * 1024 * 1024 * 8 / 0.340;
  EXPECT_DOUBLE_EQ(rate, window_only);
}

TEST(TcpModel, TunedBeatsDefaultOnHighBdpPath) {
  const double d = tcp_socket_throughput(KernelProfile::default_profile(),
                                         0.120, 0.0);
  const double t = tcp_socket_throughput(KernelProfile::tuned_profile(),
                                         0.120, 0.0);
  // Fig 12: ~280 vs ~1100 Mbit/s at 120 ms.
  EXPECT_GT(t, d * 3.0);
}

TEST(TcpModel, LongFatPipePenalty) {
  // When the window is NOT binding, rates degrade with RTT (loss recovery
  // on large cwnds): the tuned-kernel curve of Fig 12.
  const auto k = KernelProfile::tuned_profile();
  const double r120 = tcp_socket_throughput(k, 0.120, 0.0);
  const double window_cap = 64.0 * 1024 * 1024 * 8 / 0.120;
  EXPECT_LT(r120, window_cap * 0.5);  // penalty, not window, binds
}

TEST(TcpModel, ThroughputDecreasesWithRtt) {
  const auto k = KernelProfile::tuned_profile();
  const double r28 = tcp_socket_throughput(k, 0.028, 0.0);
  const double r120 = tcp_socket_throughput(k, 0.120, 0.0);
  const double r340 = tcp_socket_throughput(k, 0.340, 0.0);
  EXPECT_GT(r28, r120);
  EXPECT_GT(r120, r340);
}

TEST(TcpModel, MathisBoundDominatesOnLossyPath) {
  // IN-like path: 210 ms, loaded loss 1.6e-4 -> a few Mbit/s per socket.
  const double rate = tcp_socket_throughput(KernelProfile::default_profile(),
                                            0.210, 1.6e-4);
  EXPECT_LT(rate, mbit(8));
  EXPECT_GT(rate, mbit(2));
}

TEST(TcpModel, ZeroLossDisablesMathis) {
  const double clean = tcp_socket_throughput(
      KernelProfile::default_profile(), 0.05, 0.0);
  const double lossy = tcp_socket_throughput(
      KernelProfile::default_profile(), 0.05, 1e-3);
  EXPECT_GT(clean, lossy);
}

TEST(TcpModel, RejectsNonPositiveRtt) {
  EXPECT_THROW(
      tcp_socket_throughput(KernelProfile::default_profile(), 0.0, 0.0),
      std::invalid_argument);
}

// Parameterized sweep: throughput must be monotonically non-increasing in
// loss for a fixed RTT (property of the Mathis term).
class LossMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(LossMonotoneTest, MonotoneInLoss) {
  const double rtt = GetParam();
  const auto k = KernelProfile::default_profile();
  double prev = tcp_socket_throughput(k, rtt, 0.0);
  for (const double loss : {1e-6, 1e-5, 1e-4, 1e-3, 1e-2}) {
    const double cur = tcp_socket_throughput(k, rtt, loss);
    EXPECT_LE(cur, prev * (1.0 + 1e-12));
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(RttSweep, LossMonotoneTest,
                         ::testing::Values(0.01, 0.04, 0.12, 0.21, 0.34));

}  // namespace
}  // namespace flashflow::net
