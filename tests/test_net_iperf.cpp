#include "net/iperf.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "net/units.h"
#include "sim/random.h"

namespace flashflow::net {
namespace {

struct IperfTest : ::testing::Test {
  Topology topo = make_table1_hosts();
  IperfRunner runner{topo, 42};
};

TEST_F(IperfTest, SaturatingUdpMatchesNic) {
  // Table 1 "BW (measured)": the receiver NIC is the bottleneck.
  for (const auto& name : table1_host_names()) {
    const HostId h = topo.find(name);
    const auto report = runner.run_saturate_udp(h, 60);
    EXPECT_NEAR(report.median_bits(), topo.host(h).nic_down_bits,
                topo.host(h).nic_down_bits * 0.03)
        << name;
  }
}

TEST_F(IperfTest, UdpBeatsTcpOnHighRttPath) {
  const HostId us_sw = topo.find("US-SW");
  const HostId in = topo.find("IN");
  const auto tcp = runner.run_tcp(in, us_sw, 60);
  const auto udp = runner.run_udp(in, us_sw, 60);
  EXPECT_GT(udp.median_bits(), tcp.median_bits());
}

TEST_F(IperfTest, TcpSingleStreamIsWindowLimited) {
  const HostId us_sw = topo.find("US-SW");
  const HostId in = topo.find("IN");
  // 4 MiB window at 210 ms -> well under the NIC.
  const auto tcp = runner.run_tcp(us_sw, in, 60);
  EXPECT_LT(tcp.median_bits(), mbit(300));
  EXPECT_GT(tcp.median_bits(), mbit(25));
}

TEST_F(IperfTest, BidirectionalTakesMin) {
  const HostId a = topo.find("US-E");
  const HostId b = topo.find("NL");
  const auto both = runner.run_bidirectional(a, b, 30, /*udp=*/true);
  const auto ab = runner.run_udp(a, b, 30);
  // min(sent, received) cannot exceed the one-way throughput by much
  // (only noise draws differ).
  EXPECT_LE(both.median_bits(), ab.median_bits() * 1.05);
  EXPECT_GT(both.median_bits(), 0.0);
}

TEST_F(IperfTest, ReportDurationMatches) {
  const auto r =
      runner.run_udp(topo.find("US-E"), topo.find("NL"), 15);
  EXPECT_EQ(r.per_second_bits.size(), 15u);
}

TEST_F(IperfTest, Table1SamplesMatchRecordedBits) {
  // Table 1's five saturating runs and one Table 3-style bidirectional TCP
  // and UDP run, in that order on one runner at Table 1's seed. The FNV-1a
  // hash covers every sample's exact bits; it was recorded from the
  // event-driven FlowNet runs that accrued one-second bins.
  IperfRunner table1(topo, 20210610);
  std::string bits;
  std::size_t samples = 0;
  const auto keep = [&](const IperfReport& report) {
    EXPECT_EQ(report.per_second_bits.size(), 60u);
    samples += report.per_second_bits.size();
    bits.append(reinterpret_cast<const char*>(report.per_second_bits.data()),
                report.per_second_bits.size() * sizeof(double));
  };
  for (const auto& name : table1_host_names())
    keep(table1.run_saturate_udp(topo.find(name), 60));
  const HostId in = topo.find("IN");
  const HostId us_sw = topo.find("US-SW");
  keep(table1.run_bidirectional(in, us_sw, 60, /*udp=*/false));
  keep(table1.run_bidirectional(in, us_sw, 60, /*udp=*/true));
  EXPECT_EQ(samples, 7u * 60u);
  EXPECT_EQ(sim::hash_tag(bits), 0xaa3c22db1bb3adc2ULL)
      << "iPerf samples shifted; new hash 0x" << std::hex
      << sim::hash_tag(bits);
}

TEST(Iperf, RefusesAPathNoNicLimits) {
  // Capacity 0 means unconstrained: a UDP flow between two such hosts has
  // no finite rate to report. TCP still has its window cap.
  const auto nicless = [](std::string name) {
    Host host;  // NIC capacities keep their default, 0
    host.name = std::move(name);
    return host;
  };
  const PathCharacteristics path{.rtt_s = 0.05};
  Topology topo(PathModel(1, {&path, 1}));
  const HostId a = topo.add_host(nicless("a"));
  const HostId b = topo.add_host(nicless("b"));
  IperfRunner runner(topo, 1);
  EXPECT_THROW(runner.run_udp(a, b, 10), std::invalid_argument);
  EXPECT_THROW(runner.run_mesh_udp({a, b}, 10), std::invalid_argument);
  EXPECT_GT(runner.run_tcp(a, b, 10).median_bits(), 0.0);
}

TEST_F(IperfTest, MeshRefusesAHostListedTwice) {
  // The mesh gives every listed entry its own NICs, so a repeated host
  // would count its NIC twice.
  IperfRunner runner(topo, 1);
  const HostId us_e = topo.find("US-E");
  try {
    runner.run_mesh_udp({topo.find("NL"), us_e, us_e}, 10);
    FAIL() << "a repeated host was measured";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("US-E"), std::string::npos)
        << e.what();
  }
}

TEST_F(IperfTest, EmptyReportMedianIsZero) {
  IperfReport empty;
  EXPECT_DOUBLE_EQ(empty.median_bits(), 0.0);
}

TEST_F(IperfTest, VariableHostShowsSpread) {
  // US-NW's receive direction is configured flaky (Appendix B).
  const HostId us_sw = topo.find("US-SW");
  const HostId us_nw = topo.find("US-NW");
  IperfRunner r(topo, 7);
  double lo = 1e18, hi = 0;
  for (int i = 0; i < 12; ++i) {
    const double m = r.run_tcp(us_sw, us_nw, 30).median_bits();
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_LT(lo, hi * 0.7);  // wide range, like Table 3's 176-787
}

}  // namespace
}  // namespace flashflow::net
