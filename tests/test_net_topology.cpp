#include "net/topology.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "net/units.h"

namespace flashflow::net {
namespace {

Host make_host(std::string name, double up_bits = 0.0,
               double down_bits = 0.0) {
  Host h;
  h.name = std::move(name);
  h.nic_up_bits = up_bits;
  h.nic_down_bits = down_bits;
  return h;
}

/// A topology whose hosts all sit on one co-located tier (lookups need no
/// paths).
Topology one_tier() {
  const PathCharacteristics co_located{};
  return Topology(PathModel(1, {&co_located, 1}));
}

/// The loaded loss of one path, through the slot pipeline's bulk query.
double loaded_loss(const Topology& t, HostId a, HostId b) {
  PathCharacteristics out;
  t.fill_paths(a, {&b, 1}, {&out, 1});
  return out.loaded_loss;
}

TEST(Topology, AddHostAndLookup) {
  Topology t = one_tier();
  const HostId a = t.add_host(make_host("a", mbit(100), mbit(100)));
  const HostId b = t.add_host(make_host("b", mbit(200), mbit(200)));
  EXPECT_EQ(t.host_count(), 2u);
  EXPECT_EQ(t.find("a"), a);
  EXPECT_EQ(t.find("b"), b);
  EXPECT_THROW(t.find("c"), std::invalid_argument);
  EXPECT_THROW(t.host(5), std::out_of_range);
}

TEST(Topology, FindResolvesEveryNameInALargePopulation) {
  // find() scans the hosts. That is quadratic only for a caller that
  // resolves a whole population by name, and none does: relays carry
  // their host ids, and names are looked up for at most five measurer
  // and relay hosts. Every name must still resolve in a large topology.
  Topology t = one_tier();
  std::vector<HostId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(t.add_host(make_host("relay-" + std::to_string(i))));
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(t.find("relay-" + std::to_string(i)), ids[i]);
}

TEST(Topology, FindReturnsFirstAddedOnDuplicateNames) {
  Topology t = one_tier();
  const HostId first = t.add_host(make_host("twin"));
  t.add_host(make_host("twin"));
  EXPECT_EQ(t.find("twin"), first);
}

TEST(Topology, FindSkipsUnnamedHosts) {
  // Relay hosts carry no name; an empty name must never resolve to one.
  Topology t = one_tier();
  t.add_host(make_host(""));
  const HostId measurer = t.add_host(make_host("measurer-0"));
  t.add_host(make_host(""));
  const HostId nl = t.add_host(make_host("NL"));
  EXPECT_EQ(t.find("measurer-0"), measurer);
  EXPECT_EQ(t.find("NL"), nl);
  EXPECT_THROW(t.find(""), std::invalid_argument);
  EXPECT_THROW(t.find("measurer-1"), std::invalid_argument);
}

TEST(Topology, PathIsSymmetric) {
  // Two tiers, one host each: the (0, 1) entry is the pair's path.
  const PathCharacteristics table[] = {{}, {0.05, 1e-5, 2e-4}, {}};
  Topology t(PathModel(2, table));
  const HostId a = t.add_host(make_host("a"));
  const HostId b = t.add_host(make_host("b"));
  EXPECT_DOUBLE_EQ(t.rtt(a, b), 0.05);
  EXPECT_DOUBLE_EQ(t.rtt(b, a), 0.05);
  EXPECT_DOUBLE_EQ(t.loss(a, b), 1e-5);
  EXPECT_DOUBLE_EQ(loaded_loss(t, b, a), 2e-4);
  EXPECT_THROW(t.rtt(a, 2), std::out_of_range);
}

TEST(Table1Hosts, MatchesPaperInventory) {
  const Topology t = make_table1_hosts();
  ASSERT_EQ(t.host_count(), 5u);
  // Table 1 "BW (measured)" row.
  EXPECT_NEAR(to_mbit(t.host(t.find("US-SW")).nic_down_bits), 954, 1);
  EXPECT_NEAR(to_mbit(t.host(t.find("US-NW")).nic_down_bits), 946, 1);
  EXPECT_NEAR(to_mbit(t.host(t.find("US-E")).nic_down_bits), 941, 1);
  EXPECT_NEAR(to_mbit(t.host(t.find("IN")).nic_down_bits), 1076, 1);
  EXPECT_NEAR(to_mbit(t.host(t.find("NL")).nic_down_bits), 1611, 1);
  // Table 1 RTT row (seconds).
  const HostId us_sw = t.find("US-SW");
  EXPECT_DOUBLE_EQ(t.rtt(us_sw, t.find("US-NW")), 0.040);
  EXPECT_DOUBLE_EQ(t.rtt(us_sw, t.find("US-E")), 0.062);
  EXPECT_DOUBLE_EQ(t.rtt(us_sw, t.find("IN")), 0.210);
  EXPECT_DOUBLE_EQ(t.rtt(us_sw, t.find("NL")), 0.137);
  // Table 1 CPU cores and virtualization.
  EXPECT_EQ(t.host(t.find("US-E")).cpu_cores, 12);
  EXPECT_FALSE(t.host(t.find("US-E")).virtual_host);
  EXPECT_TRUE(t.host(t.find("IN")).virtual_host);
  EXPECT_FALSE(t.host(t.find("US-E")).datacenter);  // residential
}

TEST(Table1Hosts, LoadedLossExceedsCleanLoss) {
  const Topology t = make_table1_hosts();
  const HostId us_sw = t.find("US-SW");
  for (const auto& name : {"US-NW", "US-E", "IN", "NL"}) {
    const HostId h = t.find(name);
    EXPECT_GT(loaded_loss(t, us_sw, h), t.loss(us_sw, h));
  }
}

TEST(Table1Hosts, PathsMatchRecordedBits) {
  // Every ordered pair of the five hosts, row by row in paper order:
  // (RTT, loss, loaded loss), recorded from the build that stored Table 1
  // as ten symmetric per-pair writes into n x n matrices.
  const PathCharacteristics kRecorded[25] = {
      {0x0p+0, 0x0p+0, 0x0p+0},  // US-SW -> US-SW
      {0x1.47ae147ae147bp-5, 0x1.0c6f7a0b5ed8dp-20, 0x1.f75104d551d69p-15},
      {0x1.fbe76c8b43958p-5, 0x1.0c6f7a0b5ed8dp-20, 0x1.f75104d551d69p-15},
      {0x1.ae147ae147ae1p-3, 0x1.0c6f7a0b5ed8dp-19, 0x1.4f8b588e368f1p-13},
      {0x1.189374bc6a7fp-3, 0x1.0c6f7a0b5ed8dp-20, 0x1.a36e2eb1c432dp-14},
      {0x1.47ae147ae147bp-5, 0x1.0c6f7a0b5ed8dp-20, 0x1.f75104d551d69p-15},
      {0x0p+0, 0x0p+0, 0x0p+0},  // US-NW -> US-NW
      {0x1.1eb851eb851ecp-4, 0x1.0c6f7a0b5ed8dp-20, 0x1.f75104d551d69p-15},
      {0x1.d70a3d70a3d71p-3, 0x1.0c6f7a0b5ed8dp-19, 0x1.64840e1719f8p-13},
      {0x1.3333333333333p-3, 0x1.0c6f7a0b5ed8dp-20, 0x1.cd5f99c38b04bp-14},
      {0x1.fbe76c8b43958p-5, 0x1.0c6f7a0b5ed8dp-20, 0x1.f75104d551d69p-15},
      {0x1.1eb851eb851ecp-4, 0x1.0c6f7a0b5ed8dp-20, 0x1.f75104d551d69p-15},
      {0x0p+0, 0x0p+0, 0x0p+0},  // US-E -> US-E
      {0x1.999999999999ap-3, 0x1.0c6f7a0b5ed8dp-19, 0x1.4f8b588e368f1p-13},
      {0x1.70a3d70a3d70ap-4, 0x1.0c6f7a0b5ed8dp-20, 0x1.4f8b588e368f1p-14},
      {0x1.ae147ae147ae1p-3, 0x1.0c6f7a0b5ed8dp-19, 0x1.4f8b588e368f1p-13},
      {0x1.d70a3d70a3d71p-3, 0x1.0c6f7a0b5ed8dp-19, 0x1.64840e1719f8p-13},
      {0x1.999999999999ap-3, 0x1.0c6f7a0b5ed8dp-19, 0x1.4f8b588e368f1p-13},
      {0x0p+0, 0x0p+0, 0x0p+0},  // IN -> IN
      {0x1.0a3d70a3d70a4p-3, 0x1.0c6f7a0b5ed8dp-19, 0x1.a36e2eb1c432dp-14},
      {0x1.189374bc6a7fp-3, 0x1.0c6f7a0b5ed8dp-20, 0x1.a36e2eb1c432dp-14},
      {0x1.3333333333333p-3, 0x1.0c6f7a0b5ed8dp-20, 0x1.cd5f99c38b04bp-14},
      {0x1.70a3d70a3d70ap-4, 0x1.0c6f7a0b5ed8dp-20, 0x1.4f8b588e368f1p-14},
      {0x1.0a3d70a3d70a4p-3, 0x1.0c6f7a0b5ed8dp-19, 0x1.a36e2eb1c432dp-14},
      {0x0p+0, 0x0p+0, 0x0p+0},  // NL -> NL
  };
  const Topology t = make_table1_hosts();
  std::vector<HostId> hosts;
  for (const std::string& name : table1_host_names())
    hosts.push_back(t.find(name));
  ASSERT_EQ(hosts.size(), 5u);
  PathCharacteristics paths[25];
  for (std::size_t i = 0; i < hosts.size(); ++i)
    t.fill_paths(hosts[i], hosts, {paths + 5 * i, 5});
  EXPECT_EQ(std::memcmp(paths, kRecorded, sizeof(paths)), 0);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(mbit(250), 250e6);
  EXPECT_DOUBLE_EQ(gbit(1), 1e9);
  EXPECT_DOUBLE_EQ(to_mbit(5e8), 500);
  EXPECT_DOUBLE_EQ(kib(50), 51200);
  EXPECT_DOUBLE_EQ(bytes_from_bits(80), 10);
  EXPECT_DOUBLE_EQ(bits_from_bytes(10), 80);
}

}  // namespace
}  // namespace flashflow::net
