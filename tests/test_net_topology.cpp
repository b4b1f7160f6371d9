#include "net/topology.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

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

/// The loaded loss of one path, through the slot pipeline's bulk query.
double loaded_loss(const Topology& t, HostId a, HostId b) {
  PathCharacteristics out;
  t.fill_paths(a, {&b, 1}, {&out, 1});
  return out.loaded_loss;
}

TEST(Topology, AddHostAndLookup) {
  Topology t;
  const HostId a = t.add_host(make_host("a", mbit(100), mbit(100)));
  const HostId b = t.add_host(make_host("b", mbit(200), mbit(200)));
  EXPECT_EQ(t.host_count(), 2u);
  EXPECT_EQ(t.find("a"), a);
  EXPECT_EQ(t.find("b"), b);
  EXPECT_THROW(t.find("c"), std::invalid_argument);
  EXPECT_THROW(t.host(5), std::out_of_range);
}

TEST(Topology, FindResolvesEveryNameInALargePopulation) {
  // find() is backed by a name index maintained by add_host (it used to
  // be an O(N) scan per lookup, quadratic across a campaign's relay
  // resolution); every host must stay findable as the index grows.
  Topology t;
  std::vector<HostId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(t.add_host(make_host("relay-" + std::to_string(i))));
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(t.find("relay-" + std::to_string(i)), ids[i]);
}

TEST(Topology, FindReturnsFirstAddedOnDuplicateNames) {
  Topology t;
  const HostId first = t.add_host(make_host("twin"));
  t.add_host(make_host("twin"));
  EXPECT_EQ(t.find("twin"), first);
}

TEST(Topology, PathIsSymmetric) {
  Topology t;
  const HostId a = t.add_host(make_host("a"));
  const HostId b = t.add_host(make_host("b"));
  t.set_path(a, b, 0.05, 1e-5, 2e-4);
  EXPECT_DOUBLE_EQ(t.rtt(a, b), 0.05);
  EXPECT_DOUBLE_EQ(t.rtt(b, a), 0.05);
  EXPECT_DOUBLE_EQ(t.loss(a, b), 1e-5);
  EXPECT_DOUBLE_EQ(loaded_loss(t, b, a), 2e-4);
}

TEST(Topology, LoadedLossDefaultsToCleanLoss) {
  Topology t;
  const HostId a = t.add_host(make_host("a"));
  const HostId b = t.add_host(make_host("b"));
  t.set_path(a, b, 0.05, 3e-5);
  EXPECT_DOUBLE_EQ(loaded_loss(t, a, b), 3e-5);
}

TEST(Topology, GrowingPreservesPaths) {
  Topology t;
  const HostId a = t.add_host(make_host("a"));
  const HostId b = t.add_host(make_host("b"));
  t.set_path(a, b, 0.1, 0.0);
  const HostId c = t.add_host(make_host("c"));
  EXPECT_DOUBLE_EQ(t.rtt(a, b), 0.1);  // survived the matrix growth
  EXPECT_DOUBLE_EQ(t.rtt(a, c), 0.0);  // unset defaults to zero
}

TEST(Topology, ReserveHostsMatchesIncrementalGrowth) {
  // reserve_hosts presizes the dense matrices so large materializations
  // are not quadratic per insertion; paths and lookups must behave
  // identically with and without the reservation, including growth past
  // the reserved dimension.
  Topology reserved;
  reserved.reserve_hosts(3);
  Topology grown;
  for (auto* t : {&reserved, &grown}) {
    const HostId a = t->add_host(make_host("a", mbit(10), mbit(10)));
    const HostId b = t->add_host(make_host("b", mbit(20), mbit(20)));
    const HostId c = t->add_host(make_host("c", mbit(30), mbit(30)));
    t->set_path(a, b, 0.1, 1e-6, 2e-5);
    t->set_path(b, c, 0.2, 2e-6);
    const HostId d = t->add_host(make_host("d"));  // beyond the reservation
    t->set_path(a, d, 0.3, 0.0);
  }
  for (HostId x = 0; x < reserved.host_count(); ++x)
    for (HostId y = 0; y < reserved.host_count(); ++y) {
      EXPECT_DOUBLE_EQ(reserved.rtt(x, y), grown.rtt(x, y));
      EXPECT_DOUBLE_EQ(reserved.loss(x, y), grown.loss(x, y));
      EXPECT_DOUBLE_EQ(loaded_loss(reserved, x, y), loaded_loss(grown, x, y));
    }
  EXPECT_THROW(reserved.rtt(0, 5), std::out_of_range);
}

TEST(Topology, RejectsBadPathParams) {
  Topology t;
  const HostId a = t.add_host(make_host("a"));
  const HostId b = t.add_host(make_host("b"));
  EXPECT_THROW(t.set_path(a, b, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(t.set_path(a, b, 1.0, 1.0), std::invalid_argument);
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
