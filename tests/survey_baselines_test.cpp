// Tests for the related-work survey protocols (§III): Weak DAD [11],
// passive DAD [14] and Boleng's variable-length addressing [10].
#include <gtest/gtest.h>

#include <set>

#include "baselines/boleng.hpp"
#include "baselines/pdad.hpp"
#include "baselines/weak_dad.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"

namespace qip {
namespace {

struct SurveyFixture : ::testing::Test {
  WorldParams wp{};
  World world{wp, /*seed=*/404};
  DriverOptions dopt{};

  void SetUp() override {
    dopt.mobility = false;
    dopt.arrival_interval = 0.2;
  }
};

// ---------------------------------------------------------------------------
// Weak DAD
// ---------------------------------------------------------------------------

TEST_F(SurveyFixture, WeakDadConfiguresInstantly) {
  WeakDadProtocol proto(world.transport(), world.rng());
  Driver d(world, proto, dopt);
  const NodeId a = d.join_at({500, 500});
  ASSERT_TRUE(proto.configured(a));
  EXPECT_EQ(proto.config_record(a)->latency_hops, 0u);
  EXPECT_NE(proto.key_of(a), 0u);  // overwhelmingly likely
}

TEST_F(SurveyFixture, WeakDadDetectsAddressConflicts) {
  WeakDadParams wdp;
  wdp.pool_size = 2;  // force address collisions fast
  wdp.key_bits = 32;  // keys stay distinct
  WeakDadProtocol proto(world.transport(), world.rng(), wdp);
  Driver d(world, proto, dopt);
  d.join(8);  // 8 nodes, 2 addresses: guaranteed duplicates
  proto.update_tick();
  world.run_for(1.0);
  proto.update_tick();
  world.run_for(1.0);
  EXPECT_GT(proto.conflicts_detected(), 0u)
      << "link-state keys must reveal the duplicate addresses";
}

TEST_F(SurveyFixture, WeakDadBlindToAddressAndKeyCollision) {
  WeakDadParams wdp;
  wdp.pool_size = 1;
  wdp.key_bits = 1;  // keys collide half the time
  WeakDadProtocol proto(world.transport(), world.rng(), wdp);
  Driver d(world, proto, dopt);
  d.join(12);
  // With one address and 1-bit keys some nodes share both — the scheme's
  // documented blind spot.
  EXPECT_GT(proto.silent_collisions(), 0u);
}

TEST_F(SurveyFixture, WeakDadUpdatesCostMaintenance) {
  WeakDadProtocol proto(world.transport(), world.rng());
  Driver d(world, proto, dopt);
  d.join(10);
  const auto before = world.stats().of(Traffic::kMaintenance).hops;
  proto.update_tick();
  world.run_for(1.0);
  EXPECT_GT(world.stats().of(Traffic::kMaintenance).hops, before)
      << "link-state dissemination is the scheme's real cost";
}

// ---------------------------------------------------------------------------
// PDAD
// ---------------------------------------------------------------------------

TEST_F(SurveyFixture, PdadAddsNoProtocolTraffic) {
  PdadProtocol proto(world.transport(), world.rng());
  Driver d(world, proto, dopt);
  d.join(10);
  proto.routing_tick();
  world.run_for(1.0);
  // Everything PDAD consumes is the routing substrate's own traffic.
  EXPECT_EQ(world.stats().protocol_hops(), 0u);
  EXPECT_GT(world.stats().of(Traffic::kHello).hops, 0u);
}

TEST_F(SurveyFixture, PdadFlagsDuplicatesFromRoutingHints) {
  PdadParams pp;
  pp.pool_size = 3;  // force duplicates among 12 nodes
  PdadProtocol proto(world.transport(), world.rng(), pp);
  Driver d(world, proto, dopt);
  d.join(12);
  ASSERT_GT(proto.actual_duplicates(), 0u);
  for (int i = 0; i < 6; ++i) {
    proto.routing_tick();
    world.run_for(1.0);
  }
  EXPECT_GT(proto.duplicates_flagged(), 0u);
  EXPECT_GT(proto.reconfigurations(), 0u);
}

TEST_F(SurveyFixture, PdadEventuallyConverges) {
  PdadParams pp;
  pp.pool_size = 64;  // enough space that re-picks can find free addresses
  PdadProtocol proto(world.transport(), world.rng(), pp);
  Driver d(world, proto, dopt);
  d.join(20);
  for (int i = 0; i < 30 && proto.actual_duplicates() > 0; ++i) {
    proto.routing_tick();
    world.run_for(1.0);
  }
  EXPECT_EQ(proto.actual_duplicates(), 0u);
}

TEST_F(SurveyFixture, PdadUniqueWhenPoolLarge) {
  PdadProtocol proto(world.transport(), world.rng());
  Driver d(world, proto, dopt);
  d.join(25);
  for (int i = 0; i < 10 && proto.actual_duplicates() > 0; ++i) {
    proto.routing_tick();
    world.run_for(1.0);
  }
  std::set<IpAddress> addrs;
  for (NodeId id : d.members()) {
    auto a = proto.address_of(id);
    if (a) {
      EXPECT_TRUE(addrs.insert(*a).second);
    }
  }
}

// ---------------------------------------------------------------------------
// Boleng variable-length addressing
// ---------------------------------------------------------------------------

TEST_F(SurveyFixture, BolengAssignsMonotonicallyIncreasing) {
  BolengProtocol proto(world.transport(), world.rng());
  proto.start_beacons();
  Driver d(world, proto, dopt);
  const NodeId a = d.join_at({500, 500});
  world.run_for(1.5);
  const NodeId b = d.join_at({600, 500});
  world.run_for(1.5);
  const NodeId c = d.join_at({550, 560});
  world.run_for(1.5);
  EXPECT_EQ(proto.address_of(a), kPoolBase);
  EXPECT_LT(*proto.address_of(a), *proto.address_of(b));
  EXPECT_LT(*proto.address_of(b), *proto.address_of(c));
}

TEST_F(SurveyFixture, BolengAddressBitsGrow) {
  BolengProtocol proto(world.transport(), world.rng());
  proto.start_beacons();
  Driver d(world, proto, dopt);
  d.join(40);
  world.run_for(3.0);
  // 40 assignments need at least 6 bits; the parameter must have spread.
  std::uint32_t max_bits = 0;
  for (NodeId id : d.members()) {
    max_bits = std::max(max_bits, proto.address_bits(id));
  }
  EXPECT_GE(max_bits, 6u);
}

TEST_F(SurveyFixture, BolengNeverReusesAddresses) {
  BolengProtocol proto(world.transport(), world.rng());
  proto.start_beacons();
  Driver d(world, proto, dopt);
  const auto ids = d.join(10);
  world.run_for(2.0);
  const IpAddress departed = *proto.address_of(ids[4]);
  d.depart_graceful(ids[4]);
  world.run_for(2.0);
  const NodeId fresh = d.join_one();
  world.run_for(2.0);
  ASSERT_TRUE(proto.configured(fresh));
  EXPECT_GT(*proto.address_of(fresh), departed)
      << "departed addresses are never reassigned within an epoch";
}

TEST_F(SurveyFixture, BolengUniqueWhileConnected) {
  BolengProtocol proto(world.transport(), world.rng());
  proto.start_beacons();
  Driver d(world, proto, dopt);
  d.join(30);
  world.run_for(3.0);
  EXPECT_EQ(proto.actual_duplicates(), 0u);
  std::set<IpAddress> addrs;
  for (NodeId id : d.members()) {
    auto a = proto.address_of(id);
    ASSERT_TRUE(a.has_value());
    EXPECT_TRUE(addrs.insert(*a).second);
  }
}

TEST_F(SurveyFixture, BolengMergeResolvesPartitionDuplicates) {
  BolengProtocol proto(world.transport(), world.rng());
  proto.start_beacons();
  DriverOptions opts = dopt;
  opts.connected_arrivals = false;
  Driver d(world, proto, opts);
  // Two far camps assign independently: duplicates by construction.
  const NodeId a1 = d.join_at({100, 500});
  const NodeId a2 = d.join_at({170, 500});
  const NodeId b1 = d.join_at({900, 500});
  const NodeId b2 = d.join_at({830, 500});
  world.run_for(2.0);
  EXPECT_GT(proto.actual_duplicates(), 0u);
  // Bridge the camps; the beacon census resolves the duplicates.
  for (double x : {270.0, 400.0, 530.0, 660.0, 790.0}) d.join_at({x, 500});
  world.run_for(5.0);
  EXPECT_EQ(proto.actual_duplicates(), 0u);
  (void)a1; (void)a2; (void)b1; (void)b2;
}

}  // namespace
}  // namespace qip
