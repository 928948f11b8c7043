// Fault-path tests of the QIP engine: departures, address reclamation,
// quorum adjustment, partition and merge (§IV-C/D, §V-B/C).
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "sim/sim_context.hpp"

namespace qip {
namespace {

struct QipFaultFixture : ::testing::Test {
  SimContext ctx;
  WorldParams wp{};
  World world{wp, /*seed=*/91, ctx};
  QipParams qp{};
  std::unique_ptr<QipEngine> proto;
  std::unique_ptr<Driver> driver;

  void init(std::uint64_t pool = 256) {
    qp.pool_size = pool;
    proto = std::make_unique<QipEngine>(world.transport(), world.rng(), qp);
    proto->start_hello();
    DriverOptions dopt;
    dopt.mobility = false;
    dopt.arrival_interval = 1.0;
    driver = std::make_unique<Driver>(world, *proto, dopt);
  }

  /// Head A at x=100 with two relays, head B at x=520 (3 hops from A).
  NodeId build_two_head_chain() {
    driver->join_at({100, 500});
    world.run_for(5.0);
    driver->join_at({240, 500});
    driver->join_at({380, 500});
    const NodeId b = driver->join_at({520, 500});
    world.run_for(3.0);
    EXPECT_EQ(proto->state_of(b).role, Role::kClusterHead);
    return b;
  }
};

TEST_F(QipFaultFixture, GracefulCommonDepartureReturnsAddress) {
  init();
  const NodeId a = driver->join_at({500, 500});
  world.run_for(5.0);
  const NodeId b = driver->join_at({600, 500});
  world.run_for(2.0);
  const IpAddress addr = *proto->address_of(b);
  const std::uint64_t free_before = proto->state_of(a).ip_space.size();

  driver->depart_graceful(b);
  world.run_for(2.0);
  const auto& sa = proto->state_of(a);
  EXPECT_EQ(sa.ip_space.size(), free_before + 1);
  EXPECT_TRUE(sa.ip_space.contains(addr));
  EXPECT_FALSE(sa.table.allocated(addr));
  EXPECT_FALSE(proto->knows(b));
}

TEST_F(QipFaultFixture, ReturnedAddressIsReassigned) {
  init();
  driver->join_at({500, 500});
  world.run_for(5.0);
  const NodeId b = driver->join_at({600, 500});
  world.run_for(2.0);
  const IpAddress addr = *proto->address_of(b);
  driver->depart_graceful(b);
  world.run_for(2.0);
  const NodeId c = driver->join_at({580, 520});
  world.run_for(2.0);
  ASSERT_TRUE(proto->configured(c));
  EXPECT_EQ(*proto->address_of(c), addr);  // lowest free again
}

TEST_F(QipFaultFixture, GracefulHeadDepartureHandsBlockToConfigurer) {
  init(256);
  const NodeId b = build_two_head_chain();
  const NodeId a = 0;
  const AddressBlock b_universe = proto->state_of(b).owned_universe;
  const std::uint64_t a_before = proto->state_of(a).owned_universe.size();

  driver->depart_graceful(b);
  world.run_for(3.0);
  const auto& sa = proto->state_of(a);
  EXPECT_EQ(sa.owned_universe.size(), a_before + b_universe.size());
  EXPECT_TRUE(sa.owned_universe.contains_all(b_universe));
  EXPECT_FALSE(sa.qdset.count(b));
  EXPECT_FALSE(sa.replicas.count(b));
}

TEST_F(QipFaultFixture, HeadDepartureReassignsMembers) {
  init(256);
  const NodeId b = build_two_head_chain();
  const NodeId m = driver->join_at({560, 560});  // member of B
  world.run_for(2.0);
  ASSERT_EQ(proto->state_of(m).configurer, b);

  driver->depart_graceful(b);
  world.run_for(3.0);
  EXPECT_EQ(proto->state_of(m).configurer, 0u)
      << "ALLOC_CHANGE should point members at the block's new owner";
  EXPECT_TRUE(proto->configured(m));
}

TEST_F(QipFaultFixture, AbruptHeadLeaveIsReclaimed) {
  init(256);
  const NodeId b = build_two_head_chain();
  // Member of B that stays reachable from A even after B dies (within range
  // of the x=380 relay).
  const NodeId m = driver->join_at({500, 560});
  world.run_for(2.0);
  const AddressBlock b_universe = proto->state_of(b).owned_universe;
  const IpAddress m_addr = *proto->address_of(m);

  driver->depart_abrupt(b);
  // Quorum adjustment: hello scan -> T_d -> REP_REQ -> T_r -> reclamation
  // flood -> settle.  Allow generous time.
  world.run_for(15.0);

  EXPECT_GE(proto->reclaims_completed(), 1u);
  const auto& sa = proto->state_of(0);
  EXPECT_TRUE(sa.owned_universe.contains_all(b_universe))
      << "the surviving replica holder adopts the dead head's space";
  // The member that claimed via REC_REP keeps its address...
  EXPECT_TRUE(sa.table.allocated(m_addr));
  EXPECT_EQ(proto->state_of(m).configurer, 0u);
  // ...and B's own identity address was freed for reuse.
  EXPECT_FALSE(sa.qdset.count(b));
  EXPECT_FALSE(sa.replicas.count(b));
}

TEST_F(QipFaultFixture, AbruptCommonLeaveLeaksUntilReclaim) {
  init();
  const NodeId a = driver->join_at({500, 500});
  world.run_for(5.0);
  const NodeId b = driver->join_at({600, 500});
  world.run_for(2.0);
  const IpAddress addr = *proto->address_of(b);
  driver->depart_abrupt(b);
  world.run_for(2.0);
  // Nobody was told: the allocator still considers the address taken.
  EXPECT_TRUE(proto->state_of(a).table.allocated(addr));
  EXPECT_FALSE(proto->state_of(a).ip_space.contains(addr));
}

TEST_F(QipFaultFixture, ConfigurationLandingAfterItsHeadDiedIsReclaimed) {
  init();
  const NodeId a = 0;
  const NodeId b = build_two_head_chain();
  // n sits beside relay 2 and B, so it asks B for an address.  B dies right
  // after the event that put its COM_CFG to n on the air: n completes
  // configuration under an allocator that is no longer a head.  The world
  // is stepped by hand through n's arrival interval, and each step's `qip`
  // instants are read off the recorder.
  const auto n = static_cast<NodeId>(driver->joined_count());
  const SimTime arrived = world.sim().now() + 1.0;  // init's arrival_interval
  ASSERT_EQ(driver->enter_at({450, 600}), n);
  const auto com_cfg_from_b_to_n = [&](const obs::Event& ev) {
    const obs::Arg* to = ev.arg("to");
    return ev.phase == obs::Phase::kInstant && ev.tid == b &&
           std::string_view(ev.name) == to_string(QipMsg::kComCfg) &&
           to != nullptr && to->i == n;
  };
  obs::TraceRecorder& rec = ctx.recorder();
  rec.set_capacity(1u << 10);  // cleared after every step
  rec.enable();
  bool armed = false;
  while (!armed && world.sim().now() < arrived && world.sim().step()) {
    for (const obs::Event& ev : rec.events()) armed |= com_cfg_from_b_to_n(ev);
    rec.clear();
  }
  rec.disable();
  ASSERT_TRUE(armed);
  driver->depart_abrupt(b);
  world.sim().run(arrived);
  ASSERT_EQ(proto->state_of(n).role, Role::kCommonNode);
  ASSERT_EQ(proto->state_of(n).configurer, b);
  EXPECT_EQ(proto->clusters().role(n), Role::kCommonNode);
  EXPECT_FALSE(proto->clusters().head_of(n).has_value());

  // A reclaims B's space; n's REC_REP claim earns it an ALLOC_CHANGE that
  // moves it into A's cluster.
  world.run_for(10.0);
  ASSERT_GE(proto->reclaims_completed(), 1u);
  EXPECT_EQ(proto->state_of(n).configurer, a);
  EXPECT_EQ(proto->clusters().head_of(n), a);
}

TEST_F(QipFaultFixture, QuorumShrinksAfterSilence) {
  init(256);
  const NodeId b = build_two_head_chain();
  ASSERT_TRUE(proto->state_of(0).qdset.count(b));
  driver->depart_abrupt(b);
  world.run_for(10.0);
  EXPECT_FALSE(proto->state_of(0).qdset.count(b))
      << "T_d expiry shrinks the quorum set around the silent head";
}

TEST_F(QipFaultFixture, ConfigurationSurvivesDeadQdsetMember) {
  init(256);
  const NodeId b = build_two_head_chain();
  driver->depart_abrupt(b);
  world.run_for(10.0);
  // A can still configure: its quorum adjusted.
  const NodeId c = driver->join_at({150, 550});
  world.run_for(3.0);
  EXPECT_TRUE(proto->configured(c));
}

TEST_F(QipFaultFixture, PartitionedMinorityHeadCannotShrinkAlone) {
  // Head B has QDSet {A}; when the network splits so B is alone with its
  // members, the view-change majority guard must keep B from shrinking to
  // a solo quorum over A's replicated space.
  init(256);
  const NodeId b = build_two_head_chain();
  // Partition: remove the two relays so B's side is {b} only.
  driver->depart_abrupt(1);
  driver->depart_abrupt(2);
  world.run_for(6.0);
  const auto& sb = proto->state_of(b);
  // Group {A,B} of size 2: B alone is exactly half — cannot shrink.
  EXPECT_TRUE(sb.qdset.count(0))
      << "minority side must not view-change A out of its quorum group";
}

TEST_F(QipFaultFixture, MergeReconfiguresLargerIdNetwork) {
  init(256);
  // Two independent networks far apart (800 m > any multi-hop path).
  const NodeId a = driver->join_at({100, 500});
  world.run_for(6.0);
  const NodeId b = driver->join_at({900, 500});
  world.run_for(6.0);
  ASSERT_EQ(proto->state_of(a).role, Role::kClusterHead);
  ASSERT_EQ(proto->state_of(b).role, Role::kClusterHead);
  const NetworkId net_a = proto->state_of(a).network_id;
  const NetworkId net_b = proto->state_of(b).network_id;
  ASSERT_NE(net_a, net_b) << "independent bootstraps get distinct ids";

  // Bridge them with a 130 m-spaced relay chain: merge is detected at the
  // boundary and the larger-id network must rejoin the smaller-id one.
  for (double x : {230.0, 360.0, 490.0, 620.0, 750.0}) {
    driver->join_at({x, 500});
  }
  world.run_for(20.0);

  EXPECT_GE(proto->merges_handled(), 1u);
  const NetworkId winner = std::min(net_a, net_b);
  std::uint32_t configured = 0;
  for (NodeId id : driver->members()) {
    if (!proto->configured(id)) continue;
    ++configured;
    EXPECT_EQ(proto->state_of(id).network_id, winner)
        << "node " << id << " should belong to the surviving network";
  }
  EXPECT_GE(configured, 5u);
  // No duplicate addresses after the merge.
  std::set<IpAddress> addrs;
  for (const auto& [id, addr] : proto->configured_addresses()) {
    EXPECT_TRUE(addrs.insert(addr).second)
        << "duplicate " << addr << " after merge";
  }
}

TEST_F(QipFaultFixture, VanishedNodeStateIsDropped) {
  init();
  driver->join_at({500, 500});
  world.run_for(5.0);
  const NodeId b = driver->join_at({600, 500});
  world.run_for(2.0);
  driver->depart_abrupt(b);
  EXPECT_FALSE(proto->knows(b));
  // Records survive for latency accounting.
  EXPECT_NE(proto->config_record(b), nullptr);
}

TEST_F(QipFaultFixture, ReentryAfterMergeKeepsRecordsConsistent) {
  init();
  const NodeId a = driver->join_at({500, 500});
  world.run_for(5.0);
  // Simulated re-entry (the merge path calls node_entered again).
  proto->node_entered(a);
  world.run_for(6.0);
  EXPECT_TRUE(proto->configured(a));
}

}  // namespace
}  // namespace qip
