// Deterministic tests for the §V-C machinery: network ids, partition
// detection via dynamic lowest-IP, same-pool healing, cross-pool merging,
// and isolated-head recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"

namespace qip {
namespace {

struct PartitionFixture : ::testing::Test {
  WorldParams wp{};
  World world{wp, /*seed=*/555};
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

  /// Line network A(0) - r1 - r2 - B(head) with a member near B, then cut
  /// the relays: A-side and B-side partition.
  struct TwoSides {
    NodeId a = 0, r1 = 1, r2 = 2, b = 3, m = 4;
  };
  TwoSides build_and_cut() {
    TwoSides t;
    driver->join_at({100, 500});
    world.run_for(5.0);
    driver->join_at({240, 500});
    driver->join_at({380, 500});
    t.b = driver->join_at({520, 500});
    world.run_for(3.0);
    t.m = driver->join_at({520, 620});  // member of B, reachable only via B
    world.run_for(2.0);
    EXPECT_EQ(proto->state_of(t.b).role, Role::kClusterHead);
    EXPECT_EQ(proto->state_of(t.m).configurer, t.b);
    driver->depart_abrupt(t.r1);
    driver->depart_abrupt(t.r2);
    return t;
  }
};

TEST_F(PartitionFixture, NetworkIdTracksLowestLiveIp) {
  init();
  const auto t = build_and_cut();
  world.run_for(3.0);  // refresh ticks run
  // A-side kept 10.0.0.0 (A is the first head); B-side's lowest live IP is
  // whatever B or m holds — strictly greater.
  const NetworkId ida = proto->state_of(t.a).network_id;
  const NetworkId idb = proto->state_of(t.b).network_id;
  EXPECT_EQ(ida.low, kPoolBase);
  EXPECT_GT(idb.low, ida.low);
  EXPECT_EQ(ida.nonce, idb.nonce) << "one pool, one epoch";
  EXPECT_EQ(proto->state_of(t.m).network_id, idb);
}

TEST_F(PartitionFixture, HealUnifiesIdsWithoutDissolvingHeads) {
  init();
  const auto t = build_and_cut();
  world.run_for(3.0);
  const std::uint64_t head_universe_before =
      proto->state_of(t.b).owned_universe.size();
  // Re-bridge the sides.
  driver->join_at({240, 500});
  driver->join_at({380, 500});
  world.run_for(5.0);
  // Ids unified...
  EXPECT_EQ(proto->state_of(t.a).network_id, proto->state_of(t.b).network_id);
  EXPECT_EQ(proto->state_of(t.a).network_id.low, kPoolBase);
  // ...and B kept its role and space: same-pool healing never dissolves.
  EXPECT_EQ(proto->state_of(t.b).role, Role::kClusterHead);
  EXPECT_EQ(proto->state_of(t.b).owned_universe.size(),
            head_universe_before);
  EXPECT_TRUE(proto->configured(t.m));
  // The pool did not leak: head universes still partition it.
  std::uint64_t total = 0;
  for (NodeId h : proto->clusters().heads()) {
    total += proto->state_of(h).owned_universe.size();
  }
  EXPECT_EQ(total, qp.pool_size);
}

TEST_F(PartitionFixture, HealResolvesReissuedAddressByTimestamp) {
  init();
  const auto t = build_and_cut();
  const IpAddress m_addr = *proto->address_of(t.m);
  // A reclaims B's space during the partition (B unreachable; A holds B's
  // replica and the group {A,B} with A distinguished).
  world.run_for(15.0);
  ASSERT_GE(proto->reclaims_completed(), 1u);
  // A hands m's address to a fresh node on its side: a genuine duplicate
  // across the partition.  (Force it by allocating everything below it.)
  ASSERT_TRUE(proto->state_of(t.a).owned_universe.contains(m_addr));
  // Reconnect; the heal must detect the boundary and resolve m's address
  // by record freshness.
  driver->join_at({240, 500});
  driver->join_at({380, 500});
  world.run_for(8.0);
  std::set<IpAddress> addrs;
  for (const auto& [id, addr] : proto->configured_addresses()) {
    EXPECT_TRUE(addrs.insert(addr).second) << "duplicate " << addr;
  }
  EXPECT_TRUE(proto->configured(t.m));
}

TEST_F(PartitionFixture, IsolatedHeadRestartsFreshNetwork) {
  init(256);
  qp.isolation_patience = 3;  // speed the test up
  proto = std::make_unique<QipEngine>(world.transport(), world.rng(), qp);
  proto->start_hello();
  DriverOptions dopt;
  dopt.mobility = false;
  dopt.arrival_interval = 1.0;
  driver = std::make_unique<Driver>(world, *proto, dopt);

  const auto t = build_and_cut();
  const NetworkId before = proto->state_of(t.b).network_id;
  // B is a head with replicas but no reachable peer head: after the
  // patience window it restarts as a fresh network with the full pool.
  world.run_for(12.0);
  const auto& sb = proto->state_of(t.b);
  EXPECT_EQ(sb.role, Role::kClusterHead);
  EXPECT_NE(sb.network_id.nonce, before.nonce);
  EXPECT_EQ(sb.owned_universe.size(), qp.pool_size);
  // Its member was reconfigured into the fresh network.
  EXPECT_EQ(proto->state_of(t.m).network_id, sb.network_id);
  EXPECT_TRUE(proto->configured(t.m));
}

TEST_F(PartitionFixture, CrossPoolMergeDissolvesLargerId) {
  init(128);
  // Two independent pools.
  const NodeId a = driver->join_at({100, 500});
  world.run_for(6.0);
  const NodeId b = driver->join_at({900, 500});
  world.run_for(6.0);
  const NetworkId na = proto->state_of(a).network_id;
  const NetworkId nb = proto->state_of(b).network_id;
  ASSERT_NE(na.nonce, nb.nonce);
  const NetworkId winner = std::min(na, nb);
  // Bridge.
  for (double x : {230.0, 360.0, 490.0, 620.0, 750.0}) driver->join_at({x, 500});
  world.run_for(20.0);
  EXPECT_GE(proto->merges_handled(), 1u);
  for (NodeId id : driver->members()) {
    if (!proto->configured(id)) continue;
    EXPECT_EQ(proto->state_of(id).network_id.nonce, winner.nonce)
        << "node " << id;
  }
}

TEST_F(PartitionFixture, PendingMergeNotMaskedByRefresh) {
  init();
  const auto t = build_and_cut();
  world.run_for(3.0);
  const NetworkId ida = proto->state_of(t.a).network_id;
  const NetworkId idb = proto->state_of(t.b).network_id;
  ASSERT_NE(ida, idb);
  // Re-bridge and run exactly one hello tick by hand: the refresh must not
  // silently unify the divergent lows before a heal processed them.
  driver->join_at({240, 500});
  driver->join_at({380, 500});
  proto->hello_tick();
  // Either the heal already ran (ids unified AND merges counted) or the ids
  // are still divergent awaiting the next tick — never unified-without-heal.
  const bool unified =
      proto->state_of(t.a).network_id == proto->state_of(t.b).network_id;
  if (unified) {
    EXPECT_GE(proto->merges_handled(), 1u);
  }
}

TEST_F(PartitionFixture, HeadBeyondQdsetRadiusIsNotIsolated) {
  qp.isolation_patience = 3;
  init();

  // A(0) - r1 - r2 - B: B is elected three hops from A and the two link.
  const NodeId a = driver->join_at({100, 500});
  world.run_for(5.0);
  driver->join_at({240, 500});
  driver->join_at({380, 500});
  const NodeId b = driver->join_at({520, 500});
  world.run_for(3.0);
  const NodeId r3 = driver->join_at({450, 560});  // B's member, beside r2
  world.run_for(2.0);
  ASSERT_TRUE(proto->clusters().is_head(b));
  ASSERT_EQ(proto->clusters().head_of(r3), b);
  // Stretch the line in one instant: A - r1 - r2 - r3 - B, B four hops out.
  world.topology().move_node(r3, {520, 500});
  world.topology().move_node(b, {660, 500});
  ASSERT_EQ(world.topology().hop_distance(a, b), 4u);
  ASSERT_GT(4u, qp.qdset_radius);
  const NetworkId before = proto->state_of(a).network_id;
  ASSERT_FALSE(proto->state_of(a).replicas.empty());

  // No head inside A's QDSet ring, but B is still reachable: the isolation
  // check must fall back to the unbounded search instead of counting
  // patience ticks.
  world.run_for(3.0 * qp.isolation_patience);
  EXPECT_TRUE(proto->clusters().heads_within(a, qp.qdset_radius).empty());
  EXPECT_EQ(proto->state_of(a).isolation_ticks, 0u);
  EXPECT_EQ(proto->state_of(a).network_id, before);
  EXPECT_TRUE(proto->state_of(a).replicas.count(b));
}

TEST_F(PartitionFixture, ReplicaFloorRecruitsAHeadPastTheRing) {
  init();
  // A(0) - r1 - r2 - B - c1 - c2 - C: B is elected three hops from A and C
  // three hops from B, so A links B and B links C, while A, six hops from
  // C, stays below the replica floor with a QDSet of one.
  const NodeId a = driver->join_at({100, 500});
  world.run_for(5.0);
  driver->join_at({240, 500});
  driver->join_at({380, 500});
  const NodeId b = driver->join_at({520, 500});
  world.run_for(3.0);
  const NodeId c1 = driver->join_at({660, 500});
  driver->join_at({800, 500});
  const NodeId c = driver->join_at({940, 500});
  world.run_for(3.0);
  ASSERT_TRUE(proto->clusters().is_head(b));
  ASSERT_TRUE(proto->clusters().is_head(c));
  ASSERT_EQ(proto->state_of(a).qdset, (std::set<NodeId>{b}));
  ASSERT_LT(proto->state_of(a).qdset.size(), qp.min_qdset);
  ASSERT_EQ(proto->state_of(a).network_id, proto->state_of(c).network_id);

  // C steps beside c1: five hops from A, past the QDSet ring but inside
  // the replica floor's reach of qdset_radius + 2.
  world.topology().move_node(c, {700, 600});
  ASSERT_EQ(world.topology().hop_distance(c, c1), 1u);
  ASSERT_EQ(world.topology().hop_distance(a, c), 5u);
  ASSERT_GT(5u, qp.qdset_radius);
  world.run_for(2.0);
  EXPECT_TRUE(proto->state_of(a).qdset.count(c));
  EXPECT_TRUE(proto->state_of(a).replicas.count(c));
  EXPECT_TRUE(proto->state_of(c).qdset.count(a));
}

TEST_F(PartitionFixture, ForeignHeadIsNoCandidateButEndsIsolation) {
  qp.isolation_patience = 3;
  init();
  // A(0) - r1 - r2 - B: B links A.  F, out of everyone's range, starts a
  // network of its own.
  const NodeId a = driver->join_at({100, 500});
  world.run_for(5.0);
  const NodeId r1 = driver->join_at({240, 500});
  const NodeId r2 = driver->join_at({380, 500});
  const NodeId b = driver->join_at({520, 500});
  world.run_for(3.0);
  const NodeId f = driver->join_at({900, 500});
  world.run_for(6.0);
  ASSERT_TRUE(proto->clusters().is_head(b));
  ASSERT_TRUE(proto->clusters().is_head(f));
  ASSERT_EQ(proto->state_of(b).qdset, (std::set<NodeId>{a}));
  ASSERT_NE(proto->state_of(f).network_id.nonce,
            proto->state_of(b).network_id.nonce);

  // Radios the protocol has not heard from put F three hops from B, inside
  // its QDSet ring, without making two configured nodes of different
  // networks adjacent (merge_scan sees no boundary); then B loses A.
  world.topology().add_node(100, {640, 500});
  world.topology().add_node(101, {770, 500});
  driver->depart_abrupt(r1);
  driver->depart_abrupt(r2);
  ASSERT_EQ(world.topology().hop_distance(b, f), 3u);
  ASSERT_FALSE(world.topology().reachable(a, b));
  const std::uint64_t nonce = proto->state_of(b).network_id.nonce;

  // B is alone in its network and below the replica floor: F is the only
  // head its searches could find, and add_qdset_link refuses it.  F still
  // counts as a reachable head, so B never counts isolation ticks (alone,
  // it would restart within the patience window, as in
  // IsolatedHeadRestartsFreshNetwork).
  world.run_for(3.0 * qp.isolation_patience + 1.0);
  const auto& sb = proto->state_of(b);
  EXPECT_EQ(sb.isolation_ticks, 0u);
  EXPECT_EQ(sb.network_id.nonce, nonce);
  EXPECT_EQ(sb.qdset.count(f), 0u);
  EXPECT_TRUE(sb.replicas.count(a));
  EXPECT_TRUE(proto->state_of(f).qdset.empty());
  EXPECT_EQ(proto->merges_handled(), 0u);
}

TEST_F(PartitionFixture, RefreshTreatsEachNonceGroupOnItsOwn) {
  init();
  // Pool Y: head C and its member D.
  const NodeId c = driver->join_at({100, 900});
  world.run_for(6.0);
  const NodeId d = driver->join_at({240, 900});
  world.run_for(2.0);
  // Pool X: A - r1 - r2 - B plus B's member m.  Cutting r1 and r2 splits
  // it, and the B side's refresh adopts a higher low.
  const NodeId a = driver->join_at({100, 500});
  world.run_for(6.0);
  const NodeId r1 = driver->join_at({240, 500});
  const NodeId r2 = driver->join_at({380, 500});
  const NodeId b = driver->join_at({520, 500});
  world.run_for(3.0);
  const NodeId m = driver->join_at({520, 620});
  world.run_for(2.0);
  driver->depart_abrupt(r1);
  driver->depart_abrupt(r2);
  world.run_for(3.0);

  const NetworkId ida = proto->state_of(a).network_id;
  const NetworkId idb = proto->state_of(b).network_id;
  ASSERT_EQ(ida.nonce, idb.nonce);
  ASSERT_NE(ida.low, idb.low);
  ASSERT_EQ(proto->state_of(m).network_id, idb);
  const NetworkId idd = proto->state_of(d).network_id;
  ASSERT_NE(idd.nonce, ida.nonce);
  ASSERT_EQ(idd.low, *proto->address_of(c));
  const IpAddress d_ip = *proto->address_of(d);
  ASSERT_LT(idd.low, d_ip);

  // Y loses its lowest node, and radios the protocol has not heard from
  // yet join everything into one component without making two configured
  // nodes of different ids adjacent: merge_scan sees no boundary, and the
  // refresh alone decides.
  driver->depart_abrupt(c);
  NodeId relay = 100;
  for (const Point p : {Point{240, 500}, Point{380, 500}, Point{240, 770},
                        Point{240, 640}}) {
    world.topology().add_node(relay++, p);
  }
  ASSERT_TRUE(world.topology().reachable(a, b));
  ASSERT_TRUE(world.topology().reachable(a, d));
  proto->hello_tick();

  // X's lows disagree (a pending heal): both sides keep theirs.
  EXPECT_EQ(proto->state_of(a).network_id, ida);
  EXPECT_EQ(proto->state_of(b).network_id, idb);
  EXPECT_EQ(proto->state_of(m).network_id, idb);
  // Y agrees on a low nobody holds any more: it adopts its lowest IP.
  EXPECT_EQ(proto->state_of(d).network_id, (NetworkId{d_ip, idd.nonce}));
}

TEST_F(PartitionFixture, MergeSparesLosersOutsideTheDetectorsComponent) {
  init(128);
  // Two independent pools, each a head with one member.
  const NodeId a = driver->join_at({100, 500});
  world.run_for(6.0);
  const NodeId xa = driver->join_at({100, 620});
  world.run_for(2.0);
  const NodeId c = driver->join_at({900, 500});
  world.run_for(6.0);
  const NodeId yc = driver->join_at({900, 620});
  world.run_for(2.0);
  const NetworkId na = proto->state_of(a).network_id;
  const NetworkId nc = proto->state_of(c).network_id;
  ASSERT_NE(na.nonce, nc.nonce);
  ASSERT_EQ(proto->state_of(xa).network_id, na);
  ASSERT_EQ(proto->state_of(yc).network_id, nc);
  const NetworkId loser = std::max(na, nc);
  const NodeId loser_head = loser == na ? a : c;
  const NodeId stranded = loser == na ? xa : yc;
  const IpAddress stranded_ip = *proto->address_of(stranded);

  // In one instant both members drift off alone and the heads meet: the
  // next hello tick detects the boundary while the stranded member still
  // carries the loser's id.
  world.topology().move_node(xa, {100, 950});
  world.topology().move_node(yc, {900, 950});
  world.topology().move_node(c, {220, 500});
  const std::uint64_t merges = proto->merges_handled();
  proto->hello_tick();
  ASSERT_EQ(proto->merges_handled(), merges + 1);
  EXPECT_EQ(proto->state_of(loser_head).role, Role::kUnconfigured);
  // The stranded member cannot hear the merge flood: it stays configured.
  const auto& st = proto->state_of(stranded);
  EXPECT_EQ(st.role, Role::kCommonNode);
  EXPECT_EQ(st.ip, stranded_ip);
  EXPECT_EQ(st.network_id.nonce, loser.nonce);
}

TEST_F(PartitionFixture, RefreshAdoptsALowIpHeldPastTheLowestId) {
  init();
  // A(0) - r1 - r2 - B(3): r1 and r2 are A's members, B heads a higher
  // block.  r1 returns 10.0.0.1 and n, entering at r1's spot, gets it back.
  const NodeId a = driver->join_at({100, 500});
  world.run_for(5.0);
  const NodeId r1 = driver->join_at({240, 500});
  const NodeId r2 = driver->join_at({380, 500});
  const NodeId b = driver->join_at({520, 500});
  world.run_for(3.0);
  ASSERT_EQ(proto->state_of(b).role, Role::kClusterHead);
  const IpAddress low = *proto->address_of(r1);
  driver->depart_graceful(r1);
  world.run_for(2.0);
  const NodeId n = driver->join_at({240, 500});
  world.run_for(2.0);
  ASSERT_EQ(proto->address_of(n), low);
  ASSERT_LT(low, *proto->address_of(r2));
  ASSERT_LT(low, *proto->address_of(b));

  // The 10.0.0.0 head leaves: the lowest-id member left (r2) does not hold
  // the component's lowest IP, which n, the highest id, holds.
  ASSERT_EQ(proto->address_of(a), kPoolBase);
  driver->depart_abrupt(a);
  world.run_for(2.0);
  const std::vector<NodeId> component = world.topology().component_of(n);
  ASSERT_EQ(component.front(), r2);
  for (NodeId id : component) {
    ASSERT_TRUE(proto->configured(id)) << "node " << id;
    EXPECT_EQ(proto->state_of(id).network_id.low, low) << "node " << id;
  }
}

}  // namespace
}  // namespace qip
