// Unit tests for topology, transport metering and traffic stats, plus the
// differential suite pinning the epoch-versioned topology cache to a
// brute-force oracle (ctest -L net).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "geom/point.hpp"
#include "net/metrics.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qip {
namespace {

/// A 5-node chain: 0 - 1 - 2 - 3 - 4, 100 m apart, range 120 m.
Topology chain_topology() {
  Topology topo(Rect{1000.0, 1000.0}, 120.0);
  for (std::uint32_t i = 0; i < 5; ++i) {
    topo.add_node(i, {100.0 * i, 0.0});
  }
  return topo;
}

TEST(Topology, NeighborsOnChain) {
  auto topo = chain_topology();
  EXPECT_EQ(topo.neighbors(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(topo.neighbors(2), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(topo.neighbors(4), (std::vector<NodeId>{3}));
}

TEST(Topology, HopDistances) {
  auto topo = chain_topology();
  EXPECT_EQ(topo.hop_distance(0, 0), 0u);
  EXPECT_EQ(topo.hop_distance(0, 1), 1u);
  EXPECT_EQ(topo.hop_distance(0, 4), 4u);
  EXPECT_EQ(topo.hop_distance(4, 0), 4u);
}

TEST(Topology, UnreachableAcrossGap) {
  auto topo = chain_topology();
  topo.add_node(99, {900.0, 900.0});
  EXPECT_FALSE(topo.hop_distance(0, 99).has_value());
  EXPECT_FALSE(topo.reachable(99, 4));
}

TEST(Topology, KHopNeighbors) {
  auto topo = chain_topology();
  const auto two = topo.k_hop_neighbors(0, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (std::pair<NodeId, std::uint32_t>{1, 1}));
  EXPECT_EQ(two[1], (std::pair<NodeId, std::uint32_t>{2, 2}));
}

TEST(Topology, Components) {
  auto topo = chain_topology();
  topo.add_node(10, {800.0, 800.0});
  topo.add_node(11, {850.0, 800.0});
  const auto comps = topo.components();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{10, 11}));
}

TEST(Topology, Eccentricity) {
  auto topo = chain_topology();
  EXPECT_EQ(topo.eccentricity(0), 4u);
  EXPECT_EQ(topo.eccentricity(2), 2u);
}

TEST(Topology, MoveChangesConnectivity) {
  auto topo = chain_topology();
  topo.move_node(4, {0.0, 100.0});  // now adjacent to 0
  EXPECT_EQ(topo.hop_distance(0, 4), 1u);
}

TEST(Topology, Covered) {
  auto topo = chain_topology();
  EXPECT_TRUE(topo.covered({50.0, 0.0}));
  EXPECT_FALSE(topo.covered({900.0, 900.0}));
}

TEST(Topology, OutOfAreaThrows) {
  auto topo = chain_topology();
  EXPECT_THROW(topo.add_node(50, {-1.0, 0.0}), InvariantViolation);
  EXPECT_THROW(topo.move_node(0, {2000.0, 0.0}), InvariantViolation);
}

TEST(Topology, CoincidentAndAdjacentNodes) {
  // Regression for the early-exit BFS in hop_distance: nodes at distance 0
  // (coincident) or exactly at the range boundary are ordinary one-hop
  // neighbors, never self-loops, and distances stay symmetric and exact.
  Topology topo(Rect{1000.0, 1000.0}, 120.0);
  topo.add_node(0, {100.0, 100.0});
  topo.add_node(1, {100.0, 100.0});  // coincident with 0
  topo.add_node(2, {220.0, 100.0});  // exactly range away from both
  EXPECT_EQ(topo.hop_distance(0, 0), 0u);
  EXPECT_EQ(topo.hop_distance(0, 1), 1u);
  EXPECT_EQ(topo.hop_distance(1, 0), 1u);
  EXPECT_EQ(topo.hop_distance(0, 2), 1u);  // boundary d == range connects
  EXPECT_EQ(topo.hop_distance(1, 2), 1u);
  EXPECT_EQ(topo.neighbors(0), (std::vector<NodeId>{1, 2}));
  const auto hops = topo.k_hop_neighbors(0, 2);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], (std::pair<NodeId, std::uint32_t>{1, 1}));
  EXPECT_EQ(hops[1], (std::pair<NodeId, std::uint32_t>{2, 1}));
}

TEST(Topology, EpochAdvancesWithMutations) {
  auto topo = chain_topology();
  const auto e0 = topo.epoch();
  (void)topo.components();  // queries never bump the epoch
  EXPECT_EQ(topo.epoch(), e0);
  topo.move_node(0, {1.0, 1.0});
  EXPECT_GT(topo.epoch(), e0);
}

TEST(Topology, CacheReactsToMutations) {
  // The memoized answers must track every kind of mutation, including ones
  // interleaved with queries (lazy rebuild, per-node invalidation).
  auto topo = chain_topology();
  EXPECT_EQ(topo.components().size(), 1u);
  EXPECT_EQ(topo.neighbors(0), (std::vector<NodeId>{1}));
  topo.move_node(4, {0.0, 100.0});  // now adjacent to 0 (and still to 3? no)
  EXPECT_EQ(topo.neighbors(0), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(topo.hop_distance(0, 4), 1u);
  topo.remove_node(2);  // splits the chain: {0,1,4} vs {3}
  const auto comps = topo.components();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1, 4}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{3}));
  topo.add_node(2, {200.0, 0.0});  // heals it
  EXPECT_EQ(topo.components().size(), 1u);
  EXPECT_EQ(topo.k_hop_neighbors(4, 2),
            (std::vector<std::pair<NodeId, std::uint32_t>>{{0, 1}, {1, 2}}));
}

// ---------------------------------------------------------------------------
// Differential: cached topology vs. brute-force oracle under mobility
// ---------------------------------------------------------------------------

using OracleMap = std::map<NodeId, Point>;
using HopList = std::vector<std::pair<NodeId, std::uint32_t>>;

std::vector<NodeId> oracle_neighbors(const OracleMap& pts, NodeId id,
                                     double range) {
  std::vector<NodeId> out;
  const Point& p = pts.at(id);
  for (const auto& [n, q] : pts) {
    if (n != id && distance_sq(p, q) <= range * range) out.push_back(n);
  }
  return out;  // std::map iteration is already id-sorted
}

std::vector<std::vector<NodeId>> oracle_components(const OracleMap& pts,
                                                   double range) {
  std::vector<std::vector<NodeId>> out;
  std::map<NodeId, bool> seen;
  for (const auto& [id, p] : pts) {
    if (seen[id]) continue;
    std::vector<NodeId> comp{id};
    seen[id] = true;
    for (std::size_t head = 0; head < comp.size(); ++head) {
      for (NodeId nb : oracle_neighbors(pts, comp[head], range)) {
        if (!seen[nb]) {
          seen[nb] = true;
          comp.push_back(nb);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    out.push_back(comp);
  }
  return out;
}

/// Sorted-neighbour BFS from `from`, at most `max_depth` hops deep: every
/// reached node with its hop count in discovery order, `from` first at hop
/// 0.  Topology's BFS queries must reproduce this order exactly, because
/// protocol tie-breaks observe it.
HopList oracle_bfs(const OracleMap& pts, NodeId from, double range,
                   std::uint32_t max_depth = TopologyCache::kUnreached) {
  HopList order{{from, 0}};
  std::set<NodeId> seen{from};
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto [u, d] = order[head];
    if (d == max_depth) continue;
    for (NodeId v : oracle_neighbors(pts, u, range)) {
      if (seen.insert(v).second) order.emplace_back(v, d + 1);
    }
  }
  return order;
}

HopList oracle_k_hop(const OracleMap& pts, NodeId id, std::uint32_t k,
                     double range) {
  HopList out = oracle_bfs(pts, id, range, k);
  out.erase(out.begin());  // k_hop_neighbors excludes `id` itself
  std::sort(out.begin(), out.end());
  return out;
}

HopList topo_bfs(const Topology& topo, NodeId from) {
  HopList order;
  topo.for_each_reachable(
      from, [&](NodeId n, std::uint32_t d) { order.emplace_back(n, d); });
  return order;
}

/// Checks reachable() against "same oracle component" on sampled pairs, a
/// node paired with itself and, when the oracle graph is split, one pair
/// from different components (counted in `split_pairs`).
void check_reachable(const Topology& topo,
                     const std::vector<std::vector<NodeId>>& comps, Rng& rng,
                     int* split_pairs) {
  std::map<NodeId, std::size_t> comp_of;
  std::vector<NodeId> all;
  for (std::size_t c = 0; c < comps.size(); ++c) {
    for (NodeId n : comps[c]) {
      comp_of[n] = c;
      all.push_back(n);
    }
  }
  for (int probe = 0; probe < 4; ++probe) {
    const NodeId a = all[rng.index(all.size())];
    const NodeId b = all[rng.index(all.size())];
    ASSERT_EQ(topo.reachable(a, b), comp_of[a] == comp_of[b])
        << "pair " << a << ", " << b;
    ASSERT_TRUE(topo.reachable(a, a)) << "node " << a;
  }
  if (comps.size() < 2) return;
  ASSERT_FALSE(topo.reachable(comps.front().front(), comps.back().back()));
  ASSERT_FALSE(topo.reachable(comps.back().back(), comps.front().front()));
  ++*split_pairs;
}

TEST(TopologyDifferential, MatchesOracleUnderMobilityTrace) {
  // A random-waypoint trace with churn (adds/removes), checked after every
  // movement step against an O(n^2) oracle — including BFS discovery order
  // and the hop-distance map's iteration order, which protocol tie-breaks
  // can observe.
  const double range = 180.0;
  const Rect area{1000.0, 1000.0};
  Rng rng(0xd1ff);
  Rng pair_rng(0x9a1f);  // reachability probes; leaves the trace unchanged
  int split_pairs = 0;
  Topology topo(area, range);
  OracleMap pts;
  std::map<NodeId, Point> dest;
  NodeId next_id = 0;

  const auto add = [&](const Point& p) {
    topo.add_node(next_id, p);
    pts[next_id] = p;
    dest[next_id] = area.sample(rng);
    ++next_id;
  };
  for (int i = 0; i < 40; ++i) add(area.sample(rng));

  for (int step = 0; step < 60; ++step) {
    // Random-waypoint tick: 20 m/s, 1 s steps, new destination on arrival.
    for (auto& [id, p] : pts) {
      if (p == dest[id]) dest[id] = area.sample(rng);
      p = advance(p, dest[id], 20.0);
      topo.move_node(id, p);
    }
    // Churn: occasional arrival or abrupt departure.
    if (rng.chance(0.2)) {
      add(area.sample(rng));
    } else if (rng.chance(0.2) && pts.size() > 10) {
      auto victim = std::next(pts.begin(),
                              static_cast<std::ptrdiff_t>(
                                  rng.index(pts.size())));
      topo.remove_node(victim->first);
      dest.erase(victim->first);
      pts.erase(victim);
    }

    // Every node's adjacency, every step.
    for (const auto& [id, p] : pts) {
      ASSERT_EQ(topo.neighbors_view(id), oracle_neighbors(pts, id, range))
          << "step " << step << " node " << id;
    }
    // The components partition, every step, and reachability read off it.
    const auto comps = oracle_components(pts, range);
    ASSERT_EQ(topo.components_view(), comps) << "step " << step;
    SCOPED_TRACE(step);
    ASSERT_NO_FATAL_FAILURE(
        check_reachable(topo, comps, pair_rng, &split_pairs));
    // Sampled BFS queries against one oracle BFS per probe.
    for (int probe = 0; probe < 3; ++probe) {
      const NodeId a =
          std::next(pts.begin(),
                    static_cast<std::ptrdiff_t>(rng.index(pts.size())))
              ->first;
      const NodeId b =
          std::next(pts.begin(),
                    static_cast<std::ptrdiff_t>(rng.index(pts.size())))
              ->first;
      const auto k = static_cast<std::uint32_t>(1 + rng.index(3));
      ASSERT_EQ(topo.k_hop_neighbors(a, k), oracle_k_hop(pts, a, k, range))
          << "step " << step << " node " << a << " k " << k;
      const HopList order = oracle_bfs(pts, a, range);
      ASSERT_EQ(topo_bfs(topo, a), order)
          << "BFS discovery order diverged at step " << step;
      HopList within;
      topo.for_each_within(
          a, k, [&](NodeId n, std::uint32_t d) { within.emplace_back(n, d); });
      ASSERT_EQ(within, oracle_bfs(pts, a, range, k));

      std::optional<std::uint32_t> a_to_b;
      std::vector<NodeId> component;
      // Built by emplacing in oracle discovery order: the same insertion
      // sequence gives the same iteration order.
      std::unordered_map<NodeId, std::uint32_t> dist;
      for (const auto& [n, d] : order) {
        if (n == b) a_to_b = d;
        component.push_back(n);
        dist.emplace(n, d);
      }
      std::sort(component.begin(), component.end());
      ASSERT_EQ(topo.hop_distance(a, b), a_to_b);
      ASSERT_EQ(topo.component_of(a), component);
      ASSERT_EQ(topo.eccentricity(a), order.back().second);
      const auto got = topo.hop_distances_from(a);
      // Not just equal as sets: identical iteration order.
      ASSERT_EQ(HopList(got.begin(), got.end()), HopList(dist.begin(), dist.end()))
          << "iteration order diverged at step " << step;
    }
  }
  EXPECT_GT(split_pairs, 0);
}

/// 10k churn steps (adds, removes — including burst departures that sever
/// paths through the removed nodes — and random-waypoint moves by the nodes
/// `moves(step, id)` selects) against the O(n^2) oracle.  Components are
/// compared exactly every step; adjacency, k-hop sets, BFS discovery order
/// and reachability are sampled.
template <typename Moves>
void run_long_churn(Topology& topo, Moves moves) {
  const double range = topo.range();
  const Rect area = topo.area();
  Rng rng(0x10c4);
  Rng pair_rng(0x10c5);
  int split_pairs = 0;
  OracleMap pts;
  std::map<NodeId, Point> dest;
  NodeId next_id = 0;

  const auto add = [&](const Point& p) {
    topo.add_node(next_id, p);
    pts[next_id] = p;
    dest[next_id] = area.sample(rng);
    ++next_id;
  };
  const auto remove = [&](NodeId id) {
    topo.remove_node(id);
    dest.erase(id);
    pts.erase(id);
  };
  const auto random_id = [&] {
    return std::next(pts.begin(),
                     static_cast<std::ptrdiff_t>(rng.index(pts.size())))
        ->first;
  };
  for (int i = 0; i < 48; ++i) add(area.sample(rng));

  for (int step = 0; step < 10000; ++step) {
    for (auto& [id, p] : pts) {
      if (!moves(step, id)) continue;
      if (p == dest[id]) dest[id] = area.sample(rng);
      p = advance(p, dest[id], 20.0);
      topo.move_node(id, p);
    }
    if (rng.chance(0.15)) add(area.sample(rng));
    if (rng.chance(0.15) && pts.size() > 16) remove(random_id());
    if (rng.chance(0.01)) {
      // Burst departure: severing several nodes at once exercises the
      // repair's transitive-split detection (fragments that were only
      // connected through the departed nodes).
      for (int i = 0; i < 6 && pts.size() > 16; ++i) remove(random_id());
    }

    // Exact components vs the oracle, every step.
    const auto comps = oracle_components(pts, range);
    ASSERT_EQ(topo.components_view(), comps) << "step " << step;

    // Sampled adjacency, k-hop sets, BFS discovery order and reachability.
    const NodeId a = random_id();
    ASSERT_EQ(topo.neighbors(a), oracle_neighbors(pts, a, range))
        << "step " << step << " node " << a;
    const auto k = static_cast<std::uint32_t>(1 + rng.index(3));
    ASSERT_EQ(topo.k_hop_neighbors(a, k), oracle_k_hop(pts, a, k, range))
        << "step " << step << " node " << a << " k " << k;
    ASSERT_EQ(topo_bfs(topo, a), oracle_bfs(pts, a, range))
        << "BFS discovery order diverged at step " << step;
    SCOPED_TRACE(step);
    ASSERT_NO_FATAL_FAILURE(
        check_reachable(topo, comps, pair_rng, &split_pairs));
  }
  EXPECT_GT(split_pairs, 0);
}

TEST(TopologyDifferential, IncrementalMatchesOracleOverLongChurn) {
  // The long-haul guard for the incremental CSR patch + components repair
  // (docs/SCALE.md).  Each node takes a waypoint step every 8th step, so a
  // step journals well under a quarter of the snapshot and is patched.
  Topology topo(Rect{1000.0, 1000.0}, 180.0);
  ASSERT_NO_FATAL_FAILURE(run_long_churn(topo, [](int step, NodeId id) {
    return (id + static_cast<NodeId>(step)) % 8 == 0;
  }));
  // The incremental path must actually have been exercised: patches should
  // dwarf full rebuilds over 10k steps.
  EXPECT_GT(topo.csr_incremental_patches(), topo.csr_full_rebuilds());
  EXPECT_GT(topo.component_repairs(), 0u);
}

TEST(TopologyDifferential, MassMovementRebuildsAndMatchesOracle) {
  // Every node moves every step: the journal overflows its quarter-of-the-
  // snapshot cap each time, so every step takes the rebuild path.
  Topology topo(Rect{1000.0, 1000.0}, 180.0);
  ASSERT_NO_FATAL_FAILURE(
      run_long_churn(topo, [](int, NodeId) { return true; }));
  EXPECT_EQ(topo.csr_incremental_patches(), 0u);
  EXPECT_EQ(topo.csr_full_rebuilds(), 10000u);
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

struct TransportFixture : ::testing::Test {
  Simulator sim;
  Topology topo = chain_topology();
  MessageStats stats;
  Transport transport{sim, topo, stats, 0.01};
};

TEST_F(TransportFixture, UnicastChargesPathHops) {
  bool delivered = false;
  const auto hops =
      transport.unicast(0, 4, Traffic::kConfiguration,
                        [&](NodeId to, std::uint32_t h) {
                          delivered = true;
                          EXPECT_EQ(to, 4u);
                          EXPECT_EQ(h, 4u);
                        });
  ASSERT_TRUE(hops.has_value());
  EXPECT_EQ(*hops, 4u);
  EXPECT_FALSE(delivered);  // not before the latency elapses
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim.now(), 0.04);
  EXPECT_EQ(stats.of(Traffic::kConfiguration).hops, 4u);
  EXPECT_EQ(stats.of(Traffic::kConfiguration).messages, 1u);
}

TEST_F(TransportFixture, UnicastUnreachableChargesNothing) {
  topo.add_node(99, {900.0, 900.0});
  const auto hops = transport.unicast(0, 99, Traffic::kDeparture,
                                      [](NodeId, std::uint32_t) {
                                        FAIL() << "must not deliver";
                                      });
  EXPECT_FALSE(hops.has_value());
  EXPECT_EQ(stats.total_hops(), 0u);
}

TEST_F(TransportFixture, DeliverySkippedIfReceiverDeparted) {
  bool delivered = false;
  EXPECT_EQ(stats.dropped_in_flight(), 0u);
  transport.unicast(0, 2, Traffic::kConfiguration,
                    [&](NodeId, std::uint32_t) { delivered = true; });
  topo.remove_node(2);
  sim.run();
  EXPECT_FALSE(delivered);
  // The hops were still charged — the radio transmitted — and the silent
  // loss is tallied instead of vanishing.
  EXPECT_EQ(stats.of(Traffic::kConfiguration).hops, 2u);
  EXPECT_EQ(stats.dropped_in_flight(), 1u);
}

TEST_F(TransportFixture, LocalBroadcastReachesNeighborsOnly) {
  std::vector<NodeId> heard;
  const auto reached = transport.local_broadcast(
      2, Traffic::kHello,
      [&](NodeId n, std::uint32_t h) {
        heard.push_back(n);
        EXPECT_EQ(h, 1u);
      });
  EXPECT_EQ(reached, (std::vector<NodeId>{1, 3}));
  sim.run();
  EXPECT_EQ(heard.size(), 2u);
  EXPECT_EQ(stats.of(Traffic::kHello).hops, 1u);  // one transmission
}

TEST_F(TransportFixture, ScopedFloodCostAndReach) {
  std::vector<std::pair<NodeId, std::uint32_t>> got;
  const auto reached = transport.flood(
      0, 2, Traffic::kReclamation,
      [&](NodeId n, std::uint32_t h) { got.emplace_back(n, h); });
  EXPECT_EQ(reached, (std::vector<NodeId>{1, 2}));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<NodeId, std::uint32_t>{1, 1}));
  EXPECT_EQ(got[1], (std::pair<NodeId, std::uint32_t>{2, 2}));
  // Transmissions: sender + the radius-1 relay (node 1).
  EXPECT_EQ(stats.of(Traffic::kReclamation).hops, 2u);
}

TEST_F(TransportFixture, ComponentFloodCoversComponent) {
  std::vector<NodeId> got;
  const auto reached = transport.flood_component(
      2, Traffic::kPartition,
      [&](NodeId n, std::uint32_t) { got.push_back(n); });
  EXPECT_EQ(reached.size(), 4u);
  sim.run();
  EXPECT_EQ(got.size(), 4u);
  // Everyone except the two chain endpoints relays; cost is bounded by the
  // component size.
  EXPECT_GE(stats.of(Traffic::kPartition).hops, 3u);
  EXPECT_LE(stats.of(Traffic::kPartition).hops, 5u);
}

TEST_F(TransportFixture, IsolatedFloodChargesOneTransmission) {
  topo.add_node(99, {900.0, 900.0});
  const auto reached =
      transport.flood_component(99, Traffic::kPartition,
                                [](NodeId, std::uint32_t) {});
  EXPECT_TRUE(reached.empty());
  EXPECT_EQ(stats.of(Traffic::kPartition).hops, 1u);
}

TEST(TransportDifferential, ComponentFloodMatchesScopedFloodAtEccentricity) {
  // flood_component(from) must behave exactly like flood(from,
  // eccentricity(from)): the same reached list, the same (node, hops)
  // deliveries in the same order, the same charge in every category.  The
  // far node is isolated: it has no scoped-flood twin (radius 0) and still
  // pays one futile transmission.
  struct Outcome {
    std::vector<NodeId> reached;
    HopList delivered;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> charges;
  };
  const auto run = [](Topology& topo, const auto& send) {
    Simulator sim;
    MessageStats stats;
    Transport transport(sim, topo, stats, 0.01);
    Outcome out;
    out.reached = send(transport, [&out](NodeId n, std::uint32_t h) {
      out.delivered.emplace_back(n, h);
    });
    sim.run();
    for (std::size_t t = 0; t < static_cast<std::size_t>(Traffic::kCount);
         ++t) {
      const auto& c = stats.of(static_cast<Traffic>(t));
      out.charges.emplace_back(c.messages, c.hops);
    }
    return out;
  };
  Rng rng(0xf100d);
  for (int trial = 0; trial < 6; ++trial) {
    Topology topo(Rect{1200.0, 1000.0}, 150.0);
    const auto n = static_cast<NodeId>(30 + 6 * trial);
    for (NodeId i = 0; i < n; ++i) {
      topo.add_node(i, {rng.uniform(0.0, 800.0), rng.uniform(0.0, 1000.0)});
    }
    topo.add_node(n, {1150.0, 500.0});  // beyond range of x <= 800
    for (NodeId from = 0; from <= n; ++from) {
      const Outcome got = run(topo, [&](Transport& tr, auto rx) {
        return tr.flood_component(from, Traffic::kPartition, rx);
      });
      if (topo.component_view(from).size() == 1) {
        EXPECT_TRUE(got.reached.empty());
        EXPECT_TRUE(got.delivered.empty());
        // (messages, hops): one message, one transmission.
        EXPECT_EQ(got.charges[static_cast<std::size_t>(Traffic::kPartition)],
                  (std::pair<std::uint64_t, std::uint64_t>{1, 1}))
            << "isolated sender " << from;
        continue;
      }
      const std::uint32_t ecc = topo.eccentricity(from);
      const Outcome want = run(topo, [&](Transport& tr, auto rx) {
        return tr.flood(from, ecc, Traffic::kPartition, rx);
      });
      ASSERT_EQ(got.reached, want.reached) << "trial " << trial << " from "
                                           << from;
      ASSERT_EQ(got.delivered, want.delivered) << "trial " << trial
                                               << " from " << from;
      ASSERT_EQ(got.charges, want.charges) << "trial " << trial << " from "
                                           << from;
    }
  }
}

// ---------------------------------------------------------------------------
// MessageStats
// ---------------------------------------------------------------------------

TEST(MessageStats, CategoriesIndependent) {
  MessageStats s;
  s.record(Traffic::kConfiguration, 5);
  s.record(Traffic::kHello, 7, 7);
  s.record(Traffic::kDeparture, 2, 2);
  EXPECT_EQ(s.of(Traffic::kConfiguration).hops, 5u);
  EXPECT_EQ(s.of(Traffic::kHello).messages, 7u);
  EXPECT_EQ(s.total_hops(), 14u);
  EXPECT_EQ(s.protocol_hops(), 7u);  // hello excluded
  s.reset();
  EXPECT_EQ(s.total_hops(), 0u);
}

TEST(MessageStats, ToStringListsNonZero) {
  MessageStats s;
  s.record(Traffic::kMovement, 3);
  const std::string out = s.to_string();
  EXPECT_NE(out.find("movement"), std::string::npos);
  EXPECT_EQ(out.find("departure"), std::string::npos);
}

}  // namespace
}  // namespace qip
