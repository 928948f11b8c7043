// Microbenchmarks for the unit-disk topology: neighbor queries and BFS
// routing dominate simulation time.
//
// The static cases query a fixed graph; the *Churn cases run the
// epoch-versioned TopologyCache under the simulator's real access pattern —
// one node moves, then the graph is queried — which is what the hot path
// sees (components for the auditor, BFS for routing/floods).
#include <benchmark/benchmark.h>

#include <cmath>

#include "cluster/cluster_view.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

using namespace qip;

namespace {

/// Side of a square field holding `n` nodes at the city's constant density
/// (~9 expected neighbors, the area formula of qip-benchmark and fig_metro).
double city_side(std::uint32_t n, double range) {
  return std::sqrt(n * 3.14159265358979 * range * range / 9.0);
}

/// The paper's 1 km^2 field up to its 400 nodes.  Larger arms grow the
/// field at the city's density, so their per-query cost reads against n,
/// not against a denser graph.
double field_side(std::uint32_t n, double range) {
  return n <= 400 ? 1000.0 : city_side(n, range);
}

Topology make_topology(std::uint32_t n, double range, Rng& rng) {
  const double side = field_side(n, range);
  Topology topo(Rect{side, side}, range);
  for (std::uint32_t i = 0; i < n; ++i)
    topo.add_node(i, topo.area().sample(rng));
  return topo;
}

}  // namespace

static void BM_Neighbors(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Topology topo = make_topology(n, 150.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.neighbors(i++ % n));
  }
}
BENCHMARK(BM_Neighbors)->Arg(100)->Arg(200)->Arg(400);

static void BM_HopDistance(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Topology topo = make_topology(n, 150.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.hop_distance(i % n, (i * 7 + 3) % n));
    ++i;
  }
}
BENCHMARK(BM_HopDistance)->Arg(100)->Arg(200)->Arg(4000);

static void BM_Reachable(benchmark::State& state) {
  // BM_HopDistance's pairs, asking only "connected?": the QDSet liveness
  // check of every hello scan.
  Rng rng(6);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Topology topo = make_topology(n, 150.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.reachable(i % n, (i * 7 + 3) % n));
    ++i;
  }
}
BENCHMARK(BM_Reachable)->Arg(200)->Arg(4000);

static void BM_RingQuery(benchmark::State& state) {
  // A 3-hop for_each_within on a current snapshot: the bounded search under
  // heads_within and nearest_head.
  Rng rng(9);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Topology topo = make_topology(n, 150.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    std::uint32_t seen = 0;
    topo.for_each_within(i++ % n, 3, [&](NodeId, std::uint32_t) { ++seen; });
    benchmark::DoNotOptimize(seen);
  }
}
BENCHMARK(BM_RingQuery)->Arg(200)->Arg(4000);

static void BM_HeadsWithin(benchmark::State& state) {
  // ClusterView::heads_within at radius 3, the QDSet ring every head
  // searches each hello tick, at city density for both sizes, with about
  // one node in eight a head.  Every node the BFS visits costs a role test.
  Rng rng(10);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double side = city_side(n, 150.0);
  Topology topo(Rect{side, side}, 150.0);
  ClusterView view(topo);
  for (std::uint32_t i = 0; i < n; ++i) {
    topo.add_node(i, topo.area().sample(rng));
    if (rng.chance(1.0 / 8.0)) view.set_head(i);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.heads_within(i++ % n, 3));
  }
}
BENCHMARK(BM_HeadsWithin)->Arg(200)->Arg(4000);

static void BM_Components(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Topology topo = make_topology(n, 120.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.components());
  }
}
BENCHMARK(BM_Components)->Arg(200);

static void BM_KHopNeighbors(benchmark::State& state) {
  Rng rng(8);
  Topology topo = make_topology(200, 150.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topo.k_hop_neighbors(i++ % 200,
                             static_cast<std::uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_KHopNeighbors)->Arg(2)->Arg(3);

// ---------------------------------------------------------------------------
// Churn: one random-waypoint style move per iteration, then the query — the
// UniquenessAuditor / mobility-tick pattern.  arg = node count.
// ---------------------------------------------------------------------------

static void BM_ComponentsChurn(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Topology topo = make_topology(n, 120.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    topo.move_node(i++ % n, topo.area().sample(rng));
    benchmark::DoNotOptimize(topo.components_view());
  }
}
BENCHMARK(BM_ComponentsChurn)->Arg(200)->Arg(400);

static void BM_BfsSweepChurn(benchmark::State& state) {
  // Full-source BFS (hop_distances_from) after a move: the nearest-server
  // scan every baseline runs on arrival.
  Rng rng(6);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Topology topo = make_topology(n, 150.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    topo.move_node(i % n, topo.area().sample(rng));
    std::uint64_t sum = 0;
    topo.for_each_reachable((i * 13 + 1) % n,
                            [&](NodeId, std::uint32_t d) { sum += d; });
    benchmark::DoNotOptimize(sum);
    ++i;
  }
}
BENCHMARK(BM_BfsSweepChurn)->Arg(200);

static void BM_KHopChurn(benchmark::State& state) {
  // 3-hop neighborhood (QIP's QDSet discovery radius) after a move.
  Rng rng(8);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Topology topo = make_topology(n, 150.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    topo.move_node(i % n, topo.area().sample(rng));
    benchmark::DoNotOptimize(topo.k_hop_view((i * 7 + 3) % n, 3));
    ++i;
  }
}
BENCHMARK(BM_KHopChurn)->Arg(200)->Arg(4000);

static void BM_AuditProbeSteadyState(benchmark::State& state) {
  // The auditor's favourable case: probes fire between movement steps, so
  // the epoch is unchanged and the partition is served from cache.
  Rng rng(7);
  Topology topo = make_topology(200, 120.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.components_view());
  }
}
BENCHMARK(BM_AuditProbeSteadyState);

BENCHMARK_MAIN();
