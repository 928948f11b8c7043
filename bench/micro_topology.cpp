// Microbenchmarks for the unit-disk topology: neighbor queries and BFS
// routing dominate simulation time.
//
// The static cases query a fixed graph; the *Churn cases run the
// epoch-versioned TopologyCache under the simulator's real access pattern —
// one node moves, then the graph is queried — which is what the hot path
// sees (components for the auditor, BFS for routing/floods).
#include <benchmark/benchmark.h>

#include "net/topology.hpp"
#include "util/rng.hpp"

using namespace qip;

namespace {

Topology make_topology(std::uint32_t n, double range, Rng& rng) {
  Topology topo(Rect{1000.0, 1000.0}, range);
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
BENCHMARK(BM_HopDistance)->Arg(100)->Arg(200);

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
BENCHMARK(BM_KHopChurn)->Arg(200);

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
