// Microbenchmarks for quorum-system construction and intersection checking.
#include <benchmark/benchmark.h>

#include <numeric>

#include "quorum/intersection_checker.hpp"
#include "quorum/quorum_policy.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/slices.hpp"

using namespace qip;

static std::vector<std::uint32_t> universe(std::uint32_t n) {
  std::vector<std::uint32_t> u(n);
  std::iota(u.begin(), u.end(), 1u);
  return u;
}

static void BM_MajorityConstruction(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuorumSystem::majority(universe(n)));
  }
}
BENCHMARK(BM_MajorityConstruction)->Arg(5)->Arg(9)->Arg(13);

static void BM_PairwiseIntersection(benchmark::State& state) {
  const auto qs = QuorumSystem::majority(
      universe(static_cast<std::uint32_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(qs.pairwise_intersecting());
  }
}
BENCHMARK(BM_PairwiseIntersection)->Arg(7)->Arg(9);

static void BM_CoversQuorum(benchmark::State& state) {
  const auto qs = QuorumSystem::dynamic_linear(universe(8), 1);
  const QuorumSet probe{1, 3, 5, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(qs.covers_quorum(probe));
  }
}
BENCHMARK(BM_CoversQuorum);

static void BM_QuorumThreshold(benchmark::State& state) {
  // The engine's per-tally rule; g walks all 32 (size, distinguished)
  // pairs: sizes 1..16, then the bit.
  const auto backend = static_cast<QuorumBackend>(state.range(0));
  std::uint32_t g = 0;
  for (auto _ : state) {
    const std::uint32_t size = 1 + g % 16;
    const bool distinguished = (g / 16) % 2 != 0;
    ++g;
    benchmark::DoNotOptimize(quorum_threshold(backend, size, distinguished));
  }
}
BENCHMARK(BM_QuorumThreshold)->Arg(0)->Arg(1);

static void BM_SlicesIsQuorum(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const SliceConfig cfg = SliceConfig::flat_majority(universe(n));
  const auto probe = universe(n / 2 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cfg.is_quorum(probe));
  }
}
BENCHMARK(BM_SlicesIsQuorum)->Arg(6)->Arg(12);

static void BM_FromSlices(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto u = universe(n);
  const SliceConfig cfg = SliceConfig::flat_majority(u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuorumSystem::from_slices(cfg, u));
  }
}
BENCHMARK(BM_FromSlices)->Arg(6)->Arg(10);

static void BM_CheckerExhaustive(benchmark::State& state) {
  const auto backend = static_cast<QuorumBackend>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_intersection_exhaustive(backend, 6));
  }
}
BENCHMARK(BM_CheckerExhaustive)->Arg(0)->Arg(1);

static void BM_CheckerRandom(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_intersection_random(
        QuorumBackend::kDynamicLinear, 14, 0x5eed, 16));
  }
}
BENCHMARK(BM_CheckerRandom);

BENCHMARK_MAIN();
