// Microbenchmarks for the discrete-event core (the calendar queue — see
// docs/SIMULATOR.md).
//
// The headline case is BM_Churn: the classic hold model at 10^4–10^6
// pending events (pop the minimum, reschedule it one mean-gap ahead), which
// is what a metropolis-scale run looks like to the scheduler.  The bench
// counts global operator new calls inside the timed region and reports them
// as the `allocs_per_op` counter; steady-state churn must be allocation-free,
// and the committed BENCH_event_queue.json is gated on that plus O(1)
// scaling: a 10^6-pending batch may take at most 2x a 10^4-pending batch
// (tools/check_bench_json.cmake, KIND=event_queue).
//
// Regenerate the baseline with
//   bench/micro_event_queue --benchmark_out=BENCH_event_queue.json
//                           --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <vector>

#include "alloc_counter.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace qip;

namespace {

// ---------------------------------------------------------------------------
// Hold-model churn: n pending events, every op pops the minimum and
// reschedules it a mean gap of 1.0 ahead, so the pending-set size and time
// spread are stationary.  Deterministic (fixed seed, fixed iteration count)
// so the committed baseline is reproducible.
constexpr std::size_t kChurnBatch = 10000;

void BM_Churn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  EventQueue q;
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    q.post(rng.uniform(0.0, static_cast<double>(n)), [] {});
  }
  // The hold model's stationary distribution only emerges once the uniform
  // prefill has drained — a full turnover of the pending set.  Without this
  // the timed region at 10^6 pending events measures the transition (and
  // the calendar's distribution-shift resizes), not steady state.
  for (std::size_t i = 0; i < n; ++i) {
    auto fired = q.pop();
    q.post(fired.time + rng.uniform(0.0, 2.0), [] {});
  }
  // Then warm until internal capacities (slab, calendar node pool, service
  // vector) plateau: the steady state the acceptance gate measures begins when
  // one full batch completes without a single allocation.
  for (int tries = 0; tries < 1000; ++tries) {
    const std::uint64_t before = allocs_now();
    for (std::size_t i = 0; i < kChurnBatch; ++i) {
      auto fired = q.pop();
      q.post(fired.time + rng.uniform(0.0, 2.0), [] {});
    }
    if (allocs_now() == before) break;
  }
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocs_now();
    for (std::size_t i = 0; i < kChurnBatch; ++i) {
      auto fired = q.pop();
      q.post(fired.time + rng.uniform(0.0, 2.0), [] {});
    }
    allocs += allocs_now() - before;
    ops += kChurnBatch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops);
  state.counters["pending"] = static_cast<double>(n);
}

// Ramp-and-drain: schedule n events, then pop them all.  Covers the resize
// path of the calendar (the churn case never resizes).
void BM_ScheduleDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    EventQueue q;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(rng.uniform(0.0, 100.0), [&acc] { ++acc; });
    }
    while (!q.empty()) q.pop().fn();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// Cancellation-heavy load: the retransmit-timer pattern under PR 1's fault
// plans — most timers die before firing.  Exercises eager callable release
// plus lazy tombstone skimming.
void BM_CancelHeavy(benchmark::State& state) {
  Rng rng(4);
  std::vector<EventHandle> handles;
  handles.reserve(4096);
  for (auto _ : state) {
    EventQueue q;
    handles.clear();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < 4096; ++i) {
      handles.push_back(
          q.schedule(rng.uniform(0.0, 10.0), [&acc] { ++acc; }));
    }
    // Cancel three quarters.
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (i % 4 != 0) handles[i].cancel();
    }
    while (!q.empty()) q.pop().fn();
    benchmark::DoNotOptimize(acc);
  }
}

// Self-rescheduling timer through the full Simulator: the hello/maintenance
// pattern.  The capture is a couple of pointers, so it stays in EventFn's
// inline buffer.
void BM_TimerChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t ticks = 0;
    struct Tick {
      Simulator* sim;
      std::uint64_t* ticks;
      void operator()() const {
        if (++*ticks < 10000) sim->after(1.0, Tick{sim, ticks});
      }
    };
    sim.after(1.0, Tick{&sim, &ticks});
    sim.run();
    benchmark::DoNotOptimize(ticks);
  }
}

}  // namespace

BENCHMARK(BM_Churn)->Arg(10000)->Arg(100000)->Arg(1000000)->Iterations(20);
BENCHMARK(BM_ScheduleDrain)->Arg(1024)->Arg(16384);
BENCHMARK(BM_CancelHeavy);
BENCHMARK(BM_TimerChain);

BENCHMARK_MAIN();
