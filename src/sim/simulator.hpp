// Discrete-event simulator core: a virtual clock driving an event queue.
//
// All protocol logic runs as event callbacks; the simulator is strictly
// single-threaded and deterministic.  Time only moves forward; scheduling
// into the past is an invariant violation.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"

namespace qip {

class SimContext;
SimContext& process_context();

class Simulator {
 public:
  /// A simulator bound to `ctx`; null means the process-default context.
  /// Everything downstream of a Simulator (Transport, protocols, World)
  /// reaches its recorder/metrics through ctx().
  explicit Simulator(SimContext* ctx = nullptr) : ctx_(ctx) {}

  SimContext& ctx() const { return ctx_ ? *ctx_ : process_context(); }
  void set_context(SimContext* ctx) { ctx_ = ctx; }

  SimTime now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }
  bool idle() const { return queue_.empty(); }
  /// Upper bound: includes cancelled entries still buried in the queue.
  std::size_t pending_events() const { return queue_.size(); }
  /// Exact count of live scheduled events (see EventQueue::live_size).
  std::size_t live_events() const { return queue_.live_size(); }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).  Any
  /// callable converts to EventFn; captures up to 64 bytes stay inline, so
  /// steady-state scheduling performs no heap allocation.
  EventHandle after(SimTime delay, EventFn fn) {
    QIP_ASSERT_MSG(delay >= 0.0, "negative delay " << delay);
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `at` (at >= now()).
  EventHandle at(SimTime at, EventFn fn) {
    QIP_ASSERT_MSG(at >= now_, "scheduling into the past: " << at << " < "
                                                            << now_);
    return queue_.schedule(at, std::move(fn));
  }

  /// Fire-and-forget after(): same ordering (the queue's sequence counter
  /// advances identically), but no cancellation handle is created.  Use for
  /// timers that are never cancelled — it skips the handle's weak-reference
  /// bookkeeping on the scheduler hot path.
  void post(SimTime delay, EventFn fn) {
    QIP_ASSERT_MSG(delay >= 0.0, "negative delay " << delay);
    queue_.post(now_ + delay, std::move(fn));
  }

  /// Executes the single earliest event; returns false when idle.
  bool step();

  /// Runs until the queue drains or `horizon` is reached (events exactly at
  /// the horizon still run).  Returns the number of events executed.
  std::uint64_t run(SimTime horizon = std::numeric_limits<SimTime>::infinity());

  /// Requests run()/step() to stop after the current event returns.
  void stop() { stopping_ = true; }

  /// Drops all pending events and resets the stop flag (the clock keeps its
  /// value so re-scheduling remains monotonic).
  void reset_events() {
    queue_.clear();
    stopping_ = false;
  }

  /// Registers a read-only observer invoked after an executed event at most
  /// once per `period` of simulated time.  Probes are NOT events: they never
  /// occupy the queue, so a drain loop (World::settle) terminates exactly as
  /// it would without them — which is what lets an auditor run always-on.
  /// Probes must not schedule events or mutate simulation state.
  /// Returns a token for remove_probe().
  std::uint64_t add_probe(SimTime period, std::function<void()> probe);
  void remove_probe(std::uint64_t token);

 private:
  struct Probe {
    std::uint64_t token;
    SimTime period;
    SimTime next;
    std::function<void()> fn;
  };

  void run_probes();

  SimContext* ctx_ = nullptr;
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  bool stopping_ = false;
  std::vector<Probe> probes_;
  std::uint64_t next_probe_token_ = 1;
};

}  // namespace qip
