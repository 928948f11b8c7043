// Pending-event set for the discrete-event simulator.
//
// Events at equal timestamps execute in insertion order (a strictly
// increasing sequence number breaks ties), which keeps runs deterministic —
// a property every experiment in the reproduction depends on.
//
// Entries live in a slab of reusable slots (generation-counted, so handles
// stay O(1) and allocation-free) and a Brown-'88-style calendar queue with
// auto-resizing buckets orders the (time, seq, slot) keys: O(1) amortized
// enqueue/dequeue at 10^6 pending events.  Pop order is exactly (time, seq)
// ascending; tests/sim_test.cpp checks it against a sorted reference queue
// under a seeded schedule/cancel/pop fuzz.  Cancellation is O(1): the slot
// is tombstoned, its callable destroyed *eagerly* — a cancelled retransmit
// timer must not keep its captures alive while the tombstone is still
// buried — and the key is dropped lazily when it surfaces at the minimum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_fn.hpp"
#include "util/assert.hpp"

namespace qip {

/// Simulation clock, in seconds.
using SimTime = double;

/// The scheduler's move-only event callable (sim/small_fn.hpp).  Its 64-byte
/// inline budget holds every timer lambda in the protocol engines (`this`
/// plus a couple of ids), a std::function for callers that still build one,
/// and Transport's delivery closure (net/transport.cpp checks that).
using EventFn = SmallFn<void(), 64, alignof(std::max_align_t), false>;

namespace detail {
struct EventQueueCore;
}  // namespace detail

/// Opaque handle for cancelling a scheduled event.  Default-constructed
/// handles are inert; cancelling twice (or after firing, after clear(), or
/// after the queue itself is gone) is a no-op.  Handles are {slot,
/// generation} pairs into the queue's slab — copying one never allocates.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;

  /// Marks the event dead and frees its callable immediately (captures are
  /// released now, not when the tombstone surfaces).  The live-event count
  /// is maintained eagerly, so live_size() stays exact.
  void cancel();

 private:
  friend class EventQueue;
  EventHandle(std::weak_ptr<detail::EventQueueCore> core, std::uint32_t slot,
              std::uint32_t gen)
      : core_(std::move(core)), slot_(slot), gen_(gen) {}
  std::weak_ptr<detail::EventQueueCore> core_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at` (must be finite).
  EventHandle schedule(SimTime at, EventFn fn);

  /// Fire-and-forget schedule: identical ordering (the same sequence counter
  /// advances), but no handle is materialized — skipping the weak-reference
  /// bookkeeping that dominates when the caller discards the handle anyway.
  void post(SimTime at, EventFn fn);

  /// Exact: true iff no live (uncancelled) event remains.
  bool empty() const { return live_size() == 0; }

  /// Upper bound on live events (cancelled entries buried in the calendar
  /// are counted until they surface).
  std::size_t size() const;

  /// Exact number of live (scheduled, uncancelled, unfired) events.  The
  /// count is maintained on schedule/cancel/pop, so — unlike size() — it
  /// never includes tombstoned entries still buried in the calendar.
  std::size_t live_size() const;

  /// Time of the earliest live event; queue must be non-empty.
  SimTime next_time() const;

  /// Pops and returns the earliest live event.
  struct Fired {
    SimTime time;
    EventFn fn;
  };
  Fired pop();

  /// Drops every pending event, freeing all callables immediately.
  /// Outstanding handles become inert (a late cancel() is a no-op).
  void clear();

 private:
  /// shared_ptr only so handles can hold a weak reference that survives the
  /// queue; one allocation per queue, never per event.
  std::shared_ptr<detail::EventQueueCore> core_;
};

}  // namespace qip
