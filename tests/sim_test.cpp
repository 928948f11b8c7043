// Unit tests for the discrete-event core: ordering, cancellation, clock,
// handle lifetime edges, a differential against a reference binary heap, and
// the small-buffer callables events and deliveries ride in.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qip {
namespace {

class EventQueueTest : public ::testing::Test {
 protected:
  EventQueue q;
};

TEST_F(EventQueueTest, OrdersByTime) {
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventQueueTest, TiesAreFifo) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(EventQueueTest, CancelDropsEvent) {
  int fired = 0;
  auto h = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST_F(EventQueueTest, EmptyIsExactUnderCancellation) {
  auto a = q.schedule(1.0, [] {});
  auto b = q.schedule(2.0, [] {});
  a.cancel();
  b.cancel();
  EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueTest, FiredHandleNotPending) {
  auto h = q.schedule(1.0, [] {});
  q.pop().fn();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(q.live_size(), 0u);
  h.cancel();  // harmless
  EXPECT_EQ(q.live_size(), 0u);
}

TEST_F(EventQueueTest, DefaultHandleInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST_F(EventQueueTest, LiveSizeExcludesTombstones) {
  auto a = q.schedule(1.0, [] {});
  auto b = q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  EXPECT_EQ(q.live_size(), 3u);
  a.cancel();
  // The tombstone still occupies a calendar slot; live_size sees through it.
  EXPECT_EQ(q.live_size(), 2u);
  EXPECT_EQ(q.size(), 3u);
  b.cancel();
  EXPECT_EQ(q.live_size(), 1u);
  q.pop().fn();  // pops the sole live event (skipping tombstones)
  EXPECT_EQ(q.live_size(), 0u);
}

TEST_F(EventQueueTest, LiveSizeTracksPopsExactly) {
  for (int i = 0; i < 5; ++i) q.schedule(1.0 + i, [] {});
  for (std::size_t expect = 5; expect > 0; --expect) {
    EXPECT_EQ(q.live_size(), expect);
    q.pop().fn();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.live_size(), 0u);
}

TEST_F(EventQueueTest, NextTimeSkipsCancelled) {
  auto a = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  a.cancel();
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

// ---------------------------------------------------------------------------
// Closure-retention regression (the PR's bugfix): a cancelled event must
// release everything its closure captured *immediately*, not when the
// tombstone eventually surfaces — retransmit-heavy runs cancel thousands of
// buried timers that would otherwise pin dead state for the whole run.

TEST_F(EventQueueTest, CancelReleasesClosureEagerly) {
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> alive = sentinel;
  q.schedule(0.5, [] {});  // stays in front; the cancelled ones never surface
  std::vector<EventHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(q.schedule(1.0 + i, [sentinel] {}));
  }
  sentinel.reset();
  EXPECT_FALSE(alive.expired());
  for (auto& h : handles) h.cancel();
  // All 64 tombstones are still buried (nothing was popped), yet every
  // captured copy of the sentinel is gone.
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(q.size(), 65u);
  EXPECT_EQ(q.live_size(), 1u);
}

TEST_F(EventQueueTest, ClearReleasesClosures) {
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> alive = sentinel;
  for (int i = 0; i < 16; ++i) q.schedule(1.0 + i, [sentinel] {});
  sentinel.reset();
  EXPECT_FALSE(alive.expired());
  q.clear();
  EXPECT_TRUE(alive.expired());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.live_size(), 0u);
}

TEST_F(EventQueueTest, QueueDestructionReleasesClosures) {
  auto sentinel = std::make_shared<int>(9);
  std::weak_ptr<int> alive = sentinel;
  {
    EventQueue local;
    local.schedule(1.0, [sentinel] {});
    sentinel.reset();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

// ---------------------------------------------------------------------------
// Handle lifetime edges: stale handles must be inert in every order of
// queue mutation, and live_size must stay exact throughout.

TEST_F(EventQueueTest, CancelAfterClearIsInert) {
  auto h = q.schedule(1.0, [] {});
  q.clear();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not double-decrement the reset live count
  EXPECT_EQ(q.live_size(), 0u);
  // The cleared slot is recycled; the stale handle must not alias the new
  // occupant.
  auto fresh = q.schedule(2.0, [] {});
  EXPECT_EQ(q.live_size(), 1u);
  h.cancel();
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_TRUE(fresh.pending());
}

TEST_F(EventQueueTest, CancelAfterFireIsInert) {
  auto h = q.schedule(1.0, [] {});
  auto fired = q.pop();
  fired.fn();
  EXPECT_FALSE(h.pending());
  // The fired slot is recycled; the stale handle must not cancel the new
  // occupant.
  auto fresh = q.schedule(2.0, [] {});
  EXPECT_EQ(q.live_size(), 1u);
  h.cancel();
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_TRUE(fresh.pending());
}

TEST_F(EventQueueTest, HandleOutlivesQueue) {
  EventHandle h;
  {
    EventQueue local;
    h = local.schedule(1.0, [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, no dangling access
}

TEST_F(EventQueueTest, DoubleCancelDecrementsOnce) {
  q.schedule(5.0, [] {});
  auto h = q.schedule(1.0, [] {});
  h.cancel();
  EXPECT_EQ(q.live_size(), 1u);
  h.cancel();
  EXPECT_EQ(q.live_size(), 1u);
}

TEST_F(EventQueueTest, SchedulingNonFiniteTimeThrows) {
  EXPECT_THROW(
      q.schedule(std::numeric_limits<double>::infinity(), [] {}),
      InvariantViolation);
}

// ---------------------------------------------------------------------------
// Differential: the calendar queue must pop the exact (time, seq) order of a
// textbook binary heap under a randomized schedule/cancel/pop workload that
// crosses the calendar's grow and shrink thresholds (bursts of equal
// timestamps included).

/// Reference pending-event set: a binary min-heap on (time, seq) with lazy
/// cancellation.  Cancelled keys stay in the heap as tombstones and are
/// dropped when they reach the top.  O(log n) per operation, no cleverness.
class ReferenceHeap {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;

  Key schedule(SimTime t, int id) {
    const Key key{t, next_seq_++};
    heap_.emplace(key, id);
    live_.insert(key);
    return key;
  }
  bool pending(const Key& key) const { return live_.count(key) > 0; }
  void cancel(const Key& key) { live_.erase(key); }
  bool empty() const { return live_.empty(); }
  std::size_t live_size() const { return live_.size(); }
  SimTime next_time() {
    drop_tombstones();
    return heap_.top().first.first;
  }

  /// Pops the earliest live event: (time, id).
  std::pair<SimTime, int> pop() {
    drop_tombstones();
    const auto [key, id] = heap_.top();
    heap_.pop();
    live_.erase(key);
    return {key.first, id};
  }

 private:
  using Entry = std::pair<Key, int>;

  void drop_tombstones() {
    while (live_.count(heap_.top().first) == 0) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::set<Key> live_;
  std::uint64_t next_seq_ = 0;
};

class SchedulerDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SchedulerDifferential, HeapAndCalendarAgree) {
  Rng rng(GetParam());
  EventQueue queue;
  ReferenceHeap reference;
  std::vector<int> fired;  // ids in the order the queue ran them
  std::vector<std::pair<EventHandle, ReferenceHeap::Key>> handles;
  int next_id = 0;
  double clock = 0.0;

  const auto check_pop = [&] {
    ASSERT_EQ(queue.live_size(), reference.live_size());
    ASSERT_DOUBLE_EQ(queue.next_time(), reference.next_time());
    auto got = queue.pop();
    const auto [at, id] = reference.pop();
    ASSERT_DOUBLE_EQ(got.time, at);
    got.fn();
    ASSERT_EQ(fired.back(), id);
    clock = at;  // keep new events quasi-monotone, as a simulator does
  };

  for (int step = 0; step < 12000; ++step) {
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.55 || queue.empty()) {
      // Mixed time scales, quantized so exact ties are common.
      const double span = r < 0.1 ? 10000.0 : 10.0;
      const SimTime t =
          clock + std::floor(rng.uniform(0.0, span) * 8.0) / 8.0;
      const int id = next_id++;
      handles.emplace_back(
          queue.schedule(t, [&fired, id] { fired.push_back(id); }),
          reference.schedule(t, id));
    } else if (r < 0.7 && !handles.empty()) {
      auto& [handle, key] = handles[static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(handles.size()) - 0.001))];
      ASSERT_EQ(handle.pending(), reference.pending(key));
      handle.cancel();
      reference.cancel(key);
    } else {
      ASSERT_NO_FATAL_FAILURE(check_pop());
    }
  }
  while (!queue.empty()) ASSERT_NO_FATAL_FAILURE(check_pop());
  EXPECT_TRUE(reference.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferential,
                         ::testing::Values(101, 202, 303, 404));

TEST(Simulator, ClockAdvancesMonotonically) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.after(2.0, [&] { seen.push_back(sim.now()); });
  sim.after(1.0, [&] {
    seen.push_back(sim.now());
    sim.after(0.5, [&] { seen.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[0], 1.0);
  EXPECT_DOUBLE_EQ(seen[1], 1.5);
  EXPECT_DOUBLE_EQ(seen[2], 2.0);
}

TEST(Simulator, RunHorizonIncludesBoundary) {
  Simulator sim;
  int fired = 0;
  sim.after(1.0, [&] { ++fired; });
  sim.after(2.0, [&] { ++fired; });
  sim.after(3.0, [&] { ++fired; });
  sim.run(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, HorizonAdvancesIdleClock) {
  Simulator sim;
  sim.run(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.after(-1.0, [] {}), InvariantViolation);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.after(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(1.0, [] {}), InvariantViolation);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.after(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.after(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.idle());
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.after(0.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ResetEventsDropsPending) {
  Simulator sim;
  int fired = 0;
  sim.after(1.0, [&] { ++fired; });
  sim.reset_events();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.after(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, SelfReschedulingTimer) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) sim.after(1.0, tick);
  };
  sim.after(1.0, tick);
  sim.run();
  EXPECT_EQ(ticks, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

/// Property: simulator ordering matches a reference sort for random loads.
class SimOrderingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimOrderingProperty, MatchesReferenceOrder) {
  Rng rng(GetParam());
  Simulator sim;
  std::vector<std::pair<double, int>> expect;
  std::vector<int> got;
  for (int i = 0; i < 300; ++i) {
    const double t = rng.uniform(0.0, 50.0);
    expect.emplace_back(t, i);
    sim.after(t, [&got, i] { got.push_back(i); });
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  sim.run();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimOrderingProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// SmallFn: EventFn (move-only, 64 bytes) and a copyable flavour with
// Transport::Receiver's parameters (32 bytes, pointer-aligned).
// ---------------------------------------------------------------------------

using CopyFn = SmallFn<void(int), 32, alignof(void*), true>;

static_assert(!std::is_copy_constructible_v<EventFn>);
static_assert(std::is_nothrow_move_constructible_v<EventFn>);
static_assert(std::is_copy_constructible_v<CopyFn>);

/// A capture that counts its calls and the destructor calls of the objects
/// that own it (a moved-from shell owns nothing), padded to pick the inline
/// or the arena path.
template <std::size_t Pad>
struct Tracked {
  int* calls;
  int* dtors;
  bool owner = true;
  std::array<unsigned char, Pad> pad{};

  Tracked(int* c, int* d) : calls(c), dtors(d) {}
  Tracked(const Tracked& o) : calls(o.calls), dtors(o.dtors), owner(o.owner) {}
  Tracked(Tracked&& o) noexcept
      : calls(o.calls), dtors(o.dtors), owner(o.owner) {
    o.owner = false;
  }
  ~Tracked() {
    if (owner) ++*dtors;
  }
  void operator()() { ++*calls; }
  void operator()(int) { ++*calls; }
};

using SmallTracked = Tracked<8>;   // inline in both flavours
using LargeTracked = Tracked<96>;  // arena in both flavours

static_assert(EventFn::fits_inline<SmallTracked>());
static_assert(CopyFn::fits_inline<SmallTracked>());
static_assert(!EventFn::fits_inline<LargeTracked>());
static_assert(!CopyFn::fits_inline<LargeTracked>());

struct MoveOnlyCall {
  std::unique_ptr<int> p;
  void operator()() {}
  void operator()(int) {}
};

static_assert(std::is_constructible_v<EventFn, MoveOnlyCall>);
static_assert(!std::is_constructible_v<CopyFn, MoveOnlyCall>);

/// Arena blocks handed out so far on this thread (fresh or recycled).
std::uint64_t arena_blocks() {
  const CaptureArena& arena = CaptureArena::instance();
  return arena.fresh() + arena.reused();
}

TEST(SmallFn, InlineCapturesTakeNoArenaBlock) {
  const std::uint64_t before = arena_blocks();
  int hits = 0;
  int calls = 0;
  int dtors = 0;
  {
    EventFn trivial = [&hits] { ++hits; };
    EventFn tracked = SmallTracked(&calls, &dtors);
    CopyFn small_copyable = [&hits](int add) { hits += add; };
    trivial();
    tracked();
    small_copyable(10);
  }
  EXPECT_EQ(hits, 11);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(dtors, 1);
  EXPECT_EQ(arena_blocks(), before);
}

TEST(SmallFn, ArenaCapturesTakeOneBlockEach) {
  const std::uint64_t before = arena_blocks();
  std::array<int, 32> big{};  // 128 bytes, trivially copyable
  big[31] = 5;
  int out = 0;
  int calls = 0;
  int dtors = 0;
  {
    EventFn trivial = [big, &out] { out += big[31]; };
    EventFn tracked = LargeTracked(&calls, &dtors);
    EXPECT_EQ(arena_blocks(), before + 2);
    EventFn moved = std::move(trivial);  // only the pointer moves
    EXPECT_FALSE(static_cast<bool>(trivial));
    moved();
    tracked();
    EXPECT_EQ(arena_blocks(), before + 2);
  }
  EXPECT_EQ(out, 5);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(dtors, 1);
}

TEST(SmallFn, CopyingAnArenaCaptureTakesItsOwnBlock) {
  int calls = 0;
  int dtors = 0;
  {
    CopyFn original = LargeTracked(&calls, &dtors);
    const std::uint64_t before = arena_blocks();
    CopyFn copy = original;
    EXPECT_EQ(arena_blocks(), before + 1);
    CopyFn assigned;
    assigned = copy;
    EXPECT_EQ(arena_blocks(), before + 2);
    original(1);
    copy(2);
    assigned(3);
    original.reset();
    EXPECT_EQ(dtors, 1);
    copy(4);  // the copies do not share the original's block
  }
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(dtors, 3);
}

TEST(SmallFn, EventFnAcceptsMoveOnlyCaptures) {
  int out = 0;
  EventFn fn = [p = std::make_unique<int>(7), &out] { out = *p; };
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(out, 7);
}

/// Moves, copies, reset() and cancellation destroy every capture exactly
/// once, inline or in the arena.
template <typename Capture>
void expect_each_capture_destroyed_once() {
  int calls = 0;
  int dtors = 0;

  {  // move construction and move assignment
    EventFn a = Capture(&calls, &dtors);
    EventFn b = std::move(a);
    EventFn c;
    c = std::move(b);
    EXPECT_EQ(dtors, 0);
    c.reset();
    EXPECT_EQ(dtors, 1);
    c.reset();
  }
  EXPECT_EQ(dtors, 1);

  dtors = 0;
  {  // assignment over a live capture destroys the old one first
    EventFn a = Capture(&calls, &dtors);
    EventFn b = Capture(&calls, &dtors);
    a = std::move(b);
    EXPECT_EQ(dtors, 1);
  }
  EXPECT_EQ(dtors, 2);

  dtors = 0;
  {  // copies are captures of their own
    CopyFn a = Capture(&calls, &dtors);
    CopyFn b = a;
    CopyFn c = b;
    CopyFn d = std::move(c);
    EXPECT_EQ(dtors, 0);
    b = d;  // copy-assignment destroys b's capture
    EXPECT_EQ(dtors, 1);
  }
  EXPECT_EQ(dtors, 4);

  dtors = 0;
  calls = 0;
  {  // cancellation destroys the capture at once, and it never runs
    Simulator sim;
    EventHandle h = sim.after(1.0, Capture(&calls, &dtors));
    sim.post(2.0, Capture(&calls, &dtors));
    h.cancel();
    EXPECT_EQ(dtors, 1);
    sim.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(dtors, 2);
  }
  EXPECT_EQ(dtors, 2);
}

TEST(SmallFn, EachCaptureIsDestroyedExactlyOnce) {
  {
    SCOPED_TRACE("inline");
    expect_each_capture_destroyed_once<SmallTracked>();
  }
  {
    SCOPED_TRACE("arena");
    expect_each_capture_destroyed_once<LargeTracked>();
  }
}

}  // namespace
}  // namespace qip
