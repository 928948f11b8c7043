#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>

namespace qip {

namespace detail {

/// Ordering key mirrored out of the slot so the backend never touches
/// callables.
struct Key {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// Strict total order of the queue: earlier time first, FIFO (lower
/// sequence) within a timestamp.
inline bool key_less(SimTime at, std::uint64_t as, SimTime bt,
                     std::uint64_t bs) {
  if (at != bt) return at < bt;
  return as < bs;
}

/// Calendar queue (Brown '88) with lazily-sorted buckets (the "lazy queue" /
/// ladder-queue refinement): keys hash to buckets by virtual bucket index
/// vb(t) = floor(t / width), buckets are kept UNSORTED — an enqueue is a
/// blind O(1) append that reads no cold memory — and a bucket's current-year
/// keys are gathered, sorted once, and served from a contiguous service
/// vector when the dequeue cursor reaches it.  Sorting amortizes to
/// O(log occupancy) warm comparisons per event, so both operations stay O(1)
/// amortized with tiny constants even at 10^6 pending events.
///
/// Keys live as intrusive singly-linked nodes in a slab with a free list,
/// and the service vector's capacity is pre-reserved to the live-key count
/// at resize time: after the pending-event peak has been reached,
/// enqueue/dequeue touch no allocator at all, no matter how the time
/// distribution shifts.
///
/// A classic calendar only re-samples its bucket width on count-triggered
/// resizes, so a stationary workload whose *time distribution* shifts (e.g.
/// a uniform prefill draining into hold-model churn) strands it with a
/// stale width forever.  Dequeue-side work statistics (empty-window
/// advances, future-year re-walks) trigger a same-size resize — and the
/// width estimator samples the density where the cursor actually operates
/// (the median adjacent gap of the 65 earliest keys), not the global mean
/// gap a far-future tail would skew.
///
/// Determinism: the service set is exactly { key : vb(key.time) <= cur_vb_ }
/// and vb is monotone, so every service key orders before every buried key;
/// within the service the full (time, seq) comparison applies.  Pop order is
/// therefore exactly (time, seq) ascending regardless of how floating-point
/// rounding assigns times to buckets.
///
/// peek()/pop() mutate internal cursors (the window advances and re-sorts),
/// hence no const methods.
class CalendarBackend final {
 public:
  CalendarBackend() { buckets_.assign(kMinBuckets, Bucket{}); }

  void push(const Key& k) {
    const std::uint64_t vb = vbucket(k.time);
    if (count_ == 0) {
      cur_vb_ = vb;
    } else if (vb == cur_vb_ && !service_.empty()) {
      // The key lands in the window currently being served: splice it into
      // the (descending) service vector so it pops in exact (time, seq)
      // order with its window peers.
      const auto it = std::upper_bound(
          service_.begin(), service_.end(), k,
          [](const Key& a, const Key& b) {
            return key_less(b.time, b.seq, a.time, a.seq);
          });
      // Insert movement is dequeue-side work in disguise: a too-wide window
      // funnels every push through this path and the memmove bill grows
      // linearly with service size.  Charge it to the degradation statistic
      // (one unit per 16 elements moved — roughly the cost ratio against a
      // bucket advance) so a stale width can't hide behind a service vector
      // that never drains.
      work_ += (static_cast<std::uint64_t>(service_.end() - it) >> 4) + 1;
      service_.insert(it, k);
      ++count_;
      reserve_service();
      if (work_ > 8 * (served_ + kWindow)) resize(mask_ + 1);
      return;
    } else if (vb < cur_vb_) {
      // Cursor rewind (e.g. a zero-delay event behind a sparse gap): any
      // half-served window goes back to its bucket — order within a bucket
      // is irrelevant, it re-sorts when the cursor returns.
      flush_service();
      cur_vb_ = vb;
    }
    append_node(vb & mask_, acquire_node(k));
    ++count_;
    reserve_service();
    if (count_ > (mask_ + 1) * 2) resize((mask_ + 1) * 2);
  }

  std::size_t size() const { return count_; }

  Key peek() {
    if (service_.empty()) refill_service();
    return service_.back();
  }

  Key pop() {
    if (service_.empty()) refill_service();
    const Key k = service_.back();
    service_.pop_back();
    --count_;
    if (count_ * 2 < mask_ + 1 && mask_ + 1 > kMinBuckets) {
      resize((mask_ + 1) / 2);
    }
    return k;
  }

  void clear() {
    buckets_.assign(buckets_.size(), Bucket{});
    nodes_.clear();
    node_free_.clear();
    service_.clear();
    count_ = 0;
    cur_vb_ = 0;
    work_ = served_ = 0;
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;  // power of two
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Floor on the served-event denominator of the degradation trigger, so a
  /// few expensive refills on a small queue don't force resize thrash.
  static constexpr std::uint64_t kWindow = 4096;
  /// Width estimator sample size: the kSample earliest pending times.
  static constexpr std::size_t kSample = 65;

  struct Node {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t next;
  };

  /// One calendar bucket: UNSORTED keys split across two singly-linked
  /// sub-lists by node-index parity.  Two independent chains double the
  /// memory-level parallelism of a gather (chain hops are serial cold reads;
  /// two in flight halve the stall time), and the split is invisible to
  /// ordering because a gather sorts everything it collects.
  struct Bucket {
    std::uint32_t head[2] = {kNil, kNil};
    std::uint32_t tail[2] = {kNil, kNil};
    bool occupied() const { return head[0] != kNil || head[1] != kNil; }
  };

  std::uint64_t vbucket(SimTime t) const {
    // Sim times are finite and non-negative (schedule() asserts finiteness
    // and the clock starts at 0); clamp defensively so a pathological time
    // degrades to a far bucket, never UB.  Multiplying by the precomputed
    // reciprocal keeps this off the FP-divide unit; any monotone rounding
    // is fine because both hashing and the cursor scan share this function.
    const double q = t * inv_width_;
    if (!(q > 0.0)) return 0;
    if (q >= 9.2e18) return static_cast<std::uint64_t>(9.2e18);
    return static_cast<std::uint64_t>(q);
  }

  std::uint32_t acquire_node(const Key& k) {
    std::uint32_t ni;
    if (!node_free_.empty()) {
      ni = node_free_.back();
      node_free_.pop_back();
    } else {
      nodes_.emplace_back();
      ni = static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    Node& n = nodes_[ni];
    n.time = k.time;
    n.seq = k.seq;
    n.slot = k.slot;
    return ni;
  }

  void release_node(std::uint32_t ni) { node_free_.push_back(ni); }

  /// Keeps every internal vector's capacity >= count_ + 1 as the live-key
  /// count grows (one bucket can hold at most every key; the node slab holds
  /// at most every live key; resize scratch holds at most every buried
  /// node).  Amortized: reallocation only happens while count_ is reaching a
  /// new high-water mark, so steady-state schedule/cancel/pop — including a
  /// degradation-triggered resize — touches no allocator at all.
  void reserve_service() {
    if (service_.capacity() < count_ + 1) {
      const std::size_t cap = 2 * (count_ + 1);
      service_.reserve(cap);
      scratch_.reserve(cap);
      sample_.reserve(cap);
      nodes_.reserve(cap);
      node_free_.reserve(cap);
      gaps_.reserve(kSample);
    }
  }

  /// Blind append — no reads of cold node memory, only stores.  The
  /// sub-list is picked by index parity: stateless, and stable for a node
  /// across keep-list rebuilds.
  void append_node(std::size_t b, std::uint32_t ni) {
    Bucket& bk = buckets_[b];
    const int h = static_cast<int>(ni & 1u);
    nodes_[ni].next = kNil;
    if (bk.tail[h] == kNil) {
      bk.head[h] = ni;
    } else {
      nodes_[bk.tail[h]].next = ni;
    }
    bk.tail[h] = ni;
  }

  /// Returns a half-served window's keys to their buckets (cursor rewind or
  /// resize).  Keys are re-bucketed individually — after a resize the old
  /// window spans several new-width windows.  The nodes released when the
  /// window was gathered are still on the free list, so this never
  /// allocates.
  void flush_service() {
    for (const Key& k : service_) {
      append_node(vbucket(k.time) & mask_, acquire_node(k));
    }
    service_.clear();
  }

  /// Advances cur_vb_ to the next non-empty window and gathers its keys into
  /// the service vector, sorted descending so back() is the global minimum.
  /// Invariant on entry: no live key has vb < cur_vb_ (pushes rewind the
  /// cursor, the cursor only advances past windows verified empty).
  void refill_service() {
    QIP_ASSERT_MSG(count_ > 0, "calendar peek/pop on empty backend");
    locate_and_gather();
    // Degradation trigger: when dequeue-side overhead (empty-window advances
    // plus future-year re-walks) dwarfs the events actually served, the
    // width has gone stale for the current time distribution — a calendar
    // never resizes on a stationary count, so a distribution shift must
    // force a re-sample.  The resize flushes the just-gathered window back
    // into (new-width) buckets, so gather again; work_/served_ reset on
    // resize, which bounds this to one extra gather per trigger.
    if (work_ > 8 * (served_ + kWindow)) {
      resize(mask_ + 1);
      locate_and_gather();
    }
  }

  /// Advances cur_vb_ to the next non-empty window and fills the service
  /// vector from it.
  void locate_and_gather() {
    const std::size_t n = mask_ + 1;
    for (std::size_t checked = 0; checked <= n; ++checked) {
      Bucket& bk = buckets_[cur_vb_ & mask_];
      if (bk.occupied() && gather_window(bk)) return;
      ++cur_vb_;
      ++work_;
    }
    // A whole year scanned without a hit (sparse far-future events): jump
    // straight to the window of the global minimum instead of spinning
    // bucket by bucket.
    const Node* best = nullptr;
    for (const Bucket& bk : buckets_) {
      for (const std::uint32_t head : bk.head) {
        for (std::uint32_t ni = head; ni != kNil; ni = nodes_[ni].next) {
          const Node& cand = nodes_[ni];
          if (best == nullptr ||
              key_less(cand.time, cand.seq, best->time, best->seq)) {
            best = &cand;
          }
        }
      }
    }
    QIP_DCHECK(best != nullptr);
    cur_vb_ = vbucket(best->time);
    const bool ok = gather_window(buckets_[cur_vb_ & mask_]);
    QIP_DCHECK(ok);
    (void)ok;
  }

  /// Partitions bucket `bk`: keys of the current window move (sorted) into
  /// the service vector, future-year keys stay buried in append order.
  bool gather_window(Bucket& bk) {
    std::uint32_t cur[2] = {bk.head[0], bk.head[1]};
    std::uint32_t keep_head[2] = {kNil, kNil};
    std::uint32_t keep_tail[2] = {kNil, kNil};
    if (cur[0] != kNil) __builtin_prefetch(&nodes_[cur[0]]);
    if (cur[1] != kNil) __builtin_prefetch(&nodes_[cur[1]]);
    // Lockstep walk of both sub-lists keeps two chain loads in flight.
    while (cur[0] != kNil || cur[1] != kNil) {
      for (int h = 0; h < 2; ++h) {
        const std::uint32_t ni = cur[h];
        if (ni == kNil) continue;
        const Node& nd = nodes_[ni];
        const std::uint32_t next = nd.next;
        if (next != kNil) __builtin_prefetch(&nodes_[next]);
        if (vbucket(nd.time) <= cur_vb_) {
          service_.push_back(Key{nd.time, nd.seq, nd.slot});
          release_node(ni);
        } else {
          // Same physical bucket, later year: keep buried.
          nodes_[ni].next = kNil;
          if (keep_tail[h] == kNil) {
            keep_head[h] = ni;
          } else {
            nodes_[keep_tail[h]].next = ni;
          }
          keep_tail[h] = ni;
          ++work_;
        }
        cur[h] = next;
      }
    }
    for (int h = 0; h < 2; ++h) {
      bk.head[h] = keep_head[h];
      bk.tail[h] = keep_tail[h];
    }
    if (service_.empty()) return false;
    std::sort(service_.begin(), service_.end(),
              [](const Key& a, const Key& b) {
                return key_less(b.time, b.seq, a.time, a.seq);
              });
    served_ += service_.size();
    return true;
  }

  void resize(std::size_t nbuckets) {
    // Collect every buried node, re-sample the bucket width, then relink.
    // The width estimator measures event density where the dequeue cursor
    // actually operates — the smallest pending times — not the global mean
    // gap, which a far-future tail (or a drained prefill) would skew by
    // orders of magnitude: take the kSample earliest times and use three
    // times their median adjacent positive gap.  A degenerate neighborhood
    // (all equal times) keeps the old width.
    scratch_.clear();
    for (const Bucket& bk : buckets_) {
      for (const std::uint32_t head : bk.head) {
        for (std::uint32_t ni = head; ni != kNil; ni = nodes_[ni].next) {
          scratch_.push_back(ni);
        }
      }
    }
    sample_.clear();
    for (const std::uint32_t ni : scratch_) {
      sample_.push_back(nodes_[ni].time);
    }
    for (const Key& k : service_) sample_.push_back(k.time);
    if (sample_.size() > kSample) {
      std::nth_element(sample_.begin(), sample_.begin() + (kSample - 1),
                       sample_.end());
      sample_.resize(kSample);
    }
    std::sort(sample_.begin(), sample_.end());
    gaps_.clear();
    for (std::size_t i = 1; i < sample_.size(); ++i) {
      const double gap = sample_[i] - sample_[i - 1];
      if (gap > 0.0) gaps_.push_back(gap);
    }
    if (!gaps_.empty()) {
      std::nth_element(gaps_.begin(), gaps_.begin() + gaps_.size() / 2,
                       gaps_.end());
      const double w = 3.0 * gaps_[gaps_.size() / 2];
      if (w > 0.0 && std::isfinite(w)) inv_width_ = 1.0 / w;
    }
    buckets_.assign(nbuckets, Bucket{});
    mask_ = nbuckets - 1;
    work_ = served_ = 0;
    bool first = true;
    for (const std::uint32_t ni : scratch_) {
      const std::uint64_t vb = vbucket(nodes_[ni].time);
      if (first || vb < cur_vb_) {
        cur_vb_ = vb;
        first = false;
      }
      append_node(vb & mask_, ni);
    }
    // A half-served window goes back into (new-width) buckets: under the new
    // width it may span several windows, which would break the push-side
    // service classification if it stayed out.  The next refill re-gathers.
    for (const Key& k : service_) {
      const std::uint64_t vb = vbucket(k.time);
      if (first || vb < cur_vb_) {
        cur_vb_ = vb;
        first = false;
      }
      append_node(vb & mask_, acquire_node(k));
    }
    service_.clear();
    if (first) cur_vb_ = 0;  // no keys at all
    // One bucket can hold at most every live key: with capacity for all of
    // them, steady-state refills can never grow the service vector, which
    // keeps the zero-allocation guarantee unconditional.
    service_.reserve(count_ + 1);
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> node_free_;
  std::vector<Bucket> buckets_;
  std::vector<Key> service_;            // descending; back() = global min
  std::vector<std::uint32_t> scratch_;  // resize-only, capacity retained
  std::vector<SimTime> sample_;         // resize-only, capacity retained
  std::vector<double> gaps_;            // resize-only, capacity retained
  std::size_t count_ = 0;

  std::size_t mask_ = kMinBuckets - 1;
  std::uint64_t cur_vb_ = 0;
  double inv_width_ = 1.0;  ///< 1 / bucket width
  std::uint64_t work_ = 0;    ///< empty-window advances + future-year walks
  std::uint64_t served_ = 0;  ///< keys served since the last resize
};

/// Slab slot: the callable plus the generation counter that keeps handles
/// honest across reuse.  A slot leaves kLive on cancel (callable destroyed
/// eagerly) and returns to the free list once its key surfaces.
struct Slot {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t gen = 1;
  enum State : std::uint8_t { kFree, kLive, kDead } state = kFree;
  EventFn fn;
};

struct EventQueueCore {
  std::uint32_t acquire_slot() {
    if (!free_list.empty()) {
      const std::uint32_t idx = free_list.back();
      free_list.pop_back();
      return idx;
    }
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  /// Retires a slot whose key has left the backend: the generation bump
  /// makes every outstanding handle to it inert before reuse.
  void release_slot(std::uint32_t idx) {
    Slot& s = slots[idx];
    QIP_DCHECK(s.state != Slot::kFree);
    if (s.state == Slot::kDead) --dead;
    s.fn.reset();
    s.state = Slot::kFree;
    ++s.gen;
    free_list.push_back(idx);
  }

  std::uint32_t schedule_slot(SimTime at, EventFn&& fn) {
    QIP_ASSERT_MSG(static_cast<bool>(fn), "scheduling a null event");
    QIP_ASSERT_MSG(std::isfinite(at), "scheduling at non-finite time " << at);
    const std::uint32_t idx = acquire_slot();
    Slot& s = slots[idx];
    s.time = at;
    s.seq = next_seq++;
    s.state = Slot::kLive;
    s.fn = std::move(fn);
    keys.push(Key{s.time, s.seq, idx});
    ++live;
    return idx;
  }

  /// Drops tombstoned keys sitting at the backend minimum so peek/pop see a
  /// live event.  Callables were already freed at cancel time; this only
  /// recycles slots.  With no cancellations outstanding it is one branch.
  void skim() {
    while (dead > 0 && slots[keys.peek().slot].state != Slot::kLive) {
      release_slot(keys.pop().slot);
    }
  }

  CalendarBackend keys;
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;
  std::size_t live = 0;
  std::size_t dead = 0;  ///< tombstones still buried in the backend
  std::uint64_t next_seq = 0;
};

}  // namespace detail

bool EventHandle::pending() const {
  const auto core = core_.lock();
  if (!core) return false;
  const detail::Slot& s = core->slots[slot_];
  return s.gen == gen_ && s.state == detail::Slot::kLive;
}

void EventHandle::cancel() {
  const auto core = core_.lock();
  if (!core) return;
  detail::Slot& s = core->slots[slot_];
  if (s.gen != gen_ || s.state != detail::Slot::kLive) return;
  // Eager release: the callable (and everything it captures) dies now; only
  // the small key stays buried in the backend until it surfaces.
  s.fn.reset();
  s.state = detail::Slot::kDead;
  --core->live;
  ++core->dead;
}

EventQueue::EventQueue() : core_(std::make_shared<detail::EventQueueCore>()) {}

EventQueue::~EventQueue() = default;

EventHandle EventQueue::schedule(SimTime at, EventFn fn) {
  detail::EventQueueCore& core = *core_;
  const std::uint32_t idx = core.schedule_slot(at, std::move(fn));
  return EventHandle(core_, idx, core.slots[idx].gen);
}

void EventQueue::post(SimTime at, EventFn fn) {
  core_->schedule_slot(at, std::move(fn));
}

std::size_t EventQueue::size() const { return core_->keys.size(); }

std::size_t EventQueue::live_size() const { return core_->live; }

SimTime EventQueue::next_time() const {
  detail::EventQueueCore& core = *core_;
  QIP_ASSERT_MSG(core.live > 0, "next_time on empty queue");
  core.skim();
  return core.keys.peek().time;
}

EventQueue::Fired EventQueue::pop() {
  detail::EventQueueCore& core = *core_;
  QIP_ASSERT_MSG(core.live > 0, "pop on empty queue");
  core.skim();
  const detail::Key key = core.keys.pop();
  detail::Slot& s = core.slots[key.slot];
  Fired fired{s.time, std::move(s.fn)};
  --core.live;
  core.release_slot(key.slot);
  return fired;
}

void EventQueue::clear() {
  detail::EventQueueCore& core = *core_;
  // Free every callable now and invalidate outstanding handles via the
  // generation bump — a late cancel() must be a harmless no-op, never a
  // double-decrement of the (reset) live count.
  for (std::uint32_t i = 0; i < core.slots.size(); ++i) {
    if (core.slots[i].state != detail::Slot::kFree) core.release_slot(i);
  }
  core.keys.clear();
  core.live = 0;
  core.dead = 0;
}

}  // namespace qip
