// Epoch-versioned memoization layer for Topology's graph queries, with an
// O(changed-edges) incremental maintenance path.
//
// Every mutation of the underlying GridIndex bumps a monotone epoch
// (GridIndex::epoch).  The cache keys its derived state off that epoch:
//
//   * one flat CSR-style snapshot of the whole graph (slot-dense ids, row
//     spans into a neighbor pool) — the only store of adjacency.  A row
//     query reads its span and BFS runs on plain arrays with zero hashing;
//   * the components partition and bounded k-hop result sets, each memoized
//     for one epoch and computed from the snapshot.
//
// Rebuilding the snapshot from scratch on first use after *any* mutation
// would let one node moving one meter invalidate the whole O(n+E)
// structure.  At the paper's n≈400 that is fine; at metropolis scale
// (n≥100k, docs/SCALE.md) a per-event rebuild dominates everything.  The
// incremental path avoids it:
//
//   * Topology journals every add/remove/move into the cache (a dirty-edge
//     journal: the id plus the position where it appeared);
//   * csr() applies the journal to the existing snapshot instead of
//     rebuilding: only rows near a journaled position are recomputed
//     (grid queries around the recorded positions plus the event nodes'
//     pre-patch rows are a provable superset of the changed rows), and a
//     rewritten row lands in place when it fits its span's capacity, else
//     at the pool tail.
//
// The components partition is rebuilt from the snapshot whenever it is
// stale: one labelling pass over the slots, O(n+E).  It is never repaired
// from the patch's edge diffs: every drift tick moves every node, and such
// a repair (union on edge add, budgeted searches on edge cut) bailed out,
// or cost more than the rebuilds it saved, on every city workload.
//
// Discovery-order invariant (load-bearing — the golden/trace/jobs/quorum
// gates byte-compare bench output): rows store neighbor *ids* ascending and
// slots ascend by id (patches append only strictly larger ids; anything
// else forces a full rebuild, which re-sorts), so BFS discovery order is
// that of a plain sorted-neighbor BFS whether the snapshot was patched or
// rebuilt.  tests/net_test.cpp pins this against an O(n^2) oracle.
//
// The class stores no reference to the GridIndex (callers pass it in), so
// an owning Topology stays trivially movable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/grid_index.hpp"
#include "geom/point.hpp"
#include "net/node_id.hpp"

namespace qip {

class SimContext;

class TopologyCache {
 public:
  /// Sentinel for "not reached" / "no depth bound" / "no slot".
  static constexpr std::uint32_t kUnreached =
      std::numeric_limits<std::uint32_t>::max();

  explicit TopologyCache(double range) : range_(range) {}

  /// Context whose recorder/metrics the rebuild ProfileScopes feed; null
  /// (the default) falls back to the process context.  Set by the owning
  /// Topology when a World binds it to a SimContext.
  void set_context(SimContext* ctx) { ctx_ = ctx; }

  /// Flat adjacency snapshot.  Slots ascend strictly by id; removed nodes
  /// leave tombstoned slots (live[slot] == 0) until the next full rebuild
  /// compacts them.  Rows store neighbor *ids* (not slots), ascending, so
  /// patching one row never invalidates another and tombstoning never
  /// renumbers anything.
  struct Csr {
    std::vector<NodeId> ids;               ///< slot -> id, strictly ascending
    std::vector<std::uint8_t> live;        ///< slot liveness (0 = tombstone)
    std::vector<std::uint32_t> row_start;  ///< slot -> offset into pool
    std::vector<std::uint32_t> row_len;    ///< slot -> live neighbor count
    std::vector<std::uint32_t> row_cap;    ///< slot -> span capacity in pool
    std::vector<NodeId> pool;              ///< neighbor ids, ascending per row
    /// id -> slot for dense id ranges (kUnreached = absent); empty when the
    /// id range is too sparse, in which case slot_of binary-searches.
    std::vector<std::uint32_t> rank_tbl;
    std::size_t live_count = 0;

    /// Slot ("rank") of live node `id`, or nullopt.
    std::optional<std::uint32_t> rank_of(NodeId id) const {
      const std::uint32_t s = slot_of(id);
      return s == kUnreached ? std::nullopt : std::optional(s);
    }

    /// kUnreached when `id` has no live slot.
    std::uint32_t slot_of(NodeId id) const {
      if (!rank_tbl.empty()) {
        return id < rank_tbl.size() ? rank_tbl[id] : kUnreached;
      }
      const std::uint32_t s = slot_any(id);
      return (s != kUnreached && live[s]) ? s : kUnreached;
    }

    /// Slot of `id` including tombstones (kUnreached if never snapshotted).
    std::uint32_t slot_any(NodeId id) const {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      if (it == ids.end() || *it != id) return kUnreached;
      return static_cast<std::uint32_t>(it - ids.begin());
    }

    const NodeId* row_begin(std::uint32_t slot) const {
      return pool.data() + row_start[slot];
    }
    const NodeId* row_end(std::uint32_t slot) const {
      return pool.data() + row_start[slot] + row_len[slot];
    }
  };

  struct Components {
    /// Each group sorted ascending; groups ordered by smallest member.
    std::vector<std::vector<NodeId>> groups;
    /// slot -> index into `groups` (kUnreached for tombstoned slots).
    std::vector<std::uint32_t> group_of;
  };

  // -- dirty-edge journal (called by Topology on every index mutation) -----
  void note_add(NodeId id, const Point& pos);
  void note_remove(NodeId id);
  void note_move(NodeId id, const Point& new_pos);

  /// The CSR snapshot for the index's current epoch: patched from the
  /// journal when possible, rebuilt from scratch otherwise.
  const Csr& csr(const GridIndex& index);

  /// The components partition for the current epoch, rebuilt from the
  /// snapshot when stale.
  const Components& components(const GridIndex& index);

  /// Memoized k-hop neighborhood of `id` — (node, hops) pairs sorted by id,
  /// excluding `id` itself — from a depth-bounded BFS on the snapshot.
  /// Entries are revalidated per epoch in place, so the per-tick re-query of
  /// a stable (id, k) pair reuses its buffers and allocates nothing in
  /// steady state.
  const std::vector<std::pair<NodeId, std::uint32_t>>& k_hop(
      const GridIndex& index, NodeId id, std::uint32_t k);

  /// BFS from slot `src`, bounded at `max_depth` hops (kUnreached = none),
  /// calling `fn(slot, depth)` for the source (depth 0) and then for every
  /// discovered node in discovery order; an `fn` returning bool ends the
  /// search by returning true.  Rows are id-ascending and slots ascend with
  /// ids, so the order equals a plain sorted-neighbor BFS.  Visits are
  /// stamped and depths read off the queue's level boundaries, so a query
  /// costs the slots it visits, never the snapshot's size.
  template <typename Fn>
  void bfs(const Csr& graph, std::uint32_t src, std::uint32_t max_depth,
           Fn&& fn) {
    const auto visit = [&fn](std::uint32_t slot, std::uint32_t depth) {
      if constexpr (std::is_same_v<decltype(fn(slot, depth)), bool>) {
        return fn(slot, depth);
      } else {
        fn(slot, depth);
        return false;
      }
    };
    const std::uint64_t token = next_stamp(graph.ids.size());
    queue_.clear();
    stamp_[src] = token;
    if (visit(src, 0u)) return;
    queue_.push_back(src);
    std::uint32_t depth = 0;
    for (std::size_t head = 0, level_end = 1; head < queue_.size(); ++head) {
      if (head == level_end) {
        ++depth;
        level_end = queue_.size();
      }
      if (depth == max_depth) break;  // the rest of the queue is this deep
      const std::uint32_t u = queue_[head];
      for (const NodeId* p = graph.row_begin(u); p != graph.row_end(u); ++p) {
        const std::uint32_t v = graph.slot_of(*p);
        if (stamp_[v] == token) continue;
        stamp_[v] = token;
        if (visit(v, depth + 1)) return;
        queue_.push_back(v);
      }
    }
  }

  /// Early-exit BFS distance between two slots (the value a full BFS would
  /// assign), or nullopt when disconnected.
  std::optional<std::uint32_t> hop_distance(const Csr& graph,
                                            std::uint32_t src,
                                            std::uint32_t dst);

  // -- introspection (differential tests, fig_metro phase reports) ---------
  std::uint64_t full_rebuilds() const { return full_rebuilds_; }
  std::uint64_t incremental_patches() const { return incremental_patches_; }

 private:
  struct JournalEvent {
    enum Kind : std::uint8_t { kAdd, kRemove, kMove };
    Kind kind;
    NodeId id;
    Point pos;  ///< add: position; move: new position; remove: unused
  };

  struct KHopEntry {
    std::uint64_t epoch = kNoEpoch;
    std::vector<std::pair<NodeId, std::uint32_t>> result;
  };

  /// Bound on memoized k-hop sets; past it the table restarts.  Generous:
  /// one entry per (node, radius) pair actually queried.
  static constexpr std::size_t kMaxKHopEntries = 4096;
  static constexpr std::uint64_t kNoEpoch =
      std::numeric_limits<std::uint64_t>::max();
  /// Spare pool entries per row so small degree growth patches in place.
  static constexpr std::uint32_t kRowSlack = 2;
  /// Below this id the direct-indexed rank table is always built (16 MiB
  /// worst case), even when sparse: patching requires the table, and ids
  /// grow monotonically under churn, so a pure density rule would
  /// eventually disable the incremental path for good.
  static constexpr std::size_t kMaxRankTblId = std::size_t{1} << 22;

  /// Fresh visit token for a traversal over `slots` slots; stamp_ grows
  /// with the snapshot and 64-bit tokens never wrap, so nothing is reset.
  std::uint64_t next_stamp(std::size_t slots) {
    if (stamp_.size() < slots) stamp_.resize(slots, 0);
    return ++stamp_token_;
  }

  void clear_journal() {
    journal_.clear();
    journal_overflow_ = false;
  }
  void journal_push(JournalEvent ev);

  /// Sorted one-hop neighbors of `id` (excluding `id`) straight from the
  /// grid, into query_buf_: the row a rebuild or a patch writes.
  const std::vector<NodeId>& compute_row(const GridIndex& index, NodeId id);

  void rebuild_csr(const GridIndex& index);
  /// Applies the journal to the existing snapshot.  Returns false (leaving
  /// the snapshot untouched) when a patch precondition fails — the caller
  /// then rebuilds from scratch.
  bool try_patch(const GridIndex& index);
  void patch_row(std::uint32_t slot, const std::vector<NodeId>& fresh);

  void rebuild_components();

  double range_;
  SimContext* ctx_ = nullptr;

  Csr csr_;
  std::uint64_t csr_epoch_ = kNoEpoch;
  std::size_t pool_garbage_ = 0;  ///< dead pool capacity awaiting compaction

  Components comps_;
  std::uint64_t comps_epoch_ = kNoEpoch;

  std::vector<JournalEvent> journal_;
  bool journal_overflow_ = false;

  std::unordered_map<std::uint64_t, KHopEntry> khop_;

  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t incremental_patches_ = 0;

  // Scratch buffers reused across queries/patches (held at high-water
  // capacity so the steady state allocates nothing).
  std::vector<std::uint32_t> queue_;
  std::vector<NodeId> query_buf_;  ///< grid query results
  std::vector<NodeId> candidates_;
  std::vector<NodeId> ev_ids_;
  std::vector<NodeId> new_ids_;
  std::vector<std::uint64_t> stamp_;  ///< slot-indexed visit stamps (bfs())
  std::uint64_t stamp_token_ = 0;
};

}  // namespace qip
