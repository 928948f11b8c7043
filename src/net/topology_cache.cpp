#include "net/topology_cache.hpp"

#include "obs/profile.hpp"
#include "sim/sim_context.hpp"
#include "util/assert.hpp"

namespace qip {

const std::vector<NodeId>& TopologyCache::compute_row(const GridIndex& index,
                                                     NodeId id) {
  index.query_into(index.position(id), range_, static_cast<std::int64_t>(id),
                   query_buf_);
  std::sort(query_buf_.begin(), query_buf_.end());
  // The unit-disk adjacency must be simple: strictly ascending (a
  // duplicated id in the index would corrupt every BFS on top) and never
  // containing the node itself.
  QIP_ASSERT(std::adjacent_find(query_buf_.begin(), query_buf_.end()) ==
             query_buf_.end());
  QIP_ASSERT(!std::binary_search(query_buf_.begin(), query_buf_.end(), id));
  return query_buf_;
}

// -- dirty-edge journal ------------------------------------------------------

void TopologyCache::journal_push(JournalEvent ev) {
  if (journal_overflow_) return;
  // A patch pays a grid query per event, sorts the candidates and then
  // recomputes their rows; a rebuild recomputes every row in one pass.
  // Once a quarter of the snapshot is journaled the rebuild is cheaper
  // (caps of 1/2, 1/4 and 1/8 measure alike), so let csr() take that path.
  if (4 * journal_.size() >= csr_.live_count) {
    journal_.clear();
    journal_overflow_ = true;
    return;
  }
  journal_.push_back(ev);
}

void TopologyCache::note_add(NodeId id, const Point& pos) {
  if (csr_epoch_ == kNoEpoch) return;  // no snapshot to patch yet
  journal_push({JournalEvent::kAdd, id, pos});
}

void TopologyCache::note_remove(NodeId id) {
  if (csr_epoch_ == kNoEpoch) return;
  journal_push({JournalEvent::kRemove, id, Point{0.0, 0.0}});
}

void TopologyCache::note_move(NodeId id, const Point& new_pos) {
  if (csr_epoch_ == kNoEpoch) return;
  journal_push({JournalEvent::kMove, id, new_pos});
}

// -- CSR snapshot ------------------------------------------------------------

const TopologyCache::Csr& TopologyCache::csr(const GridIndex& index) {
  if (csr_epoch_ == index.epoch()) return csr_;
  SimContext& c = ctx_ ? *ctx_ : process_context();
  bool patched = false;
  if (csr_epoch_ != kNoEpoch && !journal_overflow_) {
    obs::ProfileScope prof("topo_csr_patch", c.recorder(), c.metrics());
    patched = try_patch(index);
    if (patched) ++incremental_patches_;
  }
  if (!patched) {
    obs::ProfileScope prof("topo_csr_rebuild", c.recorder(), c.metrics());
    rebuild_csr(index);
  }
  clear_journal();
  csr_epoch_ = index.epoch();
  return csr_;
}

void TopologyCache::rebuild_csr(const GridIndex& index) {
  ++full_rebuilds_;
  auto& ids = csr_.ids;
  ids.clear();
  ids.reserve(index.size());
  index.for_each([&](NodeId id, const Point&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  const auto n = static_cast<std::uint32_t>(ids.size());
  csr_.live.assign(n, 1);
  csr_.live_count = n;
  // Driver-assigned ids are sequential, so a direct-indexed rank table
  // nearly always beats a per-edge binary search; fall back only once the
  // table itself would be big AND mostly holes (patching requires the
  // table, so the absolute cap keeps long-lived monotone-id churn on the
  // incremental path).
  csr_.rank_tbl.clear();
  const bool dense =
      n != 0 && (ids.back() < 4 * std::size_t{n} + 64 ||
                 std::size_t{ids.back()} < kMaxRankTblId);
  if (dense) {
    csr_.rank_tbl.assign(std::size_t{ids.back()} + 1, kUnreached);
    for (std::uint32_t r = 0; r < n; ++r) csr_.rank_tbl[ids[r]] = r;
  }
  csr_.row_start.resize(n);
  csr_.row_len.resize(n);
  csr_.row_cap.resize(n);
  csr_.pool.clear();
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::vector<NodeId>& fresh = compute_row(index, ids[r]);
    const auto len = static_cast<std::uint32_t>(fresh.size());
    csr_.row_start[r] = static_cast<std::uint32_t>(csr_.pool.size());
    csr_.row_len[r] = len;
    csr_.row_cap[r] = len + kRowSlack;
    csr_.pool.insert(csr_.pool.end(), fresh.begin(), fresh.end());
    csr_.pool.resize(csr_.pool.size() + kRowSlack);
  }
  pool_garbage_ = 0;
}

bool TopologyCache::try_patch(const GridIndex& index) {
  if (journal_.empty()) return false;  // untracked mutation: play it safe
  if (csr_.ids.empty() || csr_.rank_tbl.empty()) return false;
  // Compaction triggers: tombstoned slots and dead pool spans bloat memory,
  // and tombstones lengthen the components rebuild's slot scan; a full
  // rebuild clears both.
  if (csr_.ids.size() - csr_.live_count > csr_.live_count) return false;
  if (pool_garbage_ * 2 > csr_.pool.size() + 1024) return false;

  // ---- read-only scan: candidate seeds, new slots, patch preconditions ----
  //
  // Candidate rows (a provable superset of every changed row): the event
  // nodes themselves, every current node within range of a journaled
  // appearance position, and every member of an event node's pre-patch row.
  // Proof sketch for a changed pair (x, y): at least one endpoint — say y —
  // is an event node.  If x gained y, y now sits at its last journaled
  // position, whose disk query finds x (x stationary, else x is an event
  // node itself).  If x lost y, either y's pre-patch row recorded x, or y
  // was never snapshotted — then x gained y at some journaled position p
  // and, being stationary since, still sits inside p's disk query.
  candidates_.clear();
  ev_ids_.clear();
  new_ids_.clear();
  for (const JournalEvent& ev : journal_) {
    ev_ids_.push_back(ev.id);
    if (ev.kind != JournalEvent::kRemove) {
      index.query_into(ev.pos, range_, -1, query_buf_);
      candidates_.insert(candidates_.end(), query_buf_.begin(),
                         query_buf_.end());
    }
  }
  std::sort(ev_ids_.begin(), ev_ids_.end());
  ev_ids_.erase(std::unique(ev_ids_.begin(), ev_ids_.end()), ev_ids_.end());
  for (NodeId id : ev_ids_) {
    const std::uint32_t slot = csr_.slot_of(id);
    const bool present = index.contains(id);
    if (slot != kUnreached) {
      candidates_.insert(candidates_.end(), csr_.row_begin(slot),
                         csr_.row_end(slot));
      if (present) candidates_.push_back(id);
    } else if (present) {
      if (csr_.slot_any(id) != kUnreached) return false;  // resurrected id
      new_ids_.push_back(id);  // ev_ids_ sorted => new_ids_ sorted
      candidates_.push_back(id);
    }
  }
  if (!new_ids_.empty()) {
    // Appending keeps the slot-order-by-id invariant only for strictly
    // larger ids, and the direct-index rank table must stay affordable
    // (ids are driver-assigned and sequential, so in practice it is).
    if (new_ids_.front() <= csr_.ids.back()) return false;
    const std::size_t total = csr_.ids.size() + new_ids_.size();
    if (std::size_t{new_ids_.back()} >= 4 * total + 64 &&
        std::size_t{new_ids_.back()} >= kMaxRankTblId) {
      return false;
    }
  }
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
  // No candidate-count bail: candidates are deduped so there are at most n
  // of them, and recomputing a row costs the same here as in a rebuild.

  // ---- mutation: tombstone removals --------------------------------------
  for (NodeId id : ev_ids_) {
    if (index.contains(id)) continue;
    const std::uint32_t slot = csr_.slot_of(id);
    if (slot == kUnreached) continue;  // added and removed within the journal
    pool_garbage_ += csr_.row_cap[slot];
    csr_.live[slot] = 0;
    csr_.row_len[slot] = 0;
    csr_.row_cap[slot] = 0;
    csr_.rank_tbl[id] = kUnreached;
    --csr_.live_count;
  }

  // ---- mutation: append slots for new nodes ------------------------------
  for (NodeId id : new_ids_) {
    const auto slot = static_cast<std::uint32_t>(csr_.ids.size());
    csr_.ids.push_back(id);
    csr_.live.push_back(1);
    csr_.row_start.push_back(static_cast<std::uint32_t>(csr_.pool.size()));
    csr_.row_len.push_back(0);
    csr_.row_cap.push_back(0);
    if (std::size_t{id} >= csr_.rank_tbl.size()) {
      csr_.rank_tbl.resize(std::size_t{id} + 1, kUnreached);
    }
    csr_.rank_tbl[id] = slot;
    ++csr_.live_count;
  }

  // ---- mutation: recompute candidate rows --------------------------------
  for (NodeId cand : candidates_) {
    if (!index.contains(cand)) continue;  // handled as a removal above
    const std::uint32_t slot = csr_.slot_of(cand);
    QIP_ASSERT(slot != kUnreached);
    const std::vector<NodeId>& fresh = compute_row(index, cand);
    if (fresh.size() == csr_.row_len[slot] &&
        std::equal(fresh.begin(), fresh.end(), csr_.row_begin(slot))) {
      continue;
    }
    patch_row(slot, fresh);
  }
  return true;
}

void TopologyCache::patch_row(std::uint32_t slot,
                              const std::vector<NodeId>& fresh) {
  const auto len = static_cast<std::uint32_t>(fresh.size());
  if (len <= csr_.row_cap[slot]) {
    std::copy(fresh.begin(), fresh.end(),
              csr_.pool.begin() + csr_.row_start[slot]);
    csr_.row_len[slot] = len;
    return;
  }
  pool_garbage_ += csr_.row_cap[slot];
  csr_.row_start[slot] = static_cast<std::uint32_t>(csr_.pool.size());
  csr_.row_len[slot] = len;
  csr_.row_cap[slot] = len + kRowSlack;
  csr_.pool.insert(csr_.pool.end(), fresh.begin(), fresh.end());
  csr_.pool.resize(csr_.pool.size() + kRowSlack);
}

// -- components --------------------------------------------------------------

const TopologyCache::Components& TopologyCache::components(
    const GridIndex& index) {
  if (comps_epoch_ == index.epoch()) return comps_;
  csr(index);
  SimContext& c = ctx_ ? *ctx_ : process_context();
  obs::ProfileScope prof("topo_components_rebuild", c.recorder(), c.metrics());
  rebuild_components();
  comps_epoch_ = index.epoch();
  return comps_;
}

void TopologyCache::rebuild_components() {
  // Label every live slot with its group; the outer scan ascends, so groups
  // are numbered by smallest member.
  const auto n = static_cast<std::uint32_t>(csr_.ids.size());
  comps_.group_of.assign(n, kUnreached);
  std::uint32_t groups = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    if (!csr_.live[r] || comps_.group_of[r] != kUnreached) continue;
    queue_.clear();
    queue_.push_back(r);
    comps_.group_of[r] = groups;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const std::uint32_t u = queue_[head];
      for (const NodeId* p = csr_.row_begin(u); p != csr_.row_end(u); ++p) {
        const std::uint32_t v = csr_.slot_of(*p);
        if (comps_.group_of[v] != kUnreached) continue;
        comps_.group_of[v] = groups;
        queue_.push_back(v);
      }
    }
    // The group reuses the last partition's vector at its index, sized
    // for its members before the fill below.
    if (groups == comps_.groups.size()) comps_.groups.emplace_back();
    comps_.groups[groups].clear();
    comps_.groups[groups].reserve(queue_.size());
    ++groups;
  }
  comps_.groups.resize(groups);
  // Slots ascend with ids, so one ascending scan fills every group already
  // sorted, with no per-group sort.
  for (std::uint32_t r = 0; r < n; ++r) {
    if (csr_.live[r]) comps_.groups[comps_.group_of[r]].push_back(csr_.ids[r]);
  }
}

// -- k-hop -------------------------------------------------------------------

const std::vector<std::pair<NodeId, std::uint32_t>>& TopologyCache::k_hop(
    const GridIndex& index, NodeId id, std::uint32_t k) {
  const std::uint64_t key = (static_cast<std::uint64_t>(id) << 32) | k;
  if (khop_.size() >= kMaxKHopEntries && khop_.find(key) == khop_.end()) {
    khop_.clear();
  }
  KHopEntry& entry = khop_[key];
  if (entry.epoch == index.epoch()) return entry.result;
  const Csr& graph = csr(index);
  const std::uint32_t src = graph.slot_of(id);
  QIP_ASSERT(src != kUnreached);
  entry.result.clear();
  bfs(graph, src, k, [&](std::uint32_t r, std::uint32_t d) {
    if (d > 0) entry.result.emplace_back(graph.ids[r], d);
  });
  std::sort(entry.result.begin(), entry.result.end());
  entry.epoch = index.epoch();
  return entry.result;
}

std::optional<std::uint32_t> TopologyCache::hop_distance(const Csr& graph,
                                                         std::uint32_t src,
                                                         std::uint32_t dst) {
  std::optional<std::uint32_t> found;
  bfs(graph, src, kUnreached, [&](std::uint32_t v, std::uint32_t d) {
    if (v != dst) return false;
    found = d;
    return true;
  });
  return found;
}

}  // namespace qip
