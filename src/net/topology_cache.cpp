#include "net/topology_cache.hpp"

#include "obs/profile.hpp"
#include "sim/sim_context.hpp"
#include "util/assert.hpp"

namespace qip {

namespace {

std::pair<NodeId, NodeId> ordered_pair(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

const std::vector<NodeId>& TopologyCache::neighbors(const GridIndex& index,
                                                    NodeId id) {
  AdjRow& row = adj_[id];
  const Point& pos = index.position(id);
  if (row.epoch == 0 || index.window_version(pos, range_) > row.epoch) {
    index.query_into(pos, range_, static_cast<std::int64_t>(id), row.nbrs);
    std::sort(row.nbrs.begin(), row.nbrs.end());
    // The unit-disk adjacency must be simple: strictly ascending (a
    // duplicated id in the index would corrupt every BFS on top) and never
    // containing the node itself.
    QIP_ASSERT(std::adjacent_find(row.nbrs.begin(), row.nbrs.end()) ==
               row.nbrs.end());
    QIP_ASSERT(!std::binary_search(row.nbrs.begin(), row.nbrs.end(), id));
    row.epoch = index.epoch();
  }
  return row.nbrs;
}

// -- dirty-edge journal ------------------------------------------------------

void TopologyCache::journal_push(JournalEvent ev) {
  if (journal_overflow_) return;
  // A patch pays a grid query per event, sorts the candidates and then
  // recomputes their rows; a rebuild recomputes only stale rows.  Once a
  // quarter of the snapshot is journaled the rebuild is cheaper (caps of
  // 1/2, 1/4 and 1/8 measure alike), so let csr() take that path.
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

void TopologyCache::reset_comp_diffs() {
  added_ids_.clear();
  edge_adds_.clear();
  edge_removes_.clear();
  removal_ids_.clear();
  removal_nbrs_.clear();
  removal_spans_.clear();
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
    const std::vector<NodeId>& fresh = neighbors(index, ids[r]);
    const auto len = static_cast<std::uint32_t>(fresh.size());
    csr_.row_start[r] = static_cast<std::uint32_t>(csr_.pool.size());
    csr_.row_len[r] = len;
    csr_.row_cap[r] = len + kRowSlack;
    csr_.pool.insert(csr_.pool.end(), fresh.begin(), fresh.end());
    csr_.pool.resize(csr_.pool.size() + kRowSlack);
  }
  pool_garbage_ = 0;
  // Slots were renumbered, so the slot-indexed components bookkeeping (and
  // any pending repair diff) is void.
  comps_epoch_ = kNoEpoch;
  comps_base_valid_ = false;
  reset_comp_diffs();
  // Adjacency rows of long-departed nodes would otherwise accumulate across
  // id churn; prune opportunistically once they dominate the table.
  if (adj_.size() > 2 * std::size_t{n} + 64) {
    for (auto it = adj_.begin(); it != adj_.end();) {
      if (std::binary_search(ids.begin(), ids.end(), it->first)) {
        ++it;
      } else {
        it = adj_.erase(it);
      }
    }
  }
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
      index.query_into(ev.pos, range_, -1, cand_buf_);
      candidates_.insert(candidates_.end(), cand_buf_.begin(), cand_buf_.end());
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
  // of them, and recomputing a row costs the same here as in a rebuild —
  // but a patch preserves the components-repair base, a rebuild does not.

  // ---- mutation: tombstone removals (capturing former rows) --------------
  for (NodeId id : ev_ids_) {
    if (index.contains(id)) continue;
    const std::uint32_t slot = csr_.slot_of(id);
    if (slot == kUnreached) continue;  // added and removed within the journal
    if (comps_base_valid_) {
      removal_ids_.push_back(id);
      const auto b = static_cast<std::uint32_t>(removal_nbrs_.size());
      removal_nbrs_.insert(removal_nbrs_.end(), csr_.row_begin(slot),
                           csr_.row_end(slot));
      removal_spans_.emplace_back(
          b, static_cast<std::uint32_t>(removal_nbrs_.size()));
    }
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

  // ---- mutation: recompute candidate rows, collecting edge diffs ---------
  for (NodeId cand : candidates_) {
    if (!index.contains(cand)) continue;  // handled as a removal above
    const std::uint32_t slot = csr_.slot_of(cand);
    QIP_ASSERT(slot != kUnreached);
    const std::vector<NodeId>& fresh = neighbors(index, cand);
    const NodeId* ob = csr_.row_begin(slot);
    const NodeId* oe = csr_.row_end(slot);
    if (fresh.size() == static_cast<std::size_t>(oe - ob) &&
        std::equal(fresh.begin(), fresh.end(), ob)) {
      continue;
    }
    if (comps_base_valid_) {
      // Two-pointer diff; every changed edge shows up in both endpoints'
      // rows, so the repair pass dedups the pairs.
      auto fi = fresh.begin();
      const NodeId* oi = ob;
      while (fi != fresh.end() || oi != oe) {
        if (oi == oe || (fi != fresh.end() && *fi < *oi)) {
          edge_adds_.push_back(ordered_pair(cand, *fi));
          ++fi;
        } else if (fi == fresh.end() || *oi < *fi) {
          edge_removes_.push_back(ordered_pair(cand, *oi));
          ++oi;
        } else {
          ++fi;
          ++oi;
        }
      }
    }
    patch_row(slot, fresh);
  }

  if (comps_base_valid_) {
    added_ids_.insert(added_ids_.end(), new_ids_.begin(), new_ids_.end());
    if (edge_adds_.size() + edge_removes_.size() > kMaxPendingEdges ||
        removal_ids_.size() > kMaxPendingRemovals) {
      comps_base_valid_ = false;
      reset_comp_diffs();
    }
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
  SimContext& c = ctx_ ? *ctx_ : process_context();
  csr(index);  // patch or rebuild first; may void comps_base_valid_
  if (comps_base_valid_ && comps_epoch_ != kNoEpoch) {
    obs::ProfileScope prof("topo_components_repair", c.recorder(),
                           c.metrics());
    if (repair_components()) {
      ++component_repairs_;
      reset_comp_diffs();
      comps_epoch_ = index.epoch();
      return comps_;
    }
    // comps_ is half-mutated garbage now; the rebuild below overwrites it.
    ++repair_bailouts_;
    comps_base_valid_ = false;
  }
  obs::ProfileScope prof("topo_components_rebuild", c.recorder(), c.metrics());
  rebuild_components();
  comps_base_valid_ = true;
  reset_comp_diffs();
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

bool TopologyCache::repair_components() {
  std::size_t work = 0;
  comps_.group_of.resize(csr_.ids.size(), kUnreached);

  // (a) Batch-erase removed members.  Former members of a group can only
  // raise its smallest member, so a filtered group either keeps its
  // position or moves right (erase + re-insert).  Descending order keeps
  // unprocessed group indices stable across those erases.
  if (!removal_ids_.empty()) {
    scratch_pairs_.clear();
    for (NodeId id : removal_ids_) {
      const std::uint32_t slot = csr_.slot_any(id);
      QIP_ASSERT(slot != kUnreached);
      const std::uint32_t g = comps_.group_of[slot];
      if (g >= comps_.groups.size()) continue;  // was never in the base
      scratch_pairs_.emplace_back(g, id);
    }
    std::sort(scratch_pairs_.begin(), scratch_pairs_.end());
    for (std::size_t hi = scratch_pairs_.size(); hi > 0;) {
      const std::size_t lo_group = scratch_pairs_[hi - 1].first;
      std::size_t lo = hi;
      while (lo > 0 && scratch_pairs_[lo - 1].first == lo_group) --lo;
      auto& members = comps_.groups[lo_group];
      const NodeId old_front = members.front();
      auto out = members.begin();
      std::size_t next = lo;
      for (auto in = members.begin(); in != members.end(); ++in) {
        if (next < hi && *in == scratch_pairs_[next].second) {
          ++next;
          continue;
        }
        *out++ = *in;
      }
      QIP_ASSERT(next == hi);
      members.erase(out, members.end());
      work += members.size() + (hi - lo);
      if (members.empty()) {
        if (!erase_group(lo_group, &work)) return false;
      } else if (members.front() != old_front &&
                 lo_group + 1 < comps_.groups.size() &&
                 comps_.groups[lo_group + 1].front() < members.front()) {
        std::vector<NodeId> moved;
        moved.swap(members);
        if (!erase_group(lo_group, &work)) return false;
        if (!insert_group(std::move(moved), &work)) return false;
      }
      hi = lo;
    }
  }

  // (b) Singletons for nodes added since the base.  Their ids exceed every
  // base id (patch precondition), so appending keeps the group order.
  for (NodeId id : added_ids_) {
    const std::uint32_t slot = csr_.slot_of(id);
    if (slot == kUnreached) continue;  // added then removed again
    comps_.group_of[slot] = static_cast<std::uint32_t>(comps_.groups.size());
    comps_.groups.push_back({id});
    ++work;
  }

  // (c) Merges.  Groups are ordered by smallest member, so the absorber is
  // simply the smaller group index and its position never changes.
  std::sort(edge_adds_.begin(), edge_adds_.end());
  edge_adds_.erase(std::unique(edge_adds_.begin(), edge_adds_.end()),
                   edge_adds_.end());
  for (const auto& [u, v] : edge_adds_) {
    const std::uint32_t su = csr_.slot_of(u);
    const std::uint32_t sv = csr_.slot_of(v);
    if (su == kUnreached || sv == kUnreached) continue;  // endpoint gone
    const std::uint32_t gu = comps_.group_of[su];
    const std::uint32_t gv = comps_.group_of[sv];
    if (gu == gv) continue;
    const std::uint32_t ga = std::min(gu, gv);
    const std::uint32_t gb = std::max(gu, gv);
    auto& absorber = comps_.groups[ga];
    auto& absorbed = comps_.groups[gb];
    work += absorbed.size();
    for (NodeId m : absorbed) comps_.group_of[csr_.slot_of(m)] = ga;
    if (absorbed.front() > absorber.back()) {
      // The common flash-crowd shape: a fresh high-id singleton joins an
      // established group — a plain append keeps the members sorted.
      absorber.insert(absorber.end(), absorbed.begin(), absorbed.end());
    } else {
      scratch_merge_.clear();
      scratch_merge_.reserve(absorber.size() + absorbed.size());
      std::merge(absorber.begin(), absorber.end(), absorbed.begin(),
                 absorbed.end(), std::back_inserter(scratch_merge_));
      absorber.swap(scratch_merge_);
      work += absorber.size();
    }
    if (!erase_group(gb, &work)) return false;
    if (work > kRepairWorkBudget) return false;
  }

  // (d) Splits.  After (a)-(c) every true component lies inside one group
  // (edges present in the base or added since are all reflected), so the
  // groups form a coarsening; the bounded searches below refine it.  The
  // suspects are the live endpoints of removed edges plus the live former
  // neighbors of removed nodes.  Every genuinely split-off fragment
  // contains a suspect: walk an old-graph path out of the fragment — its
  // first hop either was removed directly (edge record) or led into a
  // since-removed node (former-neighbor record).  Connectivity is
  // transitive across records (two suspects may have been bridged by a
  // third, since-departed node), so the suspects are resolved collectively:
  // a group is intact iff all of its suspects are mutually connected.
  targets_.clear();
  for (const auto& [u, v] : edge_removes_) {
    if (csr_.slot_of(u) != kUnreached) targets_.push_back(u);
    if (csr_.slot_of(v) != kUnreached) targets_.push_back(v);
  }
  for (const auto& [b, e] : removal_spans_) {
    for (std::uint32_t j = b; j < e; ++j) {
      const NodeId nbr = removal_nbrs_[j];
      if (csr_.slot_of(nbr) != kUnreached) targets_.push_back(nbr);
    }
  }
  if (targets_.size() >= 2 && !resolve_targets(&work)) return false;
  return true;
}

bool TopologyCache::resolve_targets(std::size_t* work) {
  std::sort(targets_.begin(), targets_.end());
  targets_.erase(std::unique(targets_.begin(), targets_.end()),
                 targets_.end());
  // In-place "targets_ \= drop" for two sorted vectors.
  const auto prune = [this](const std::vector<NodeId>& drop) {
    auto out = targets_.begin();
    auto di = drop.begin();
    for (auto in = targets_.begin(); in != targets_.end(); ++in) {
      while (di != drop.end() && *di < *in) ++di;
      if (di != drop.end() && *di == *in) continue;
      *out++ = *in;
    }
    targets_.erase(out, targets_.end());
  };
  while (targets_.size() >= 2) {
    const NodeId t0 = targets_.front();
    const std::uint32_t g0 = comps_.group_of[csr_.slot_of(t0)];
    // Targets in other groups were separated by an earlier verified split,
    // so only same-group peers still pose a connectivity question.
    peers_.clear();
    for (std::size_t i = 1; i < targets_.size(); ++i) {
      if (comps_.group_of[csr_.slot_of(targets_[i])] == g0) {
        peers_.push_back(targets_[i]);
      }
    }
    if (peers_.empty()) {
      targets_.erase(targets_.begin());
      continue;
    }
    const ReachOutcome out = bounded_reach(t0);
    if (out == ReachOutcome::kBudget) return false;
    *work += scratch_reach_.size();
    if (out == ReachOutcome::kAllFound) {
      // t0 reaches every same-group peer: all mutually connected, resolved.
      targets_.erase(targets_.begin());
      prune(peers_);
      continue;
    }
    // Frontier exhausted: scratch_reach_ is t0's complete component.  Any
    // target inside it now lives in a fully verified group.
    if (!apply_split(g0, work)) return false;
    prune(scratch_reach_);
    if (*work > kRepairWorkBudget) return false;
  }
  return true;
}

bool TopologyCache::apply_split(std::uint32_t g, std::size_t* work) {
  auto& members = comps_.groups[g];
  // scratch_reach_ is a true component and groups coarsen the true
  // partition, so reach ⊆ members; equal sizes means the group was intact.
  QIP_ASSERT(scratch_reach_.size() <= members.size());
  if (scratch_reach_.size() == members.size()) return true;
  std::vector<NodeId> part(scratch_reach_.begin(), scratch_reach_.end());
  std::vector<NodeId> rest;
  rest.reserve(members.size() - part.size());
  std::set_difference(members.begin(), members.end(), part.begin(),
                      part.end(), std::back_inserter(rest));
  *work += members.size();
  if (!erase_group(g, work)) return false;
  if (!insert_group(std::move(part), work)) return false;
  return insert_group(std::move(rest), work);
}

bool TopologyCache::insert_group(std::vector<NodeId> group,
                                 std::size_t* work) {
  const NodeId front = group.front();
  const auto it = std::lower_bound(
      comps_.groups.begin(), comps_.groups.end(), front,
      [](const std::vector<NodeId>& g, NodeId f) { return g.front() < f; });
  const auto pos = static_cast<std::size_t>(it - comps_.groups.begin());
  comps_.groups.insert(it, std::move(group));
  for (std::size_t j = pos; j < comps_.groups.size(); ++j) {
    for (NodeId m : comps_.groups[j]) {
      comps_.group_of[csr_.slot_of(m)] = static_cast<std::uint32_t>(j);
    }
    *work += comps_.groups[j].size();
  }
  return *work <= kRepairWorkBudget;
}

bool TopologyCache::erase_group(std::size_t g, std::size_t* work) {
  comps_.groups.erase(comps_.groups.begin() + static_cast<std::ptrdiff_t>(g));
  for (std::size_t j = g; j < comps_.groups.size(); ++j) {
    for (NodeId m : comps_.groups[j]) {
      comps_.group_of[csr_.slot_of(m)] = static_cast<std::uint32_t>(j);
    }
    *work += comps_.groups[j].size();
  }
  return *work <= kRepairWorkBudget;
}

TopologyCache::ReachOutcome TopologyCache::bounded_reach(NodeId from) {
  ReachOutcome outcome = ReachOutcome::kExhausted;
  std::size_t found = 0;
  scratch_reach_.clear();
  bfs(csr_, csr_.slot_of(from), kUnreached,
      [&](std::uint32_t v, std::uint32_t depth) {
        const NodeId id = csr_.ids[v];
        scratch_reach_.push_back(id);
        if (depth == 0) return false;
        if (std::binary_search(peers_.begin(), peers_.end(), id) &&
            ++found == peers_.size()) {
          outcome = ReachOutcome::kAllFound;
          return true;
        }
        if (scratch_reach_.size() > kSplitVisitBudget) {
          outcome = ReachOutcome::kBudget;
          return true;
        }
        return false;
      });
  if (outcome == ReachOutcome::kExhausted) {
    std::sort(scratch_reach_.begin(), scratch_reach_.end());
  }
  return outcome;
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
  entry.result.clear();
  if (csr_epoch_ == index.epoch()) {
    // A current snapshot exists (some unbounded query built it this epoch):
    // ride its dense arrays.
    const auto src = csr_.rank_of(id);
    QIP_ASSERT(src.has_value());
    bfs(csr_, *src, k, [&](std::uint32_t r, std::uint32_t d) {
      if (d > 0) entry.result.emplace_back(csr_.ids[r], d);
    });
  } else {
    // Bounded queries stay local: BFS over the memoized adjacency rows so a
    // 2-/3-hop question never pays for a whole-graph snapshot rebuild.  The
    // visited set is an id-indexed stamp table (ids are driver-dense), so
    // the steady-state re-query allocates nothing.
    bool fast = std::size_t{id} < kIdStampLimit;
    if (fast) {
      const std::uint64_t token = ++id_stamp_token_;
      if (id_stamp_.size() <= id) id_stamp_.resize(std::size_t{id} + 1, 0);
      id_stamp_[id] = token;
      khop_frontier_.clear();
      khop_frontier_.emplace_back(id, 0u);
      for (std::size_t head = 0; fast && head < khop_frontier_.size();
           ++head) {
        const auto [u, d] = khop_frontier_[head];
        if (d == k) continue;
        for (NodeId v : neighbors(index, u)) {
          if (std::size_t{v} >= kIdStampLimit) {
            fast = false;
            break;
          }
          if (id_stamp_.size() <= v) {
            id_stamp_.resize(
                std::max(std::size_t{v} + 1, id_stamp_.size() * 2), 0);
          }
          if (id_stamp_[v] == token) continue;
          id_stamp_[v] = token;
          entry.result.emplace_back(v, d + 1);
          khop_frontier_.emplace_back(v, d + 1);
        }
      }
      if (!fast) entry.result.clear();
    }
    if (!fast) {
      std::unordered_map<NodeId, std::uint32_t> dist{{id, 0}};
      std::vector<std::pair<NodeId, std::uint32_t>> frontier{{id, 0}};
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const auto [u, d] = frontier[head];
        if (d == k) continue;
        for (NodeId v : neighbors(index, u)) {
          if (!dist.emplace(v, d + 1).second) continue;
          entry.result.emplace_back(v, d + 1);
          frontier.emplace_back(v, d + 1);
        }
      }
    }
  }
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
