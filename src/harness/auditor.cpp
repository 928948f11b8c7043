#include "harness/auditor.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <set>
#include <sstream>
#include <tuple>

#include "core/qip_engine.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace qip {

namespace {

/// splitmix64's finalizer: spreads the near-sequential addresses of one
/// domain over the whole table.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

UniquenessAuditor::UniquenessAuditor(Simulator& sim, const Topology& topology,
                                     const AutoconfProtocol& proto,
                                     SimTime period, SimTime grace)
    : sim_(sim),
      topology_(topology),
      proto_(proto),
      grace_(grace),
      trace_(env_bool("QIP_AUDIT_TRACE", false)) {
  probe_token_ = sim_.add_probe(period, [this] { check_now(); });
}

UniquenessAuditor::~UniquenessAuditor() { sim_.remove_probe(probe_token_); }

void UniquenessAuditor::check_now() {
  ++checks_;
  // Detection/tolerance schemes opt out of the uniqueness check
  // (audit_uniqueness()).  The leak check reads QIP's engine state, so it
  // runs for QIP only.
  if (proto_.audit_uniqueness()) check_uniqueness();
  check_leaks();
}

void UniquenessAuditor::find_duplicates() {
  records_.clear();
  dups_.clear();
  // The components partition is epoch-cached: probes between movement
  // steps reuse the same partition instead of re-running a full BFS sweep.
  const auto& components = topology_.components_view();
  for (std::size_t c = 0; c < components.size(); ++c) {
    for (NodeId id : components[c]) {
      const auto addr = proto_.address_of(id);
      if (!addr) continue;
      records_.push_back({proto_.audit_domain(id),
                          static_cast<std::uint32_t>(c), *addr, id, false});
    }
  }

  std::size_t capacity = 16;
  while (capacity < 2 * records_.size()) capacity <<= 1;
  if (capacity > slots_.size()) {
    slots_.assign(capacity, Slot{});
    stamp_ = 0;
  }
  if (++stamp_ == 0) {  // the stamp wrapped: stale slots could read live
    std::fill(slots_.begin(), slots_.end(), Slot{});
    stamp_ = 1;
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    Record& r = records_[i];
    const std::uint64_t key =
        (std::uint64_t{r.component} << 32) | r.addr.value();
    for (std::size_t s = mix(key ^ mix(r.domain)) & mask;;
         s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.stamp != stamp_) {
        slot = {stamp_, i};
        break;
      }
      Record& first = records_[slot.record];
      if (first.key() != r.key()) continue;
      if (!first.duplicate) {
        first.duplicate = true;
        dups_.push_back(slot.record);
      }
      r.duplicate = true;
      dups_.push_back(i);
      break;
    }
  }
}

void UniquenessAuditor::check_uniqueness() {
  // Within one connected component and one audit domain, every configured
  // address has exactly one holder.  Conflicts across components
  // (independent bootstraps) or domains (healed partitions pending merge,
  // §V-C) are never violations; conflicts within one domain become fatal
  // only after the grace window (see the header).
  find_duplicates();
  const SimTime now = sim_.now();
  std::set<std::pair<std::uint64_t, IpAddress>> observed;
  // Conflicts by (component, domain, address), each key's holders ascending.
  std::sort(dups_.begin(), dups_.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Record& ra = records_[a];
    const Record& rb = records_[b];
    return std::pair(ra.key(), ra.node) < std::pair(rb.key(), rb.node);
  });
  std::vector<NodeId> hs;
  for (std::size_t lo = 0; lo < dups_.size();) {
    const Record& head = records_[dups_[lo]];
    hs.clear();
    for (; lo < dups_.size() && records_[dups_[lo]].key() == head.key(); ++lo)
      hs.push_back(records_[dups_[lo]].node);
    const std::pair key{head.domain, head.addr};
    auto [pit, new_conflict] = pending_.try_emplace(key);
    PendingConflict& pc = pit->second;
    // The clock continues across observation gaps and holder-set growth
    // (see the header); it restarts only for a genuinely new conflict —
    // first sighting, or a re-collision that shares fewer than two
    // holders with the previous one (the old conflict resolved).
    std::vector<NodeId> carried;
    std::set_intersection(pc.holders.begin(), pc.holders.end(), hs.begin(),
                          hs.end(), std::back_inserter(carried));
    if (new_conflict || carried.size() < 2) pc.since = now;
    pc.holders = hs;
    pc.last_seen = now;
    observed.insert(key);
    if (now - pc.since < grace_) continue;
    std::ostringstream diff;
    diff << "duplicate address at t=" << now << ": " << key.second
         << " held by nodes " << hs[0] << " and " << hs[1];
    if (hs.size() > 2) diff << " (and " << hs.size() - 2 << " more)";
    diff << " in the same connected component since t=" << pc.since
         << " (grace " << grace_ << "s exceeded; domain " << key.first
         << ", protocol " << proto_.name() << ")";
    // Observe-only escape hatch for debugging conflict timelines.
    if (trace_) {
      std::fprintf(stderr, "[audit] %s\n", diff.str().c_str());
      continue;
    }
    QIP_ASSERT_MSG(false, diff.str());
  }
  // Unobserved conflicts are carried, clock intact, until they have been
  // quiet for a full grace period — only then are they considered resolved
  // rather than flickering.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!observed.count(it->first) && now - it->second.last_seen > grace_)
      it = pending_.erase(it);
    else
      ++it;
  }
}

void UniquenessAuditor::check_leaks() {
  // The QIP engine must not retain addressed state for a node that is gone
  // from the field — such a ghost would keep its address allocated forever.
  const auto* qip = dynamic_cast<const QipEngine*>(&proto_);
  if (qip == nullptr) return;
  // The uniqueness pass just recorded every addressed node on the field,
  // and each of them is an addressed engine node: the counts are equal
  // exactly when no addressed node is off the field.  Only a mismatch pays
  // a field lookup per node to name the ghost.
  if (proto_.audit_uniqueness()) {
    std::size_t addressed = 0;
    qip->for_each_configured([&](NodeId, IpAddress) { ++addressed; });
    if (addressed == records_.size()) return;
  }
  qip->for_each_configured([&](NodeId id, IpAddress addr) {
    if (topology_.has_node(id)) return;
    std::ostringstream diff;
    diff << "leaked address at t=" << sim_.now() << ": node " << id
         << " left the field but still holds " << addr
         << " in the engine's state";
    QIP_ASSERT_MSG(false, diff.str());
  });
}

}  // namespace qip
