#include "harness/auditor.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "core/qip_engine.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace qip {

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

  // Uniqueness: within one connected component and one audit domain, every
  // configured address has exactly one holder.  Conflicts across components
  // (independent bootstraps) or domains (healed partitions pending merge,
  // §V-C) are never violations; conflicts within one domain become fatal
  // only after the grace window (see the header).  Detection/tolerance
  // schemes opt out entirely (audit_uniqueness()); the leak check below
  // still runs for them.
  if (proto_.audit_uniqueness()) {
    const SimTime now = sim_.now();
    std::set<std::pair<std::uint64_t, IpAddress>> observed;
    // The components partition is epoch-cached: probes between movement
    // steps reuse the same partition instead of re-running a full BFS sweep.
    for (const auto& component : topology_.components_view()) {
      std::map<std::pair<std::uint64_t, IpAddress>, std::vector<NodeId>>
          holders;
      for (NodeId id : component) {
        const auto addr = proto_.address_of(id);
        if (!addr) continue;
        holders[{proto_.audit_domain(id), *addr}].push_back(id);
      }
      for (auto& [key, hs] : holders) {
        if (hs.size() < 2) continue;
        std::sort(hs.begin(), hs.end());
        auto [pit, new_conflict] = pending_.try_emplace(key);
        PendingConflict& pc = pit->second;
        // The clock continues across observation gaps and holder-set growth
        // (see the header); it restarts only for a genuinely new conflict —
        // first sighting, or a re-collision that shares fewer than two
        // holders with the previous one (the old conflict resolved).
        std::vector<NodeId> carried;
        std::set_intersection(pc.holders.begin(), pc.holders.end(),
                              hs.begin(), hs.end(),
                              std::back_inserter(carried));
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
    }
    // Unobserved conflicts are carried, clock intact, until they have been
    // quiet for a full grace period — only then are they considered
    // resolved rather than flickering.
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (!observed.count(it->first) && now - it->second.last_seen > grace_)
        it = pending_.erase(it);
      else
        ++it;
    }
  }

  // Leak check (QIP): the engine must not retain addressed state for a node
  // that is gone from the field — such a ghost would keep its address
  // allocated forever.
  if (const auto* qip = dynamic_cast<const QipEngine*>(&proto_)) {
    for (const auto& [id, addr] : qip->configured_addresses()) {
      if (topology_.has_node(id)) continue;
      std::ostringstream diff;
      diff << "leaked address at t=" << sim_.now() << ": node " << id
           << " left the field but still holds " << addr
           << " in the engine's state";
      QIP_ASSERT_MSG(false, diff.str());
    }
  }
}

}  // namespace qip
