#include "net/failure_detector.hpp"

#include <algorithm>

#include "net/transport.hpp"

namespace qip {

SwimDetector::SwimDetector(Transport& transport)
    : SwimDetector(transport, Params{}) {}

SwimDetector::SwimDetector(Transport& transport, Params params)
    : transport_(transport), params_(params) {}

void SwimDetector::observe(NodeId observer, const std::vector<NodeId>& peers) {
  if (inflight_.count(observer)) return;  // one probe in flight per observer

  std::vector<NodeId> watch(peers.begin(), peers.end());
  std::sort(watch.begin(), watch.end());
  watch.erase(std::unique(watch.begin(), watch.end()), watch.end());
  watch.erase(std::remove(watch.begin(), watch.end(), observer), watch.end());
  if (watch.empty()) return;

  // Round-robin: the first member strictly after the previous target.
  NodeId last = kNoNode;
  if (const auto c = cursor_.find(observer); c != cursor_.end())
    last = c->second;
  auto pick = std::upper_bound(watch.begin(), watch.end(), last);
  if (pick == watch.end()) pick = watch.begin();
  const NodeId target = *pick;
  cursor_[observer] = target;

  const std::uint64_t id = next_probe_++;
  Probe& probe = probes_[id];
  probe.observer = observer;
  probe.target = target;
  for (NodeId n : watch) {
    if (n == target) continue;
    if (probe.proxies.size() >= params_.proxies) break;
    probe.proxies.push_back(n);
  }
  inflight_[observer] = id;

  // Direct ping: delivered to the target, which acks iff it still serves
  // probes.  An unreachable target charges nothing and simply stays silent.
  transport_.unicast(observer, target, Traffic::kMaintenance,
                     [this, id](NodeId tgt, std::uint32_t) {
                       const auto it = probes_.find(id);
                       if (it == probes_.end()) return;
                       if (!responds_ || !responds_(tgt)) return;
                       transport_.unicast(tgt, it->second.observer,
                                          Traffic::kMaintenance,
                                          [this, id](NodeId, std::uint32_t) {
                                            ack(id);
                                          });
                     });
  probe.direct_timer = transport_.sim().after(
      params_.ack_timeout, [this, id] { start_indirect(id); });
}

void SwimDetector::start_indirect(std::uint64_t probe_id) {
  const auto it = probes_.find(probe_id);
  if (it == probes_.end()) return;
  Probe& probe = it->second;
  probe.indirect_started = true;
  if (probe.proxies.empty()) {
    finish(probe_id, false);
    return;
  }
  // Ping-req: ask each proxy to ping the target; a serving target acks the
  // proxy, which relays the ack home.  Any one relay suffices.
  for (NodeId proxy : probe.proxies) {
    transport_.unicast(
        probe.observer, proxy, Traffic::kMaintenance,
        [this, probe_id](NodeId via, std::uint32_t) {
          const auto pit = probes_.find(probe_id);
          if (pit == probes_.end()) return;
          if (!responds_ || !responds_(via)) return;
          const NodeId target = pit->second.target;
          transport_.unicast(
              via, target, Traffic::kMaintenance,
              [this, probe_id, via](NodeId tgt, std::uint32_t) {
                const auto qit = probes_.find(probe_id);
                if (qit == probes_.end()) return;
                if (!responds_ || !responds_(tgt)) return;
                const NodeId home = qit->second.observer;
                transport_.unicast(
                    tgt, via, Traffic::kMaintenance,
                    [this, probe_id, home](NodeId relay, std::uint32_t) {
                      if (!probes_.count(probe_id)) return;
                      transport_.unicast(relay, home, Traffic::kMaintenance,
                                         [this, probe_id](NodeId,
                                                          std::uint32_t) {
                                           ack(probe_id);
                                         });
                    });
              });
        });
  }
  probe.indirect_timer = transport_.sim().after(
      params_.indirect_timeout, [this, probe_id] { finish(probe_id, false); });
}

void SwimDetector::ack(std::uint64_t probe_id) { finish(probe_id, true); }

void SwimDetector::finish(std::uint64_t probe_id, bool acked) {
  const auto it = probes_.find(probe_id);
  if (it == probes_.end()) return;
  Probe probe = std::move(it->second);
  probe.direct_timer.cancel();
  probe.indirect_timer.cancel();
  probes_.erase(it);
  const auto inf = inflight_.find(probe.observer);
  if (inf != inflight_.end() && inf->second == probe_id) inflight_.erase(inf);

  const auto key = std::make_pair(probe.observer, probe.target);
  if (acked)
    misses_.erase(key);
  else
    ++misses_[key];
}

bool SwimDetector::suspects(NodeId observer, NodeId peer) const {
  const auto it = misses_.find(std::make_pair(observer, peer));
  return it != misses_.end() && it->second >= params_.confirm_misses;
}

std::uint32_t SwimDetector::misses(NodeId observer, NodeId peer) const {
  const auto it = misses_.find(std::make_pair(observer, peer));
  return it == misses_.end() ? 0 : it->second;
}

void SwimDetector::clear(NodeId observer, NodeId peer) {
  // The in-flight probe (if any) is left to finish; a single re-added miss
  // stays below confirm_misses, so no stale suspicion survives.
  misses_.erase(std::make_pair(observer, peer));
}

void SwimDetector::forget(NodeId peer) {
  for (auto it = probes_.begin(); it != probes_.end();) {
    if (it->second.observer == peer || it->second.target == peer) {
      it->second.direct_timer.cancel();
      it->second.indirect_timer.cancel();
      const auto inf = inflight_.find(it->second.observer);
      if (inf != inflight_.end() && inf->second == it->first)
        inflight_.erase(inf);
      it = probes_.erase(it);
    } else {
      ++it;
    }
  }
  cursor_.erase(peer);
  for (auto it = misses_.begin(); it != misses_.end();) {
    if (it->first.first == peer || it->first.second == peer)
      it = misses_.erase(it);
    else
      ++it;
  }
}

}  // namespace qip
