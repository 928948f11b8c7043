#include "net/transport.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "sim/sim_context.hpp"
#include "util/assert.hpp"

namespace qip {

namespace {
// All transport trace events live behind ctx().tracing_on() and draw no
// randomness, so traced runs stay byte-identical to untraced ones.
void trace_drop(obs::TraceRecorder& rec, double now, NodeId to,
                const char* reason) {
  rec.instant(now, "drop", "net.drop", to, {{"reason", reason}});
}
}  // namespace

Transport::Transport(Simulator& sim, Topology& topology, MessageStats& stats,
                     SimTime per_hop_delay)
    : sim_(sim),
      topology_(topology),
      stats_(stats),
      per_hop_delay_(per_hop_delay) {
  QIP_ASSERT(per_hop_delay >= 0.0);
}

bool Transport::can_transmit(NodeId id) const {
  if (!topology_.has_node(id)) return false;
  if (faults_active() && !faults_->node_up(id, sim_.now())) {
    faults_->note_blocked_send();
    if (ctx().tracing_on()) {
      trace_drop(ctx().recorder(), sim_.now(), id, "send_blocked");
    }
    return false;
  }
  return true;
}

static_assert(sizeof(Transport::Receiver) == 40,
              "the delivery closure below is sized around a 40-byte Receiver");

void Transport::schedule_delivery(NodeId to, std::uint32_t hops, SimTime extra,
                                  Receiver on_deliver) {
  auto deliver = [this, to, hops, fn = std::move(on_deliver)]() mutable {
    // The destination may have departed while the message was in flight; a
    // vanished radio hears nothing.
    if (!topology_.has_node(to)) {
      stats_.note_dropped_in_flight();
      if (ctx().tracing_on())
        trace_drop(ctx().recorder(), sim_.now(), to, "in_flight_departed");
      return;
    }
    // Likewise a radio that crashed after the send instant.
    if (faults_active() && !faults_->node_up(to, sim_.now())) {
      faults_->note_blackout();
      if (ctx().tracing_on())
        trace_drop(ctx().recorder(), sim_.now(), to, "in_flight_crash");
      return;
    }
    if (ctx().tracing_on()) {
      ctx().recorder().instant(sim_.now(), "deliver", "net.rx", to,
                               {{"hops", hops}});
    }
    fn(to, hops);
  };
  // An inline receiver then costs zero allocations from send to delivery.
  static_assert(EventFn::fits_inline<decltype(deliver)>(),
                "the delivery closure must fit EventFn's inline buffer");
  sim_.post(static_cast<SimTime>(hops) * per_hop_delay_ + extra,
            std::move(deliver));
}

void Transport::deliver_later(NodeId from, NodeId to, std::uint32_t hops,
                              Receiver on_deliver) {
  QIP_ASSERT(static_cast<bool>(on_deliver));
  if (faults_active()) {
    const auto fate = faults_->judge(from, to, sim_.now());
    if (ctx().tracing_on()) {
      if (fate.copies == 0) {
        trace_drop(ctx().recorder(), sim_.now(), to,
                   fate.drop_reason ? fate.drop_reason : "?");
      } else if (fate.copies > 1) {
        ctx().recorder().instant(sim_.now(), "dup", "net.drop", to);
      }
    }
    for (std::uint32_t c = 0; c < fate.copies; ++c) {
      schedule_delivery(to, hops, fate.extra[c], on_deliver);
    }
    return;
  }
  schedule_delivery(to, hops, 0.0, std::move(on_deliver));
}

std::optional<std::uint32_t> Transport::unicast(NodeId from, NodeId to,
                                                Traffic t,
                                                Receiver on_deliver) {
  // A sender that already left the field cannot transmit (protocol timers
  // can fire in the same instant a node departs); a crashed radio is the
  // same, except the transmission attempt is tallied by the injector.
  if (!can_transmit(from) || !topology_.has_node(to)) return std::nullopt;
  const auto hops = topology_.hop_distance(from, to);
  if (!hops) return std::nullopt;
  stats_.record(t, *hops);
  if (ctx().tracing_on()) {
    ctx().recorder().instant(
        sim_.now(), "unicast", "net", from,
        {{"traffic", to_string(t)}, {"to", to}, {"hops", *hops}});
  }
  deliver_later(from, to, *hops, std::move(on_deliver));
  return hops;
}

const std::vector<NodeId>& Transport::local_broadcast_view(
    NodeId from, Traffic t, Receiver on_deliver) {
  reached_.clear();
  if (!can_transmit(from)) return reached_;
  const auto& heard = topology_.neighbors_view(from);
  reached_.assign(heard.begin(), heard.end());
  stats_.record(t, 1);  // one transmission regardless of audience size
  if (ctx().tracing_on()) {
    ctx().recorder().instant(
        sim_.now(), "bcast", "net", from,
        {{"traffic", to_string(t)},
         {"hops", std::uint32_t{1}},
         {"heard", static_cast<std::uint64_t>(reached_.size())}});
  }
  for (NodeId n : reached_) deliver_later(from, n, 1, on_deliver);
  return reached_;
}

const std::vector<NodeId>& Transport::flood_view(NodeId from,
                                                 std::uint32_t radius,
                                                 Traffic t,
                                                 Receiver on_deliver) {
  reached_.clear();
  if (!can_transmit(from)) return reached_;
  QIP_ASSERT(radius >= 1);
  obs::ProfileScope prof("transport_flood", ctx().recorder(), ctx().metrics());
  return deliver_flood(from, radius, topology_.k_hop_view(from, radius), t,
                       std::move(on_deliver));
}

const std::vector<NodeId>& Transport::deliver_flood(
    NodeId from, std::uint32_t radius,
    const std::vector<std::pair<NodeId, std::uint32_t>>& in_range, Traffic t,
    Receiver on_deliver) {
  // Transmissions: the sender plus every node that relays (distance < radius).
  std::uint64_t transmissions = 1;
  for (const auto& [node, d] : in_range)
    if (d < radius) ++transmissions;
  stats_.record(t, transmissions, /*messages=*/1);
  if (ctx().tracing_on()) {
    ctx().recorder().instant(
        sim_.now(), "flood", "net", from,
        {{"traffic", to_string(t)},
         {"radius", radius},
         {"hops", transmissions},
         {"reached", static_cast<std::uint64_t>(in_range.size())}});
  }
  reached_.reserve(in_range.size());
  for (const auto& [node, d] : in_range) {
    reached_.push_back(node);
    deliver_later(from, node, d, on_deliver);
  }
  return reached_;
}

const std::vector<NodeId>& Transport::flood_component_view(
    NodeId from, Traffic t, Receiver on_deliver) {
  reached_.clear();
  if (!can_transmit(from)) return reached_;
  // The cached components partition answers "is the sender alone?" without
  // a BFS.
  if (topology_.component_view(from).size() == 1) {
    // Isolated sender: one futile transmission.
    stats_.record(t, 1, 1);
    if (ctx().tracing_on()) {
      ctx().recorder().instant(
          sim_.now(), "flood", "net", from,
          {{"traffic", to_string(t)},
           {"hops", std::uint32_t{1}},
           {"reached", std::uint32_t{0}}});
    }
    return reached_;
  }
  obs::ProfileScope prof("transport_flood", ctx().recorder(), ctx().metrics());
  // One reachability pass yields both the flood radius (the sender's
  // eccentricity, the deepest BFS level) and the (node, hops) pairs a scoped
  // flood of that radius reaches; sorted by id they are exactly its
  // k_hop_view, without memoizing a component-sized entry.
  component_hops_.clear();
  std::uint32_t ecc = 0;
  topology_.for_each_reachable(from, [&](NodeId n, std::uint32_t d) {
    if (d == 0) return;
    component_hops_.emplace_back(n, d);
    ecc = std::max(ecc, d);
  });
  std::sort(component_hops_.begin(), component_hops_.end());
  return deliver_flood(from, ecc, component_hops_, t, std::move(on_deliver));
}

}  // namespace qip
