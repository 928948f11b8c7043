#include "net/reliable_channel.hpp"

#include "sim/sim_context.hpp"
#include "util/assert.hpp"

namespace qip {

ReliableChannel::ReliableChannel(Transport& transport, ReliableParams params)
    : transport_(transport), params_(params) {
  QIP_ASSERT(params_.retry_timeout > 0.0);
  QIP_ASSERT(params_.backoff >= 1.0);
}

ReliableChannel::~ReliableChannel() {
  for (auto& [seq, p] : pending_) p.timer.cancel();
}

std::optional<std::uint32_t> ReliableChannel::send(NodeId from, NodeId to,
                                                   Traffic traffic,
                                                   Receiver on_deliver) {
  if (!active()) {
    // Paper model (or force-disabled): a plain metered unicast, no acks, no
    // sequence numbers, no state — byte-identical to the seed behavior.
    return transport_.unicast(from, to, traffic, std::move(on_deliver));
  }

  const std::uint64_t seq = next_seq_++;
  Pending p;
  p.from = from;
  p.to = to;
  p.traffic = traffic;
  p.on_deliver = std::move(on_deliver);
  p.timeout = params_.retry_timeout;
  auto [it, fresh] = pending_.emplace(seq, std::move(p));
  QIP_ASSERT(fresh);

  // First attempt: a synchronous routing failure is reported to the caller
  // exactly like a raw unicast (and nothing is retried) so the protocol's
  // own unreachable-destination fallbacks keep working unchanged.
  auto& entry = it->second;
  entry.tries = 1;
  const auto hops = transport_.unicast(
      from, to, traffic,
      [this, seq](NodeId, std::uint32_t h) { on_data(seq, h); });
  if (!hops) {
    pending_.erase(it);
    return std::nullopt;
  }
  arm_timer(seq);
  return hops;
}

void ReliableChannel::arm_timer(std::uint64_t seq) {
  auto it = pending_.find(seq);
  QIP_ASSERT(it != pending_.end());
  auto& p = it->second;
  p.timer = transport_.sim().after(p.timeout, [this, seq] {
    auto pit = pending_.find(seq);
    if (pit == pending_.end()) return;  // acked meanwhile
    if (pit->second.tries > params_.max_retries) {
      ++gave_up_;
      if (transport_.ctx().tracing_on()) {
        transport_.ctx().recorder().instant(
            transport_.sim().now(), "give_up", "rpc", pit->second.from,
            {{"to", pit->second.to}, {"tries", pit->second.tries}});
      }
      pending_.erase(pit);
      return;
    }
    attempt(seq);
  });
}

void ReliableChannel::attempt(std::uint64_t seq) {
  auto it = pending_.find(seq);
  QIP_ASSERT(it != pending_.end());
  auto& p = it->second;
  ++p.tries;
  p.timeout *= params_.backoff;
  ++retransmissions_;
  // A retransmission that fails to route (destination unreachable right
  // now) still burns a retry and re-arms: the outage may be transient, and
  // the retry cap bounds the wait either way.  MessageStats only counts the
  // attempts that actually routed — its breakout must stay reconcilable
  // with the per-Traffic message counts, which are charged at send time.
  const auto hops = transport_.unicast(
      p.from, p.to, p.traffic,
      [this, seq](NodeId, std::uint32_t h) { on_data(seq, h); });
  if (hops) {
    transport_.stats().note_retransmission();
    if (transport_.ctx().tracing_on()) {
      transport_.ctx().recorder().instant(
          transport_.sim().now(), "retransmit", "rpc", p.from,
          {{"to", p.to}, {"try", p.tries}, {"hops", *hops}});
    }
  }
  arm_timer(seq);
}

void ReliableChannel::on_data(std::uint64_t seq, std::uint32_t hops) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    // The sender already gave up (or was acked and this is a duplicate copy
    // of a retransmission): late data is dropped, mirroring an aborted RPC.
    if (seq < delivered_.size() && delivered_[seq]) {
      ++duplicates_suppressed_;
      if (transport_.ctx().tracing_on()) {
        transport_.ctx().recorder().instant(transport_.sim().now(),
                                               "dup_suppressed", "rpc", 0);
      }
    }
    return;
  }
  // Copy out before any callback: delivering can re-enter send() and rehash
  // pending_, invalidating the iterator.
  const NodeId from = it->second.from;
  const NodeId to = it->second.to;
  const Traffic traffic = it->second.traffic;
  Receiver deliver = it->second.on_deliver;
  // Ack every copy (the previous ack may have been the loss), then deliver
  // to the application at most once.  As with retransmissions, the ack only
  // lands in MessageStats when it actually routed (and was thus charged).
  const auto ack_hops = transport_.unicast(
      to, from, traffic, [this, seq](NodeId, std::uint32_t) { on_ack(seq); });
  if (ack_hops) {
    transport_.stats().note_ack();
    if (transport_.ctx().tracing_on()) {
      transport_.ctx().recorder().instant(transport_.sim().now(), "ack",
                                             "rpc", to, {{"to", from}});
    }
  }
  if (seq >= delivered_.size()) delivered_.resize(seq + 1);
  if (!delivered_[seq]) {
    delivered_[seq] = true;
    deliver(to, hops);
  } else {
    ++duplicates_suppressed_;
    if (transport_.ctx().tracing_on()) {
      transport_.ctx().recorder().instant(transport_.sim().now(),
                                             "dup_suppressed", "rpc", to);
    }
  }
}

void ReliableChannel::on_ack(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // duplicate ack
  ++acks_received_;
  it->second.timer.cancel();
  pending_.erase(it);
}

}  // namespace qip
