// Ack + retransmit unicast channel over the (possibly lossy) Transport.
//
// The paper's quorum machinery silently assumes its RPCs arrive; once a
// FaultPlan makes the transport lossy, a single lost QUORUM_CFM would stall
// a transaction until a coarse protocol timer fires.  The channel restores
// per-message reliability exactly where a real stack would — under the
// protocol — with the classic loop: sequence number, receiver-side dedup,
// ack, exponential-backoff retransmit, capped retries.
//
// Cost honesty: every retransmission and every ack is a real unicast through
// the metered Transport, charged to the same Traffic category as the
// original message, so overhead figures include what reliability costs.
// MessageStats additionally tallies retransmissions/acks so benches can
// break that share out.
//
// Pass-through rule: when the transport has no active fault plan (the
// paper's reliable model) — or the channel is force-disabled — send() is a
// plain unicast with zero added state, messages, or RNG draws, keeping
// fault-free runs byte-identical to the seed behavior.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"

namespace qip {

struct ReliableParams {
  /// Deadline for the first ack; doubles (× backoff) per retry.  The default
  /// comfortably covers a multi-hop round trip at the default per-hop delay.
  SimTime retry_timeout = 0.08;
  double backoff = 2.0;
  /// Retransmissions after the initial attempt before giving up.
  std::uint32_t max_retries = 5;
};

class ReliableChannel {
 public:
  using Receiver = Transport::Receiver;

  explicit ReliableChannel(Transport& transport, ReliableParams params = {});
  ~ReliableChannel();
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Force-disable (tests measuring what reliability buys set this false).
  void set_enabled(bool on) { enabled_ = on; }
  /// Reliability engages only when it has something to fix: enabled AND the
  /// transport's fault plan is active.
  bool active() const { return enabled_ && transport_.faults_active(); }

  /// Reliable unicast.  Returns the first attempt's hop count, or nullopt
  /// when `to` is unreachable right now (no retry state is kept then — the
  /// caller sees the same synchronous failure as a raw unicast).  Once the
  /// first copy is on the wire the channel retransmits on ack timeout until
  /// `max_retries` is exhausted, then gives up (counted in gave_up()).
  /// `on_deliver` runs at most once at the receiver (dedup by sequence).
  std::optional<std::uint32_t> send(NodeId from, NodeId to, Traffic traffic,
                                    Receiver on_deliver);

  // -- Introspection ---------------------------------------------------------
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t acks_received() const { return acks_received_; }
  std::uint64_t gave_up() const { return gave_up_; }
  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  std::size_t in_flight() const { return pending_.size(); }

 private:
  struct Pending {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    Traffic traffic{};
    Receiver on_deliver;
    std::uint32_t tries = 0;  ///< attempts already transmitted
    SimTime timeout = 0.0;    ///< next ack deadline
    EventHandle timer;
  };

  void attempt(std::uint64_t seq);
  void arm_timer(std::uint64_t seq);
  void on_data(std::uint64_t seq, std::uint32_t hops);
  void on_ack(std::uint64_t seq);

  Transport& transport_;
  ReliableParams params_;
  bool enabled_ = true;
  std::unordered_map<std::uint64_t, Pending> pending_;
  /// delivered_[seq]: that sequence number already reached its receiver
  /// (dedup).  Sequence numbers are dense from 1, so one bit each.
  std::vector<bool> delivered_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t gave_up_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
};

}  // namespace qip
