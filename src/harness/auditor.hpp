// Always-on address-uniqueness auditor.
//
// The paper's core claim is that quorum voting keeps addresses unique under
// failure; the auditor turns that claim into a machine-checked invariant on
// every run.  Registered as a simulator *probe* (not an event — it occupies
// no queue slot, so settle loops terminate and event interleaving is
// untouched), it periodically snapshots all configured addresses and throws
// an InvariantViolation with a full diff when two nodes in the same
// connected component and audit domain hold the same address, or the QIP
// engine keeps ghost state for a node that left the field.  The Driver
// installs one unconditionally, so every test, example and bench audits for
// free.
//
// Duplicates are fatal only once they outlive `grace`: the paper resolves
// conflicts *at contact* (§V-C — a reclamation can re-issue an address a
// temporarily unreachable node still holds, and the heal machinery then
// settles the claim by record freshness), so a conflict window bounded by
// the healing horizon is protocol behavior, not a bug.  A conflict that
// persists past the grace window means the resolution machinery failed.
// Healing is contact-driven, so the window scales with how long mobility
// takes to bring a stranded holder back into contact: stress seeds self-heal
// under ~7 simulated seconds, while the figure scenarios (larger fields,
// paper mobility) show windows up to ~23 s.  The default grace of 30 leaves
// margin without masking genuinely stuck duplicates — long runs still abort
// on any conflict that outlives it.
//
// A probe is one flat pass over reused scratch, so it scales to a city: one
// record per configured node, gathered in component order, and a stamped
// open-addressing table of record indices that flags the (component,
// domain, address) keys seen twice.  Only those keys reach the grace-window
// bookkeeping, in the order (component, domain, address); once the scratch
// is warm, a probe without conflicts allocates nothing.  The leak check
// counts the engine's addressed nodes against the pass's records and looks
// nodes up on the field only when the two differ.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "addr/ip_address.hpp"
#include "net/node_id.hpp"
#include "net/protocol.hpp"
#include "sim/simulator.hpp"

namespace qip {

class UniquenessAuditor {
 public:
  UniquenessAuditor(Simulator& sim, const Topology& topology,
                    const AutoconfProtocol& proto, SimTime period = 0.5,
                    SimTime grace = 30.0);
  ~UniquenessAuditor();
  UniquenessAuditor(const UniquenessAuditor&) = delete;
  UniquenessAuditor& operator=(const UniquenessAuditor&) = delete;

  /// Runs one audit immediately; throws InvariantViolation with a diff of
  /// the offending addresses/holders on any violation.
  void check_now();

  /// Audits performed so far (each one covered the whole network).
  std::uint64_t checks() const { return checks_; }

  /// Conflicts currently inside their grace window (0 on a healthy net).
  /// Includes conflicts temporarily unobservable (a holder drifted out of
  /// the component) that have not yet been quiet for a full grace period.
  std::size_t conflicts_pending() const { return pending_.size(); }

 private:
  /// One live duplicate-address conflict.  The clock (`since`) survives
  /// observation gaps: a holder that departs and re-enters inside the grace
  /// window must not reset the window, or a flickering node could mask a
  /// genuine duplicate indefinitely.  It also survives the holder *set*
  /// evolving (a third claimant piling onto an existing duplicate must not
  /// restart it): the clock restarts only when fewer than two current
  /// holders were part of the previous observation — i.e. the old conflict
  /// resolved and a genuinely new collision arose — or after a full grace
  /// period with the conflict unobserved.
  struct PendingConflict {
    SimTime since = 0.0;      ///< first observation of this conflict
    SimTime last_seen = 0.0;  ///< latest audit tick it was observed
    std::vector<NodeId> holders;  ///< sorted holders at last observation
  };

  /// One configured node as the flat pass sees it.  Records are gathered
  /// component by component, and a component's members ascend, so the
  /// records of one component are contiguous and ascend by node.
  struct Record {
    std::uint64_t domain = 0;
    std::uint32_t component = 0;
    IpAddress addr;
    NodeId node = kNoNode;
    /// Another record of this component shares its (domain, address).
    bool duplicate = false;

    auto key() const { return std::tie(component, domain, addr); }
  };

  /// A probe-table slot, live only while `stamp` equals the current probe's.
  struct Slot {
    std::uint32_t stamp = 0;
    std::uint32_t record = 0;
  };

  /// Fills records_ and leaves in dups_ the index of every record whose
  /// (component, domain, address) key occurs more than once.
  void find_duplicates();
  void check_uniqueness();
  void check_leaks();

  Simulator& sim_;
  const Topology& topology_;
  const AutoconfProtocol& proto_;
  const SimTime grace_;
  /// QIP_AUDIT_TRACE (strict switch, default off): report fatal duplicates
  /// on stderr and continue instead of throwing.
  const bool trace_;
  std::uint64_t probe_token_ = 0;
  std::uint64_t checks_ = 0;
  /// Live conflicts by (audit domain, address).
  std::map<std::pair<std::uint64_t, IpAddress>, PendingConflict> pending_;
  // Flat-pass scratch, reused by every probe.
  std::vector<Record> records_;
  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> dups_;
};

}  // namespace qip
