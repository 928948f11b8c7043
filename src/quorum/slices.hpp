// Federated quorum slices with v-blocking sets (SCP style, §II-C analogue).
//
// The counting rule (quorum_threshold in quorum_policy.hpp) is *symmetric*:
// every copy weighs the same and only cardinality matters.  A federated
// system — stellar-core's LocalNode idiom — instead lets every node declare
// its own quorum *slice*: a k-of-n condition over the peers it trusts.  A
// set of nodes is then a quorum iff it is non-empty and every member's slice
// is satisfied *within the set*; a set B is v-blocking for a node iff B
// intersects every way of satisfying that node's slice (so the node can
// never assemble a slice that avoids B).
//
// The engine counts votes with the symmetric rule; slice declarations are
// the intersection checker's input format.  flat_majority below is the
// federated form of majority voting over a QDSet; custom shapes exist for
// the checker, where deliberately-broken declarations (disjoint trust
// cliques) must be refutable, not silently accepted.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace qip {

/// One node's slice declaration, flattened to a single threshold level
/// (stellar-core's SCPQuorumSet without nested inner sets): any `threshold`
/// members of `validators` satisfy the node.  Nodes conventionally list
/// themselves among their own validators (flat_majority does).
struct QuorumSlice {
  std::uint32_t threshold = 0;
  std::vector<std::uint32_t> validators;  ///< sorted, unique

  /// Rejects malformed declarations (threshold 0 or above the validator
  /// count, unsorted/duplicate validators) with an InvariantViolation —
  /// same fail-at-construction idiom as FaultPlan::validate().
  void validate() const;
};

/// Per-node slice declarations over one universe.  stellar-core's LocalNode
/// holds only its own declaration; quorum evaluation and the intersection
/// checker need everybody's, so this maps node id -> declaration.
class SliceConfig {
 public:
  /// The federated form of the paper's majority rule: every node trusts a
  /// strict majority of the whole universe, itself included.  It is
  /// provably equivalent to plain majority counting.
  static SliceConfig flat_majority(const std::vector<std::uint32_t>& universe);

  /// Installs (or replaces) `node`'s declaration.  Validates the slice.
  void set(std::uint32_t node, QuorumSlice slice);

  /// The declaration of `node`, or nullptr if it never declared one.
  const QuorumSlice* find(std::uint32_t node) const;

  /// All declarations, ordered by node id.
  const std::map<std::uint32_t, QuorumSlice>& slices() const {
    return slices_;
  }

  /// stellar LocalNode::isQuorumSlice — does `set` (sorted) satisfy
  /// `slice`, i.e. contain at least `threshold` of its validators?
  static bool satisfies_slice(const QuorumSlice& slice,
                              const std::vector<std::uint32_t>& set);

  /// stellar LocalNode::isVBlocking — does `set` (sorted) intersect every
  /// `threshold`-subset of `slice.validators`?  Equivalently: fewer than
  /// `threshold` validators survive outside `set`, so the slice cannot be
  /// satisfied while avoiding `set`.
  static bool is_v_blocking(const QuorumSlice& slice,
                            const std::vector<std::uint32_t>& set);

  /// Quorum test (stellar LocalNode::isQuorum): `set` (sorted) is non-empty
  /// and every member's declared slice is satisfied within `set`.  A member
  /// without a declaration can never be satisfied, so any set containing
  /// one is not a quorum.
  bool is_quorum(const std::vector<std::uint32_t>& set) const;

  /// Greatest quorum contained in `candidate` (possibly empty): the
  /// fixpoint prune of stellar-core's QuorumSetUtils — repeatedly drop
  /// members whose slice is unsatisfied within the survivors.  The result
  /// is the union of all quorums inside `candidate`.
  std::vector<std::uint32_t> max_quorum_within(
      std::vector<std::uint32_t> candidate) const;

 private:
  std::map<std::uint32_t, QuorumSlice> slices_;
};

}  // namespace qip
