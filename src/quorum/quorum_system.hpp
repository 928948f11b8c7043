// Explicit quorum systems over small universes (Definition 1, §II-C).
//
// The protocol itself only needs the counting rule in quorum_policy.hpp, but
// the explicit set-system view is what the paper's Definition 1 and Figure 1
// describe, and it is the natural object to property-test (pairwise
// intersection, minimality).  Universes here are the QDSets of individual
// cluster heads, i.e. a handful of elements, so the exponential enumeration
// is fine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qip {

class SliceConfig;

using QuorumSet = std::vector<std::uint32_t>;  // sorted member ids

class QuorumSystem {
 public:
  /// Enumeration caps.  Builders throw InvariantViolation on universes
  /// above them instead of silently grinding through 2^n subsets: the
  /// counting builders walk C(n, n/2) combinations (kMaxUniverse = 20 tops
  /// out near 2·10^5 quorums), while from_slices() tests every one of the
  /// 2^n subsets against every member's slice, so it caps earlier.
  static constexpr std::size_t kMaxUniverse = 20;
  static constexpr std::size_t kMaxSliceUniverse = 16;

  /// Builds the majority quorum system over `universe`: all minimal subsets
  /// of size ⌊n/2⌋+1.  Throws above kMaxUniverse.
  static QuorumSystem majority(std::vector<std::uint32_t> universe);

  /// Builds the dynamic-linear system: minimal majorities plus, for even n,
  /// the exactly-half subsets containing `distinguished`.  Throws above
  /// kMaxUniverse.
  static QuorumSystem dynamic_linear(std::vector<std::uint32_t> universe,
                                     std::uint32_t distinguished);

  /// All subsets of size exactly `k` (1 <= k <= n).  The majority backend's
  /// read system (r = n − w + 1); only pairwise-intersecting when 2k > n,
  /// which read-vs-write intersection does not require.  Throws above
  /// kMaxUniverse.
  static QuorumSystem fixed_size(std::vector<std::uint32_t> universe,
                                 std::size_t k);

  /// Materializes the federated system induced by `config` over `universe`:
  /// the minimal sets S ⊆ universe with SliceConfig::is_quorum(S).  Throws
  /// above kMaxSliceUniverse.  May legitimately contain zero quorums (a
  /// member with an unsatisfiable declaration) — unlike the counting
  /// builders, which always produce at least one.
  static QuorumSystem from_slices(const SliceConfig& config,
                                  std::vector<std::uint32_t> universe);

  const std::vector<std::uint32_t>& universe() const { return universe_; }
  const std::vector<QuorumSet>& quorums() const { return quorums_; }

  /// Definition 1: every pair of quorums intersects.
  bool pairwise_intersecting() const;

  /// True if `subset` (sorted or not) contains some quorum.
  bool covers_quorum(const QuorumSet& subset) const;

  /// Smallest quorum cardinality.
  std::size_t min_quorum_size() const;

 private:
  std::vector<std::uint32_t> universe_;
  std::vector<QuorumSet> quorums_;
};

}  // namespace qip
