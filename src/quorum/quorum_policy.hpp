// Pluggable quorum backends (ROADMAP item 3).
//
// The engine's quorum-critical paths — vote tallying in qip_engine.cpp, the
// quorate checks guarding shrink/reclamation in qip_maintenance.cpp — used to
// hardcode the two counting rules of §II-C/§II-D.  QuorumPolicy lifts that
// decision into an interface with two registered backends:
//
//   majority        strict majority counting: w = ⌊n/2⌋+1 always.
//   dynamic_linear  Jajodia–Mutchler dynamic linear voting (the default and
//                   the paper's §II-D rule): an exactly-half subset of an
//                   even group is a quorum iff it holds the distinguished
//                   node (dynamic_linear.hpp).
//
// A run picks its backend through QipParams::quorum and nowhere else.
// Federated slice declarations (slices.hpp) are not an engine backend: the
// intersection checker consumes them directly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "quorum/quorum_system.hpp"

namespace qip {

enum class QuorumBackend : std::uint8_t {
  kMajority = 0,
  kDynamicLinear = 1,
};

/// "majority" or "dynamic_linear".
const char* to_string(QuorumBackend backend);

/// One quorum backend.  Stateless and shared — obtain instances through
/// quorum_policy(), never construct or own one.
class QuorumPolicy {
 public:
  virtual ~QuorumPolicy() = default;

  QuorumBackend kind() const { return kind_; }
  const char* name() const { return to_string(kind_); }

  /// Confirmations required from a replica group of `group_size` voters when
  /// the caller already knows whether the distinguished voter is on board.
  /// This is the counting form the engine's hot paths use: the group is
  /// symmetric (every QDSet member weighs the same), so cardinality plus the
  /// distinguished bit decides everything for both backends.
  virtual std::uint32_t threshold(std::uint32_t group_size,
                                  bool has_distinguished) const = 0;

  /// threshold() phrased as a predicate: do `confirms` confirmations commit?
  bool satisfied(std::uint32_t group_size, std::uint32_t confirms,
                 bool has_distinguished) const {
    return confirms >= threshold(group_size, has_distinguished);
  }

  /// Set-form quorum test over an explicit universe.  `subset` need not be
  /// sorted; `distinguished` only matters to dynamic_linear (nullopt falls
  /// back to strict majority there, mirroring is_quorum()'s contract).
  virtual bool is_quorum(const std::vector<std::uint32_t>& universe,
                         const std::vector<std::uint32_t>& subset,
                         std::optional<std::uint32_t> distinguished) const = 0;

  /// Explicit write-quorum system over a small universe (Definition 1 view)
  /// — the object the intersection checker and the property tests consume.
  /// Respects QuorumSystem's enumeration caps (throws above them).
  virtual QuorumSystem materialize(
      std::vector<std::uint32_t> universe,
      std::optional<std::uint32_t> distinguished) const = 0;

  /// Explicit read-quorum system.  Default: reads use the write quorums
  /// (r = w), trivially intersecting since the write system does.  The
  /// majority backend overrides this with the paper's minimal reads
  /// (r = n − w + 1, so r + w = n + 1 > n).
  virtual QuorumSystem read_system(
      std::vector<std::uint32_t> universe,
      std::optional<std::uint32_t> distinguished) const;

 protected:
  explicit QuorumPolicy(QuorumBackend kind) : kind_(kind) {}

 private:
  QuorumBackend kind_;
};

/// The registered singleton for `backend`.  Valid for the program's
/// lifetime; policies are stateless, so one instance serves every engine.
const QuorumPolicy& quorum_policy(QuorumBackend backend);

}  // namespace qip
