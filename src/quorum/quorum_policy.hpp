// The quorum rule (§II-C, §II-D): two backends, one counting function.
//
//   majority        strict majority counting: w = ⌊n/2⌋+1 always.
//   dynamic_linear  Jajodia–Mutchler dynamic linear voting (the default and
//                   the paper's §II-D rule): an exactly-half subset of an
//                   even group is a quorum iff it holds the distinguished
//                   node — the group's lowest id, whose copy breaks the tie.
//                   Two half-sets both claiming quorum would both need that
//                   one node, so intersection survives the discount.
//
// quorum_threshold() is the only statement of the rule.  The engine's vote
// tally and its quorate checks (quorum adjustment, reclamation) call it, and
// so do the intersection checker's shrink legality and double-quorum tests,
// so the checker tests the rule the engine runs.  write_system() and
// read_system() are Definition 1's explicit form of each backend, built by
// the QuorumSystem builders independently of the counting function.
//
// A run picks its backend through QipParams::quorum and nowhere else.
// Federated slice declarations (slices.hpp) are not an engine backend: the
// intersection checker consumes them directly.
#pragma once

#include <cstdint>
#include <vector>

#include "quorum/quorum_system.hpp"

namespace qip {

enum class QuorumBackend : std::uint8_t {
  kMajority = 0,
  kDynamicLinear = 1,
};

/// "majority" or "dynamic_linear".
const char* to_string(QuorumBackend backend);

/// Confirmations required from a replica group of `group_size` voters, given
/// whether the distinguished voter is among them.  The group is symmetric
/// (every QDSet member weighs the same), so cardinality plus the
/// distinguished bit decides everything: ⌊n/2⌋+1, or n/2 for an even
/// dynamic_linear group that holds the distinguished voter.
std::uint32_t quorum_threshold(QuorumBackend backend, std::uint32_t group_size,
                               bool has_distinguished);

/// Explicit write-quorum system over a small universe (Definition 1): every
/// minimal write quorum.  `distinguished` must be a member of `universe`; it
/// only matters to dynamic_linear.  Throws above QuorumSystem's enumeration
/// caps.
QuorumSystem write_system(QuorumBackend backend,
                          std::vector<std::uint32_t> universe,
                          std::uint32_t distinguished);

/// Explicit read-quorum system.  majority uses the paper's minimal reads
/// (r = n − w + 1, so r + w = n + 1 > n); dynamic_linear reads with its
/// write quorums (r = w), which intersect because the writes do.
QuorumSystem read_system(QuorumBackend backend,
                         std::vector<std::uint32_t> universe,
                         std::uint32_t distinguished);

}  // namespace qip
