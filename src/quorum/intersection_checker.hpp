// Property-based quorum-intersection checker.
//
// The paper's uniqueness argument (§II-C/§II-D) needs one invariant: no two
// disjoint subsets of a replica group can both act, at any point in the
// group's lifetime — including mid-adjustment, while a T_d shrink window is
// open and some members still operate on the pre-shrink view.
//
// Naive "check adjacent views against each other" is the wrong property and
// would reject dynamic linear voting outright: with G = {1,2,3,4}, the half
// {1,2} holds a quorum of G (it has the distinguished node 1) while {3,4}
// holds a majority of the post-shrink view G' = {2,3,4} — disjoint sets,
// both quorate, yet the protocol is safe.  Safety comes from the shrink
// itself being a quorate operation of G: the commit quorum intersects every
// quorum of G (so the shrink is ordered against {1,2}'s action), and {3,4}
// acts on G' strictly after the shrink — virtual-synchrony ordering, not
// set intersection across views.
//
// So the checkable invariant is:
//   1. per-view intersection — at every reachable view G, the write quorums
//      pairwise intersect and every read quorum meets every write quorum;
//   2. shrink legality — a view transition G → G\{m} only happens when
//      G\{m} still covers a write quorum of G (the survivors can commit it).
// The checker walks every view reachable from the starting QDSet through
// legal shrinks and asserts both, exhaustively for small universes and by
// seeded-random sampling for larger ones.  Every quorum test a set passes by
// counting — shrink legality, the random double-quorum test — asks
// quorum_threshold(), the function the engine tallies with; per-view
// intersection materializes write_system()/read_system(), the explicit
// systems built without it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quorum/quorum_policy.hpp"
#include "quorum/slices.hpp"

namespace qip {

struct IntersectionReport {
  std::uint64_t views = 0;    ///< distinct reachable views examined
  std::uint64_t shrinks = 0;  ///< legal shrink transitions verified quorate
  std::uint64_t pairs = 0;    ///< quorum/split pairs tested for intersection
  bool ok = true;
  std::string violation;  ///< first failure, human-readable ("" when ok)
};

/// Exhaustive check over the universe {0, …, universe_size−1}: enumerates
/// every view reachable through legal shrinks (BFS over subsets), and at
/// each view materializes the backend's explicit read/write systems and
/// verifies write-write and read-write intersection.  The distinguished
/// node at each view is its lowest id, matching QipEngine::start_quorum_round.
/// universe_size is bounded by the materialization caps — keep it <= 7 so
/// the subset walk stays instant.
IntersectionReport check_intersection_exhaustive(QuorumBackend backend,
                                                 std::uint32_t universe_size);

/// Seeded-random check for universes too large to enumerate: runs `trials`
/// random shrink chains from the full universe, and at every view along each
/// chain tests random disjoint splits (A, B) for double-quorum by
/// quorum_threshold().  Deterministic for a given seed (own splitmix64
/// stream, no std::uniform_int_distribution variance).
IntersectionReport check_intersection_random(QuorumBackend backend,
                                             std::uint32_t universe_size,
                                             std::uint64_t seed,
                                             std::uint32_t trials);

/// Static check of one federated configuration: searches all 2^(n−1) splits
/// of `universe` for a pair of disjoint quorums (via max_quorum_within on
/// both halves).  A well-formed flat-majority config passes; a config with
/// disjoint trust cliques is refuted with the offending pair named in
/// `violation`.
IntersectionReport check_slice_config(const SliceConfig& config,
                                      const std::vector<std::uint32_t>& universe);

}  // namespace qip
