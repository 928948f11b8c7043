#include "quorum/intersection_checker.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <sstream>
#include <unordered_set>

#include "util/assert.hpp"

namespace qip {

namespace {

std::string set_to_string(const std::vector<std::uint32_t>& s) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) out << ',';
    out << s[i];
  }
  out << '}';
  return out.str();
}

std::vector<std::uint32_t> mask_to_set(std::uint32_t mask, std::uint32_t n) {
  std::vector<std::uint32_t> s;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (mask & (1u << i)) s.push_back(i);
  }
  return s;
}

bool sorted_disjoint(const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return false;
    }
  }
  return true;
}

/// The engine's quorum test on an explicit set: `members` (a subset of the
/// sorted `view`) is a quorum iff it reaches quorum_threshold(), with the
/// distinguished bit set when it holds the view's lowest id — the
/// distinguished copy, as in QipEngine::start_quorum_round.
bool counts_as_quorum(QuorumBackend backend,
                      const std::vector<std::uint32_t>& view,
                      const std::vector<std::uint32_t>& members) {
  const bool has_distinguished =
      std::find(members.begin(), members.end(), view.front()) != members.end();
  return members.size() >=
         quorum_threshold(backend, static_cast<std::uint32_t>(view.size()),
                          has_distinguished);
}

/// Per-view invariant 1: write-write and read-write intersection on the
/// materialized systems, after checking that quorum_threshold() counts
/// exactly the subsets of `view` that cover a write quorum.  Appends the
/// first violation to `report`.
void check_view(QuorumBackend backend, const std::vector<std::uint32_t>& view,
                IntersectionReport& report) {
  const QuorumSystem writes = write_system(backend, view, view.front());
  const QuorumSystem reads = read_system(backend, view, view.front());
  const auto n = static_cast<std::uint32_t>(view.size());
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) members.push_back(view[i]);
    }
    if (counts_as_quorum(backend, view, members) !=
        writes.covers_quorum(members)) {
      report.ok = false;
      report.violation = "quorum_threshold and the write system disagree on " +
                         set_to_string(members) + " at view " +
                         set_to_string(view) + " under " + to_string(backend);
      return;
    }
  }
  for (std::size_t i = 0; i < writes.quorums().size(); ++i) {
    for (std::size_t j = i + 1; j < writes.quorums().size(); ++j) {
      ++report.pairs;
      if (sorted_disjoint(writes.quorums()[i], writes.quorums()[j])) {
        report.ok = false;
        report.violation = "disjoint write quorums " +
                           set_to_string(writes.quorums()[i]) + " and " +
                           set_to_string(writes.quorums()[j]) + " at view " +
                           set_to_string(view) + " under " +
                           to_string(backend);
        return;
      }
    }
  }
  for (const auto& r : reads.quorums()) {
    for (const auto& w : writes.quorums()) {
      ++report.pairs;
      if (sorted_disjoint(r, w)) {
        report.ok = false;
        report.violation = "read quorum " + set_to_string(r) +
                           " misses write quorum " + set_to_string(w) +
                           " at view " + set_to_string(view) + " under " +
                           to_string(backend);
        return;
      }
    }
  }
}

/// splitmix64 — tiny, deterministic across standard libraries (unlike
/// std::uniform_int_distribution, whose mapping is implementation-defined).
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform-enough draw in [0, bound) for bound << 2^32.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

}  // namespace

IntersectionReport check_intersection_exhaustive(
    QuorumBackend backend, std::uint32_t universe_size) {
  QIP_ASSERT_MSG(universe_size >= 1 && universe_size <= 7,
                 "exhaustive checker wants a universe in [1, 7], got "
                     << universe_size);
  IntersectionReport report;

  // BFS over view bitmasks, starting from the full universe.  A shrink
  // G → G\{m} is legal iff the survivors G\{m} are a quorum of G by the
  // engine's count (invariant 2) — its shrink_quorum gate in set form.
  const std::uint32_t full = (1u << universe_size) - 1;
  std::deque<std::uint32_t> frontier{full};
  std::unordered_set<std::uint32_t> seen{full};
  while (!frontier.empty() && report.ok) {
    const std::uint32_t mask = frontier.front();
    frontier.pop_front();
    const std::vector<std::uint32_t> view = mask_to_set(mask, universe_size);
    ++report.views;
    check_view(backend, view, report);
    if (!report.ok) break;
    if (view.size() == 1) continue;
    for (std::uint32_t m : view) {
      const std::uint32_t next = mask & ~(1u << m);
      const std::vector<std::uint32_t> survivors =
          mask_to_set(next, universe_size);
      if (!counts_as_quorum(backend, view, survivors)) continue;
      ++report.shrinks;
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  return report;
}

IntersectionReport check_intersection_random(QuorumBackend backend,
                                             std::uint32_t universe_size,
                                             std::uint64_t seed,
                                             std::uint32_t trials) {
  QIP_ASSERT_MSG(universe_size >= 2 && universe_size <= 32,
                 "random checker wants a universe in [2, 32], got "
                     << universe_size);
  IntersectionReport report;
  SplitMix64 rng{seed};
  for (std::uint32_t trial = 0; trial < trials && report.ok; ++trial) {
    std::vector<std::uint32_t> view(universe_size);
    for (std::uint32_t i = 0; i < universe_size; ++i) view[i] = i;
    // One random shrink chain; at each view, a handful of random disjoint
    // splits (A, B) of the view, asserting they are never both quorums.
    while (report.ok) {
      ++report.views;
      for (int split = 0; split < 8; ++split) {
        std::vector<std::uint32_t> a, b;
        for (std::uint32_t member : view) {
          (rng.next() & 1 ? a : b).push_back(member);
        }
        if (a.empty() || b.empty()) continue;
        ++report.pairs;
        if (counts_as_quorum(backend, view, a) &&
            counts_as_quorum(backend, view, b)) {
          report.ok = false;
          report.violation = "disjoint sets " + set_to_string(a) + " and " +
                             set_to_string(b) +
                             " are both quorums at view " +
                             set_to_string(view) + " under " +
                             to_string(backend);
          break;
        }
      }
      if (!report.ok || view.size() == 1) break;
      // Try one random departure; stop the chain when it is not quorate.
      const std::size_t victim = rng.below(view.size());
      std::vector<std::uint32_t> survivors = view;
      survivors.erase(survivors.begin() + victim);
      if (!counts_as_quorum(backend, view, survivors)) break;
      ++report.shrinks;
      view = std::move(survivors);
    }
  }
  return report;
}

IntersectionReport check_slice_config(
    const SliceConfig& config, const std::vector<std::uint32_t>& universe) {
  const std::uint32_t n = static_cast<std::uint32_t>(universe.size());
  QIP_ASSERT_MSG(n >= 1 && n <= QuorumSystem::kMaxSliceUniverse,
                 "slice-config checker universe of "
                     << n << " exceeds the cap of "
                     << QuorumSystem::kMaxSliceUniverse);
  std::vector<std::uint32_t> sorted = universe;
  std::sort(sorted.begin(), sorted.end());
  IntersectionReport report;
  // Two disjoint quorums exist iff some split (S, U\S) has a quorum on each
  // side; max_quorum_within finds the side's largest quorum or ∅.
  const std::uint32_t full = (1u << n) - 1;
  for (std::uint32_t mask = 1; mask < full; ++mask) {
    // Walk each unordered split once.
    if (!(mask & 1u)) continue;
    ++report.pairs;
    std::vector<std::uint32_t> side_a, side_b;
    for (std::uint32_t i = 0; i < n; ++i) {
      (mask & (1u << i) ? side_a : side_b).push_back(sorted[i]);
    }
    const std::vector<std::uint32_t> qa = config.max_quorum_within(side_a);
    if (qa.empty()) continue;
    const std::vector<std::uint32_t> qb = config.max_quorum_within(side_b);
    if (qb.empty()) continue;
    report.ok = false;
    report.violation = "slice config admits disjoint quorums " +
                       set_to_string(qa) + " and " + set_to_string(qb);
    return report;
  }
  return report;
}

}  // namespace qip
