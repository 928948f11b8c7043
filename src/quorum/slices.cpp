#include "quorum/slices.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qip {

namespace {

/// |a ∩ b| for two sorted vectors, without materializing the overlap.
std::size_t intersection_size(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  std::size_t n = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

}  // namespace

void QuorumSlice::validate() const {
  QIP_ASSERT_MSG(!validators.empty(), "QuorumSlice with no validators");
  QIP_ASSERT_MSG(threshold >= 1,
                 "QuorumSlice threshold 0 — a slice nobody needs to satisfy "
                 "makes every set a quorum");
  QIP_ASSERT_MSG(threshold <= validators.size(),
                 "QuorumSlice threshold " << threshold << " exceeds its "
                                          << validators.size()
                                          << " validators — unsatisfiable");
  QIP_ASSERT_MSG(std::is_sorted(validators.begin(), validators.end()),
                 "QuorumSlice validators are not sorted");
  QIP_ASSERT_MSG(std::adjacent_find(validators.begin(), validators.end()) ==
                     validators.end(),
                 "QuorumSlice has duplicate validators");
}

SliceConfig SliceConfig::flat_majority(
    const std::vector<std::uint32_t>& universe) {
  std::vector<std::uint32_t> sorted = universe;
  std::sort(sorted.begin(), sorted.end());
  QIP_ASSERT_MSG(!sorted.empty(), "flat_majority over an empty universe");
  QuorumSlice slice;
  slice.threshold = static_cast<std::uint32_t>(sorted.size() / 2 + 1);
  slice.validators = sorted;
  SliceConfig cfg;
  for (std::uint32_t node : sorted) cfg.set(node, slice);
  return cfg;
}

void SliceConfig::set(std::uint32_t node, QuorumSlice slice) {
  slice.validate();
  slices_[node] = std::move(slice);
}

const QuorumSlice* SliceConfig::find(std::uint32_t node) const {
  auto it = slices_.find(node);
  return it == slices_.end() ? nullptr : &it->second;
}

bool SliceConfig::satisfies_slice(const QuorumSlice& slice,
                                  const std::vector<std::uint32_t>& set) {
  return intersection_size(slice.validators, set) >= slice.threshold;
}

bool SliceConfig::is_v_blocking(const QuorumSlice& slice,
                                const std::vector<std::uint32_t>& set) {
  // `set` blocks iff too few validators survive outside it to reach the
  // threshold.  (stellar LocalNode::isVBlockingInternal, flat case.)
  const std::size_t surviving =
      slice.validators.size() - intersection_size(slice.validators, set);
  return surviving < slice.threshold;
}

bool SliceConfig::is_quorum(const std::vector<std::uint32_t>& set) const {
  if (set.empty()) return false;
  for (std::uint32_t node : set) {
    const QuorumSlice* slice = find(node);
    if (slice == nullptr || !satisfies_slice(*slice, set)) return false;
  }
  return true;
}

std::vector<std::uint32_t> SliceConfig::max_quorum_within(
    std::vector<std::uint32_t> candidate) const {
  std::sort(candidate.begin(), candidate.end());
  // Fixpoint prune: a member whose slice is unsatisfied can belong to no
  // quorum inside `candidate`, so dropping it loses nothing; repeat until
  // the survivors all stand (then they are a quorum) or nobody is left.
  bool changed = true;
  while (changed && !candidate.empty()) {
    changed = false;
    std::vector<std::uint32_t> kept;
    kept.reserve(candidate.size());
    for (std::uint32_t node : candidate) {
      const QuorumSlice* slice = find(node);
      if (slice != nullptr && satisfies_slice(*slice, candidate)) {
        kept.push_back(node);
      } else {
        changed = true;
      }
    }
    candidate = std::move(kept);
  }
  return candidate;
}

}  // namespace qip
