#include "quorum/quorum_policy.hpp"

#include <algorithm>

#include "quorum/dynamic_linear.hpp"
#include "util/assert.hpp"

namespace qip {

const char* to_string(QuorumBackend backend) {
  switch (backend) {
    case QuorumBackend::kMajority:
      return "majority";
    case QuorumBackend::kDynamicLinear:
      return "dynamic_linear";
  }
  QIP_ASSERT_MSG(false, "unknown QuorumBackend "
                            << static_cast<unsigned>(backend));
  return "?";
}

QuorumSystem QuorumPolicy::read_system(
    std::vector<std::uint32_t> universe,
    std::optional<std::uint32_t> distinguished) const {
  return materialize(std::move(universe), distinguished);
}

namespace {

/// Sorted copy of `subset`, asserted to be a duplicate-free subset of the
/// (sorted) universe — catches callers that mix up group ids.
std::vector<std::uint32_t> sorted_subset_of(
    const std::vector<std::uint32_t>& universe,
    const std::vector<std::uint32_t>& subset) {
  std::vector<std::uint32_t> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  QIP_ASSERT_MSG(
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
      "quorum subset has duplicate members");
  QIP_ASSERT_MSG(
      std::includes(universe.begin(), universe.end(), sorted.begin(),
                    sorted.end()),
      "quorum subset contains an id outside its universe");
  return sorted;
}

std::vector<std::uint32_t> sorted_universe(
    std::vector<std::uint32_t> universe) {
  std::sort(universe.begin(), universe.end());
  return universe;
}

class MajorityPolicy final : public QuorumPolicy {
 public:
  MajorityPolicy() : QuorumPolicy(QuorumBackend::kMajority) {}

  std::uint32_t threshold(std::uint32_t group_size,
                          bool /*has_distinguished*/) const override {
    QIP_ASSERT(group_size >= 1);
    return group_size / 2 + 1;
  }

  bool is_quorum(const std::vector<std::uint32_t>& universe,
                 const std::vector<std::uint32_t>& subset,
                 std::optional<std::uint32_t> /*distinguished*/)
      const override {
    const std::vector<std::uint32_t> u = sorted_universe(universe);
    const std::vector<std::uint32_t> s = sorted_subset_of(u, subset);
    return s.size() >= threshold(static_cast<std::uint32_t>(u.size()), false);
  }

  QuorumSystem materialize(
      std::vector<std::uint32_t> universe,
      std::optional<std::uint32_t> /*distinguished*/) const override {
    return QuorumSystem::majority(std::move(universe));
  }

  QuorumSystem read_system(
      std::vector<std::uint32_t> universe,
      std::optional<std::uint32_t> /*distinguished*/) const override {
    // Minimal reads from §II-C: r = n − w + 1, so r + w = n + 1 > n and
    // every read meets every write.
    const std::uint32_t n = static_cast<std::uint32_t>(universe.size());
    QIP_ASSERT(n >= 1);
    const std::uint32_t w = n / 2 + 1;
    return QuorumSystem::fixed_size(std::move(universe), n - w + 1);
  }
};

class DynamicLinearPolicy final : public QuorumPolicy {
 public:
  DynamicLinearPolicy() : QuorumPolicy(QuorumBackend::kDynamicLinear) {}

  std::uint32_t threshold(std::uint32_t group_size,
                          bool has_distinguished) const override {
    return quorum_threshold(group_size, has_distinguished);
  }

  bool is_quorum(const std::vector<std::uint32_t>& universe,
                 const std::vector<std::uint32_t>& subset,
                 std::optional<std::uint32_t> distinguished) const override {
    const std::vector<std::uint32_t> u = sorted_universe(universe);
    const std::vector<std::uint32_t> s = sorted_subset_of(u, subset);
    return qip::is_quorum(static_cast<std::uint32_t>(u.size()), s,
                          distinguished);
  }

  QuorumSystem materialize(
      std::vector<std::uint32_t> universe,
      std::optional<std::uint32_t> distinguished) const override {
    // distinguished = ∅ degenerates to strict majority — exactly the
    // counting fallback in qip::is_quorum().
    if (!distinguished.has_value())
      return QuorumSystem::majority(std::move(universe));
    return QuorumSystem::dynamic_linear(std::move(universe), *distinguished);
  }
};

}  // namespace

const QuorumPolicy& quorum_policy(QuorumBackend backend) {
  static const MajorityPolicy majority;
  static const DynamicLinearPolicy dynamic_linear;
  switch (backend) {
    case QuorumBackend::kMajority:
      return majority;
    case QuorumBackend::kDynamicLinear:
      return dynamic_linear;
  }
  QIP_ASSERT_MSG(false, "unknown QuorumBackend "
                            << static_cast<unsigned>(backend));
  return dynamic_linear;
}

}  // namespace qip
