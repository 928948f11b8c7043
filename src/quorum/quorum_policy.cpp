#include "quorum/quorum_policy.hpp"

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

std::uint32_t quorum_threshold(QuorumBackend backend, std::uint32_t group_size,
                               bool has_distinguished) {
  QIP_ASSERT(group_size >= 1);
  if (backend == QuorumBackend::kDynamicLinear && has_distinguished &&
      group_size % 2 == 0) {
    return group_size / 2;
  }
  return group_size / 2 + 1;
}

QuorumSystem write_system(QuorumBackend backend,
                          std::vector<std::uint32_t> universe,
                          std::uint32_t distinguished) {
  if (backend == QuorumBackend::kDynamicLinear)
    return QuorumSystem::dynamic_linear(std::move(universe), distinguished);
  return QuorumSystem::majority(std::move(universe));
}

QuorumSystem read_system(QuorumBackend backend,
                         std::vector<std::uint32_t> universe,
                         std::uint32_t distinguished) {
  if (backend == QuorumBackend::kDynamicLinear)
    return write_system(backend, std::move(universe), distinguished);
  // §II-C's minimal reads: r = n − w + 1 with w = ⌊n/2⌋+1, i.e. n − ⌊n/2⌋.
  const std::size_t n = universe.size();
  return QuorumSystem::fixed_size(std::move(universe), n - n / 2);
}

}  // namespace qip
