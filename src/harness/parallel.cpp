#include "harness/parallel.hpp"

#include "util/env.hpp"
#include "util/rng.hpp"

namespace qip {

CellFailure::CellFailure(std::size_t index, const std::string& what)
    : std::runtime_error("cell " + std::to_string(index) + ": " + what),
      index_(index) {}

std::uint32_t jobs_from_env(std::uint32_t fallback) {
  return env_positive_u32("QIP_JOBS", fallback);
}

std::uint64_t derive_cell_seed(std::uint64_t base, std::uint64_t xi,
                               std::uint64_t round) {
  SplitMix64 sm(base ^ (0x9e3779b97f4a7c15ULL * (xi + 1)) ^
                (0xd1342543de82ef95ULL * (round + 1)));
  return sm.next();
}

}  // namespace qip
