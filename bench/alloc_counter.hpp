// Process-wide count of global operator new calls.
//
// Linking bench/alloc_counter.cpp into a bench replaces the global
// operator new/delete family with malloc-backed versions that bump one
// counter, so differencing allocs_now() around a region counts exactly what
// the region allocated (threads included).
#pragma once

#include <cstdint>

namespace qip {

/// Global operator new calls since the process started.
std::uint64_t allocs_now();

}  // namespace qip
