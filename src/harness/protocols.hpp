// Every autoconfiguration protocol the library ships, built by name.
//
// The one place that knows which engine a protocol name means, which
// parameters it takes and which periodic machinery it starts.  qip-sim,
// the campaign runner, the figure suite and the examples all build their
// protocols here, so a new scheme is one entry in protocols.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace qip {

class World;

/// The names make_protocol() accepts, in the order usage texts list them.
const std::vector<std::string>& protocol_names();

/// Builds protocol `name` on `world` with an address pool of `pool`
/// addresses and starts its periodic machinery (hello beacons, sync,
/// updates, routing or beacons — whatever the scheme runs).  Boleng
/// allocates variable-length addresses and ignores `pool`.  Throws
/// std::invalid_argument on a name protocol_names() does not list.
std::unique_ptr<AutoconfProtocol> make_protocol(const std::string& name,
                                                World& world,
                                                std::uint64_t pool = 1024);

}  // namespace qip
