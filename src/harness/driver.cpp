#include "harness/driver.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qip {

Driver::Driver(World& world, AutoconfProtocol& proto, DriverOptions options)
    : world_(world), proto_(proto), options_(options) {
  if (options_.mobility) {
    world_.mobility().set_on_tick([this] { proto_.on_mobility_tick(); });
    world_.mobility().start();
  }
  if (options_.audit) {
    auditor_ = std::make_unique<UniquenessAuditor>(
        world_.sim(), world_.topology(), proto_, options_.audit_period,
        options_.audit_grace);
  }
}

NodeId Driver::enter(const Point* position) {
  const NodeId id = next_id_++;
  Topology& topo = world_.topology();
  if (position != nullptr) {
    topo.add_node(id, *position);
  } else if (options_.connected_arrivals && topo.node_count() > 0) {
    // Rejection-sample until the newcomer hears at least one existing node;
    // give up after a bounded number of tries (very sparse networks).
    for (int tries = 0; tries < 200; ++tries) {
      const Point p = topo.area().sample(world_.rng());
      if (topo.covered(p)) {
        topo.add_node(id, p);
        break;
      }
      if (tries == 199) topo.add_node(id, p);
    }
  } else {
    world_.place_random(id);
  }
  proto_.node_entered(id);
  members_.push_back(id);
  return id;
}

NodeId Driver::arrive(NodeId id) {
  world_.run_for(options_.arrival_interval);
  if (options_.mobility && proto_.configured(id)) {
    // §VI-A: nodes move "to a random destination ... after its configuration
    // with the network".
    world_.mobility().add(id, world_.params().speed);
  }
  return id;
}

NodeId Driver::join_at(const Point& position) {
  return arrive(enter(&position));
}

NodeId Driver::join_one() { return arrive(enter(nullptr)); }

std::vector<NodeId> Driver::join(std::uint32_t n) {
  std::vector<NodeId> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(join_one());
  return out;
}

void Driver::join_wave(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) enter(nullptr);
}

void Driver::drop_members(std::vector<NodeId> leavers) {
  std::sort(leavers.begin(), leavers.end());
  const auto kept = std::remove_if(
      members_.begin(), members_.end(), [&leavers](NodeId id) {
        return std::binary_search(leavers.begin(), leavers.end(), id);
      });
  QIP_ASSERT_MSG(static_cast<std::size_t>(members_.end() - kept) ==
                     leavers.size(),
                 "a departing node is not a member, or departs twice");
  members_.erase(kept, members_.end());
}

void Driver::remove_node(NodeId id) {
  if (world_.mobility().manages(id)) world_.mobility().remove(id);
  if (world_.topology().has_node(id)) world_.topology().remove_node(id);
}

void Driver::depart(std::span<const NodeId> graceful,
                    std::span<const NodeId> abrupt) {
  std::vector<NodeId> leavers(graceful.begin(), graceful.end());
  leavers.insert(leavers.end(), abrupt.begin(), abrupt.end());
  drop_members(std::move(leavers));
  for (NodeId id : graceful) proto_.node_departing(id);
  world_.run_for(options_.departure_settle);
  for (NodeId id : graceful) {
    remove_node(id);
    proto_.node_left(id);
  }
  for (NodeId id : abrupt) {
    remove_node(id);
    proto_.node_vanished(id);
  }
}

void Driver::depart_graceful(NodeId id) { depart({&id, 1}, {}); }

void Driver::depart_abrupt(NodeId id) {
  drop_members({id});
  remove_node(id);
  proto_.node_vanished(id);
}

double Driver::configured_fraction() const {
  if (next_id_ == 0) return 0.0;
  std::uint32_t ok = 0;
  for (NodeId id = 0; id < next_id_; ++id) {
    if (proto_.configured(id)) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(next_id_);
}

double Driver::mean_config_latency() const {
  double sum = 0.0;
  std::uint32_t n = 0;
  for (NodeId id = 0; id < next_id_; ++id) {
    const ConfigRecord* rec = proto_.config_record(id);
    if (rec && rec->success) {
      sum += static_cast<double>(rec->latency_hops);
      ++n;
    }
  }
  return n ? sum / n : 0.0;
}

}  // namespace qip
