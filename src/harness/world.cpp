#include "harness/world.hpp"

#include "util/assert.hpp"

namespace qip {

World::World(const WorldParams& params, std::uint64_t seed)
    : World(params, seed, process_context()) {}

World::World(const WorldParams& params, std::uint64_t seed, SimContext& ctx)
    : params_(params),
      ctx_(&ctx),
      rng_(seed),
      sim_(ctx_),
      topology_(Rect{params.area_side, params.area_side},
                params.transmission_range),
      transport_(sim_, topology_, stats_, params.per_hop_delay),
      mobility_(sim_, topology_, rng_, params.mobility_tick) {
  topology_.set_context(ctx_);
}

World::~World() {
  if (adversary_ && ctx_->adversary() == adversary_.get())
    ctx_->set_adversary(nullptr);
}

FaultInjector& World::enable_faults(const FaultPlan& plan) {
  faults_ = std::make_unique<FaultInjector>(plan);
  transport_.set_fault_injector(faults_.get());
  return *faults_;
}

AdversaryController& World::enable_adversary(const AdversaryPlan& plan) {
  adversary_ = std::make_unique<AdversaryController>(plan);
  ctx_->set_adversary(adversary_.get());
  return *adversary_;
}

UniquenessAuditor& World::audit(const AutoconfProtocol& proto,
                                SimTime period, SimTime grace) {
  auditors_.push_back(std::make_unique<UniquenessAuditor>(sim_, topology_,
                                                          proto, period,
                                                          grace));
  return *auditors_.back();
}

Point World::place_random(NodeId id) {
  const Point p = topology_.area().sample(rng_);
  topology_.add_node(id, p);
  return p;
}

void World::settle(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (sim_.step()) {
    QIP_ASSERT_MSG(++n <= max_events, "settle exceeded event budget");
  }
}

}  // namespace qip
