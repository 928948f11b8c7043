#include "harness/protocols.hpp"

#include <stdexcept>

#include "baselines/boleng.hpp"
#include "baselines/buddy.hpp"
#include "baselines/ctree.hpp"
#include "baselines/dad.hpp"
#include "baselines/manetconf.hpp"
#include "baselines/pdad.hpp"
#include "baselines/weak_dad.hpp"
#include "core/qip_engine.hpp"
#include "harness/world.hpp"

namespace qip {

const std::vector<std::string>& protocol_names() {
  static const std::vector<std::string> names = {
      "qip", "manetconf", "buddy", "ctree", "dad", "weakdad", "pdad", "boleng"};
  return names;
}

std::unique_ptr<AutoconfProtocol> make_protocol(const std::string& name,
                                                World& world,
                                                std::uint64_t pool) {
  Transport& tr = world.transport();
  Rng& rng = world.rng();
  if (name == "qip") {
    QipParams p;
    p.pool_size = pool;
    auto proto = std::make_unique<QipEngine>(tr, rng, p);
    proto->start_hello();
    return proto;
  }
  if (name == "manetconf") {
    ManetConfParams p;
    p.pool_size = pool;
    return std::make_unique<ManetConf>(tr, rng, p);
  }
  if (name == "buddy") {
    BuddyParams p;
    p.pool_size = pool;
    auto proto = std::make_unique<BuddyProtocol>(tr, rng, p);
    proto->start_sync();
    return proto;
  }
  if (name == "ctree") {
    CTreeParams p;
    p.pool_size = pool;
    auto proto = std::make_unique<CTreeProtocol>(tr, rng, p);
    proto->start_updates();
    return proto;
  }
  if (name == "dad") {
    DadParams p;
    p.pool_size = pool;
    return std::make_unique<DadProtocol>(tr, rng, p);
  }
  if (name == "weakdad") {
    WeakDadParams p;
    p.pool_size = pool;
    auto proto = std::make_unique<WeakDadProtocol>(tr, rng, p);
    proto->start_updates();
    return proto;
  }
  if (name == "pdad") {
    PdadParams p;
    p.pool_size = pool;
    auto proto = std::make_unique<PdadProtocol>(tr, rng, p);
    proto->start_routing();
    return proto;
  }
  if (name == "boleng") {
    auto proto = std::make_unique<BolengProtocol>(tr, rng);
    proto->start_beacons();
    return proto;
  }
  throw std::invalid_argument("unknown protocol '" + name + "'");
}

}  // namespace qip
