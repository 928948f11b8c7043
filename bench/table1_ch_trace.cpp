// Regenerates Table 1 of Xu & Wu, ICDCS'07: the message exchange of a
// cluster-head configuration (CH_REQ, CH_PRP, CH_CNF, QUORUM_CLT,
// QUORUM_CFM, CH_CFG, CH_ACK), read back from the `qip` instants the
// protocol engine records.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_figure_main.hpp"
#include "core/qip_engine.hpp"
#include "harness/driver.hpp"
#include "harness/world.hpp"
#include "sim/sim_context.hpp"

using namespace qip;

namespace {

/// Whether `e` is the engine's record of one `m` message (config_txn and
/// quorum_round spans share the `qip` category).
bool is_msg(const obs::Event& e, QipMsg m) {
  return e.phase == obs::Phase::kInstant && std::string_view(e.cat) == "qip" &&
         std::string_view(e.name) == to_string(m);
}

std::uint32_t int_arg(const obs::Event& e, std::string_view key) {
  const obs::Arg* a = e.arg(key);
  return a != nullptr ? static_cast<std::uint32_t>(a->i) : 0;
}

/// The detail column: a block as AddressBlock prints it (a fragmented one as
/// its range count within its span), an address, a vote or a reason.
std::string detail_column(const obs::Event& e) {
  std::ostringstream os;
  if (const obs::Arg* ranges = e.arg("ranges")) {
    const AddressBlock span =
        ranges->i == 0 ? AddressBlock{}
                       : AddressBlock(IpAddress(int_arg(e, "lo")),
                                      IpAddress(int_arg(e, "hi")));
    if (ranges->i > 1) os << ranges->i << " ranges within ";
    os << span;
  } else if (e.arg("addr") != nullptr) {
    os << IpAddress(int_arg(e, "addr"));
  } else if (const obs::Arg* label = e.arg("vote")) {
    os << label->s;
  } else if (const obs::Arg* reason = e.arg("reason")) {
    os << reason->s;
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  // One traced exchange — nothing to replicate, but --jobs/QIP_JOBS are
  // still validated for a uniform figure-suite invocation.
  (void)benchmain::jobs_from_args(argc, argv);
  // The run records into its own context, traced whatever the environment
  // says; it is absorbed into the process context at the end, so
  // QIP_TRACE_FILE still receives it.  The run records ~2,200 events: a
  // 2^14-event ring (3 MiB) holds them all, where the default 2^18 would
  // allocate 50 MiB.
  SimContext ctx;
  ctx.recorder().set_capacity(1u << 14);
  ctx.recorder().enable();
  WorldParams wp;
  wp.transmission_range = 200.0;
  World world(wp, /*seed=*/11, ctx);

  QipParams qp;
  qp.pool_size = 256;
  QipEngine proto(world.transport(), world.rng(), qp);
  proto.start_hello();

  DriverOptions dopt;
  dopt.mobility = false;
  Driver driver(world, proto, dopt);

  std::printf("== Table 1: cluster head configuration message exchange ==\n");
  driver.join(60);
  world.run_for(2.0);

  // Show the newest CH_REQ-initiated exchange: later ones involve a
  // populated QDSet and therefore show the quorum collection of Table 1.
  const std::vector<obs::Event> events = ctx.recorder().events();
  std::size_t first = events.size();
  for (std::size_t i = events.size(); i-- > 0;) {
    if (is_msg(events[i], QipMsg::kChReq)) {
      first = i;
      break;
    }
  }

  std::printf("%-12s %-6s %-6s %-5s %s\n", "message", "from", "to", "hops",
              "detail");
  constexpr QipMsg kShown[] = {QipMsg::kChReq,     QipMsg::kChPrp,
                               QipMsg::kChCnf,     QipMsg::kQuorumClt,
                               QipMsg::kQuorumCfm, QipMsg::kQuorumUpd,
                               QipMsg::kChCfg,     QipMsg::kChAck};
  std::size_t shown = 0;
  for (std::size_t i = first; i < events.size(); ++i) {
    const obs::Event& ev = events[i];
    const auto* msg = std::find_if(std::begin(kShown), std::end(kShown),
                                   [&](QipMsg m) { return is_msg(ev, m); });
    if (msg == std::end(kShown)) continue;
    std::printf("%-12s %-6u %-6u %-5u %s\n", to_string(*msg), ev.tid,
                int_arg(ev, "to"), int_arg(ev, "hops"),
                detail_column(ev).c_str());
    ++shown;
    if (*msg == QipMsg::kChAck) break;  // exchange complete
  }
  if (shown == 0) {
    std::printf("(no cluster-head configuration occurred; rerun with a "
                "different seed)\n");
  }
  std::printf("\n");
  process_context().absorb(ctx);
  return 0;
}
