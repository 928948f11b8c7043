// Campaign subsystem tests: grid expansion, journal resume semantics, fault
// injection plans, strict env parsing, snapshot round-trips and the
// process-pool runner itself.  `ctest -L campaign` selects this suite.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign_spec.hpp"
#include "campaign/inject.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/snapshot.hpp"
#include "harness/parallel.hpp"
#include "harness/protocols.hpp"

namespace qip {
namespace {

/// A path no earlier test run left anything at.  Process ids recycle, and
/// a run killed before its cleanup leaves its output behind, so a stale
/// path from an earlier run under the same pid is removed first (a stale
/// journal there makes a fresh campaign refuse to start).
std::string unique_temp_path(const std::string& stem) {
  static int counter = 0;
  const std::string path = ::testing::TempDir() + stem + "_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter++);
  std::filesystem::remove_all(path);
  return path;
}

/// A campaign output directory at a fresh unique_temp_path, removed with
/// everything in it when the test ends, whether it passed, failed an
/// assertion or threw.
class TempTree {
 public:
  explicit TempTree(const std::string& stem) : path_(unique_temp_path(stem)) {}
  ~TempTree() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempTree(const TempTree&) = delete;
  TempTree& operator=(const TempTree&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- grid expansion -------------------------------------------------------

TEST(CampaignSpec, ExpandsInIndexOrderWithDerivedSeeds) {
  CampaignSpec spec;
  spec.protocols = {"qip", "dad"};
  spec.nodes = {8, 16};
  spec.ranges = {120.0, 180.0};
  spec.seeds = 3;
  spec.base_seed = 42;
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), spec.cell_count());
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 3u);
  // (protocol, nodes, range, round) nesting, round innermost; every seed is
  // the historical derive_cell_seed of the flat grid point.
  std::size_t i = 0;
  std::uint64_t point = 0;
  for (const std::string& proto : spec.protocols) {
    for (std::uint32_t n : spec.nodes) {
      for (double r : spec.ranges) {
        for (std::uint64_t round = 0; round < spec.seeds; ++round, ++i) {
          EXPECT_EQ(cells[i].protocol, proto);
          EXPECT_EQ(cells[i].nodes, n);
          EXPECT_EQ(cells[i].range, r);
          EXPECT_EQ(cells[i].seed, derive_cell_seed(42, point, round));
        }
        ++point;
      }
    }
  }
}

TEST(CampaignSpec, CellCanonicalRoundTrips) {
  CellSpec spec;
  spec.protocol = "manetconf";
  spec.nodes = 17;
  spec.range = 133.33333333333333;
  spec.speed = 12.5;
  spec.duration = 3.75;
  spec.churn = 4;
  spec.abrupt = 0.1;
  spec.pool = 64;
  spec.seed = 0xdeadbeefcafef00dULL;
  CellSpec parsed;
  ASSERT_TRUE(CellSpec::parse(spec.canonical(), &parsed));
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.canonical(), spec.canonical());
  // A spec line without a pool (an artifact from before the field existed)
  // is refused, never read as the default pool.
  std::string old = spec.canonical();
  const auto at = old.find(" pool=64");
  ASSERT_NE(at, std::string::npos);
  old.erase(at, 8);
  EXPECT_FALSE(CellSpec::parse(old, &parsed));
}

TEST(CampaignSpec, ValidateRejectsNonsense) {
  std::string err;
  CampaignSpec spec;
  EXPECT_TRUE(spec.validate(&err)) << err;
  spec.protocols = {"qip", "notaproto"};
  EXPECT_FALSE(spec.validate(&err));
  EXPECT_NE(err.find("notaproto"), std::string::npos);
  spec.protocols = {};
  EXPECT_FALSE(spec.validate(&err));
  spec = CampaignSpec{};
  spec.nodes = {0};
  EXPECT_FALSE(spec.validate(&err));
  spec = CampaignSpec{};
  spec.ranges = {-5.0};
  EXPECT_FALSE(spec.validate(&err));
}

TEST(CampaignSpec, DigestPinsTheGrid) {
  CampaignSpec a, b;
  EXPECT_EQ(a.digest(), b.digest());
  b.seeds = 2;
  EXPECT_NE(a.digest(), b.digest());
}

// ---- cell results ---------------------------------------------------------

TEST(CellResult, RenderParseRoundTrips) {
  CellSpec spec;
  spec.seed = 99;
  CellResult r;
  r.configured = 0.96875;
  r.latency_hops = 2.3333333333333335;
  r.protocol_hops = 123456789;
  r.joins = 32;
  r.state_digest = 0x0123456789abcdefULL;
  CellSpec spec2;
  CellResult r2;
  ASSERT_TRUE(CellResult::parse(r.render(spec), &spec2, &r2));
  EXPECT_EQ(spec2, spec);
  EXPECT_EQ(r2.render(spec2), r.render(spec));
  EXPECT_FALSE(CellResult::parse("qip-cell v2\n", &spec2, &r2));
  EXPECT_FALSE(CellResult::parse("", &spec2, &r2));
}

// ---- injection plans ------------------------------------------------------

TEST(InjectPlan, ParsesEveryKind) {
  InjectPlan plan;
  std::string err;
  ASSERT_TRUE(InjectPlan::parse("crash:3@0,hang:1@2,die-after:5", &plan, &err))
      << err;
  EXPECT_TRUE(plan.matches(InjectKind::kCrash, 3, 0));
  EXPECT_FALSE(plan.matches(InjectKind::kCrash, 3, 1));
  EXPECT_TRUE(plan.matches(InjectKind::kHang, 1, 2));
  EXPECT_FALSE(plan.matches(InjectKind::kHang, 2, 1));
  EXPECT_EQ(plan.die_after, 5u);
  ASSERT_TRUE(InjectPlan::parse("crash:3@4294967295", &plan, &err)) << err;
  EXPECT_TRUE(plan.matches(InjectKind::kCrash, 3, 4294967295u));
  EXPECT_FALSE(plan.matches(InjectKind::kCrash, 3, 0));
  InjectPlan empty;
  ASSERT_TRUE(InjectPlan::parse("", &empty, &err));
  EXPECT_TRUE(empty.points.empty());
  EXPECT_EQ(empty.die_after, SIZE_MAX);
}

TEST(InjectPlan, RejectsMalformedTerms) {
  InjectPlan plan;
  std::string err;
  EXPECT_FALSE(InjectPlan::parse("explode:1@0", &plan, &err));
  EXPECT_FALSE(InjectPlan::parse("crash:1", &plan, &err));
  EXPECT_FALSE(InjectPlan::parse("crash:x@0", &plan, &err));
  EXPECT_FALSE(InjectPlan::parse("crash:1@-2", &plan, &err));
  EXPECT_FALSE(InjectPlan::parse("die-after:soon", &plan, &err));
  EXPECT_FALSE(InjectPlan::parse("crash:1@0,,hang:2@0", &plan, &err));
  // Attempts are 32-bit: 2^32 must not wrap around to attempt 0.
  EXPECT_FALSE(InjectPlan::parse("crash:3@4294967296", &plan, &err));
}

TEST(InjectPlanDeathTest, MalformedEnvExitsTwo) {
  setenv("QIP_CAMPAIGN_INJECT", "crash-1@0", 1);
  EXPECT_EXIT(inject_plan_from_env(), ::testing::ExitedWithCode(2),
              "QIP_CAMPAIGN_INJECT");
  unsetenv("QIP_CAMPAIGN_INJECT");
}

// ---- strict env parsing (satellite: campaign knobs) -----------------------

TEST(CampaignEnv, OverlaysDefaultsFromWellFormedVariables) {
  setenv("QIP_CAMPAIGN_JOBS", "3", 1);
  setenv("QIP_CAMPAIGN_RETRIES", "0", 1);  // zero is legal: never retry
  setenv("QIP_CAMPAIGN_DEADLINE_MS", "1500", 1);
  setenv("QIP_CAMPAIGN_BACKOFF_MS", "7", 1);
  const CampaignOptions o = campaign_options_from_env();
  EXPECT_EQ(o.jobs, 3u);
  EXPECT_EQ(o.retries, 0u);
  EXPECT_EQ(o.deadline_ms, 1500u);
  EXPECT_EQ(o.backoff_ms, 7u);
  unsetenv("QIP_CAMPAIGN_JOBS");
  unsetenv("QIP_CAMPAIGN_RETRIES");
  unsetenv("QIP_CAMPAIGN_DEADLINE_MS");
  unsetenv("QIP_CAMPAIGN_BACKOFF_MS");
  const CampaignOptions d = campaign_options_from_env();
  EXPECT_EQ(d.jobs, CampaignOptions{}.jobs);
}

TEST(CampaignEnvDeathTest, MalformedVariablesExitTwo) {
  setenv("QIP_CAMPAIGN_JOBS", "two", 1);
  EXPECT_EXIT(campaign_options_from_env(), ::testing::ExitedWithCode(2),
              "QIP_CAMPAIGN_JOBS");
  setenv("QIP_CAMPAIGN_JOBS", "0", 1);  // a campaign needs a worker
  EXPECT_EXIT(campaign_options_from_env(), ::testing::ExitedWithCode(2),
              "QIP_CAMPAIGN_JOBS");
  unsetenv("QIP_CAMPAIGN_JOBS");
  setenv("QIP_CAMPAIGN_RETRIES", "-1", 1);
  EXPECT_EXIT(campaign_options_from_env(), ::testing::ExitedWithCode(2),
              "QIP_CAMPAIGN_RETRIES");
  unsetenv("QIP_CAMPAIGN_RETRIES");
  setenv("QIP_CAMPAIGN_DEADLINE_MS", "1e3", 1);
  EXPECT_EXIT(campaign_options_from_env(), ::testing::ExitedWithCode(2),
              "QIP_CAMPAIGN_DEADLINE_MS");
  unsetenv("QIP_CAMPAIGN_DEADLINE_MS");
  setenv("QIP_CAMPAIGN_BACKOFF_MS", "10ms", 1);
  EXPECT_EXIT(campaign_options_from_env(), ::testing::ExitedWithCode(2),
              "QIP_CAMPAIGN_BACKOFF_MS");
  unsetenv("QIP_CAMPAIGN_BACKOFF_MS");
}

// ---- journal --------------------------------------------------------------

TEST(Journal, FreshRefusesToOverwrite) {
  const std::string path = unique_temp_path("journal");
  CampaignSpec spec;
  std::string err;
  {
    CampaignJournal j;
    ASSERT_TRUE(j.open_fresh(path, spec, &err)) << err;
  }
  CampaignJournal j2;
  EXPECT_FALSE(j2.open_fresh(path, spec, &err));
  EXPECT_NE(err.find("--resume"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Journal, ResumeReplaysProgressAndReArmsExhausted) {
  const std::string path = unique_temp_path("journal");
  CampaignSpec spec;
  spec.seeds = 4;  // cells 0..3
  std::string err;
  {
    CampaignJournal j;
    ASSERT_TRUE(j.open_fresh(path, spec, &err)) << err;
    j.record_start(0, 0);
    j.record_done(0, 0, 0xabcdULL);
    j.record_start(1, 0);
    j.record_fail(1, 0, "crash (injected)");
    j.record_start(1, 1);
    j.record_fail(1, 1, "deadline");
    j.record_exhausted(1, 2);
    j.record_start(2, 0);  // died mid-cell: no terminal record
  }
  // Simulate the torn final line of a SIGKILL.
  {
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << "done 3 0 12";  // no newline
  }
  std::vector<CellProgress> progress;
  CampaignJournal j;
  ASSERT_TRUE(j.open_resume(path, spec, &progress, &err)) << err;
  ASSERT_EQ(progress.size(), 4u);
  EXPECT_EQ(progress[0].status, CellStatus::kDone);
  EXPECT_EQ(progress[0].result_digest, 0xabcdULL);
  // Exhausted cells come back pending with their fail history intact.
  EXPECT_EQ(progress[1].status, CellStatus::kPending);
  EXPECT_EQ(progress[1].fails, 2u);
  EXPECT_EQ(progress[1].last_reason, "deadline");
  // An interrupted start is not an attempt.
  EXPECT_EQ(progress[2].status, CellStatus::kPending);
  EXPECT_EQ(progress[2].fails, 0u);
  // The torn record was discarded.
  EXPECT_EQ(progress[3].status, CellStatus::kPending);
  std::remove(path.c_str());
}

TEST(Journal, ResumeRefusesADifferentGrid) {
  const std::string path = unique_temp_path("journal");
  CampaignSpec spec;
  std::string err;
  {
    CampaignJournal j;
    ASSERT_TRUE(j.open_fresh(path, spec, &err)) << err;
  }
  CampaignSpec other = spec;
  other.base_seed ^= 1;
  std::vector<CellProgress> progress;
  CampaignJournal j;
  EXPECT_FALSE(j.open_resume(path, other, &progress, &err));
  EXPECT_NE(err.find("does not match"), std::string::npos);
  std::remove(path.c_str());
}

// ---- snapshots (satellite: round-trip property) ---------------------------

class SnapshotRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotRoundTrip, SerializeRestoreContinueIsByteIdentical) {
  CellSpec spec;
  spec.protocol = GetParam();
  spec.nodes = 8;
  spec.duration = 2.0;
  spec.churn = 2;
  spec.seed = derive_cell_seed(0x1cdc52007ULL, 0, 0);

  // Uninterrupted reference run.
  SimContext reference_ctx;
  CellRunner reference(spec, reference_ctx);
  reference.run_to_end();
  const std::string want = reference.result().render(spec);

  // Interrupted run: stop at a mid-grid phase boundary, snapshot, restore
  // into a fresh runner, continue.
  SimContext first_ctx;
  CellRunner first(spec, first_ctx);
  const std::size_t stop_at = first.phase_count() / 2;
  while (first.phases_run() < stop_at) first.run_phase();
  const std::string path = unique_temp_path("snapshot");
  std::string err;
  ASSERT_TRUE(save_snapshot(first, path, &err)) << err;

  const auto snap = load_snapshot(path, &err);
  ASSERT_TRUE(snap.has_value()) << err;
  EXPECT_EQ(snap->spec, spec);
  EXPECT_EQ(snap->phase, stop_at);
  EXPECT_EQ(snap->digest, first.state_digest());

  SimContext restored_ctx;
  auto restored = restore_snapshot(*snap, restored_ctx, &err);
  ASSERT_NE(restored, nullptr) << err;
  EXPECT_EQ(restored->state_digest(), first.state_digest());
  restored->run_to_end();
  EXPECT_EQ(restored->result().render(spec), want);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Protocols, SnapshotRoundTrip,
                         ::testing::Values("qip", "dad"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(CellRunner, HandsOutAddressesOnlyFromItsPool) {
  for (const std::string& name : protocol_names()) {
    if (name == "boleng") continue;  // variable-length addresses, no pool
    CellSpec spec;
    spec.protocol = name;
    spec.nodes = 20;
    spec.duration = 1.0;
    spec.pool = 64;
    spec.seed = 11;
    SimContext ctx;
    CellRunner runner(spec, ctx);
    runner.run_to_end();
    std::uint32_t configured = 0;
    for (NodeId id = 0; id < runner.driver().joined_count(); ++id) {
      const ConfigRecord* rec = runner.protocol().config_record(id);
      if (rec == nullptr || !rec->success) continue;
      ++configured;
      EXPECT_GE(rec->address.value(), kPoolBase.value()) << name;
      EXPECT_LT(rec->address.value(), kPoolBase.value() + 64) << name;
    }
    EXPECT_GT(configured, 0u) << name;
  }
}

TEST(Snapshot, LoadRejectsCorruptFiles) {
  const std::string path = unique_temp_path("snapshot");
  std::string err;
  {
    std::ofstream f(path);
    f << "NOTASNAP v1\n";
  }
  EXPECT_FALSE(load_snapshot(path, &err).has_value());
  EXPECT_NE(err.find("magic"), std::string::npos);
  // Every version but the current one is refused, the previous format (v1)
  // included.
  for (const char* old : {"QIPSNAP v99\n", "QIPSNAP v1\n"}) {
    std::ofstream f(path, std::ios::trunc);
    f << old;
    f.close();
    EXPECT_FALSE(load_snapshot(path, &err).has_value());
    EXPECT_NE(err.find("version"), std::string::npos);
  }
  {
    std::ofstream f(path, std::ios::trunc);
    CellSpec spec;
    f << "QIPSNAP v" << kSnapshotVersion << "\nspec " << spec.canonical()
      << "\nphase 1\n";
  }
  EXPECT_FALSE(load_snapshot(path, &err).has_value());
  std::remove(path.c_str());
}

TEST(Snapshot, RestoreRejectsAMismatchedDigest) {
  CellSpec spec;
  spec.nodes = 6;
  spec.duration = 1.0;
  spec.seed = 7;
  SimContext ctx;
  CellRunner runner(spec, ctx);
  runner.run_phase();
  const std::string path = unique_temp_path("snapshot");
  std::string err;
  ASSERT_TRUE(save_snapshot(runner, path, &err)) << err;
  auto snap = load_snapshot(path, &err);
  ASSERT_TRUE(snap.has_value()) << err;
  snap->digest ^= 1;  // claim a different simulation
  SimContext restored_ctx;
  EXPECT_EQ(restore_snapshot(*snap, restored_ctx, &err), nullptr);
  EXPECT_NE(err.find("mismatch"), std::string::npos);
  std::remove(path.c_str());
}

// ---- the process-pool runner ---------------------------------------------

TEST(CampaignRunner, RunsAGridAndReportsEveryCell) {
  CampaignSpec spec;
  spec.protocols = {"qip"};
  spec.nodes = {6};
  spec.duration = 1.0;
  spec.seeds = 2;
  CampaignOptions options;
  options.jobs = 2;
  const TempTree out_dir("campaign");
  options.out_dir = out_dir.path();
  CampaignRunner runner(spec, options);
  CampaignOutcome outcome;
  std::string err;
  ASSERT_TRUE(runner.run(&outcome, &err)) << err;
  EXPECT_TRUE(outcome.complete());
  ASSERT_EQ(outcome.cells.size(), 2u);
  for (const CellOutcome& c : outcome.cells) {
    EXPECT_EQ(c.status, CellStatus::kDone);
    EXPECT_EQ(c.fails, 0u);
    EXPECT_GT(c.result.joins, 0u);
  }
  // The consolidated report names the grid and both cells.
  const std::string report = render_campaign_report(spec, outcome);
  EXPECT_NE(report.find("qip-campaign v1"), std::string::npos);
  EXPECT_NE(report.find("done"), std::string::npos);
  EXPECT_EQ(report.find("FAILED"), std::string::npos);
}

TEST(CampaignRunner, InjectedCrashIsRetriedAndSurfaced) {
  CampaignSpec spec;
  spec.protocols = {"qip"};
  spec.nodes = {6};
  spec.duration = 1.0;
  spec.seeds = 1;
  CampaignOptions options;
  options.jobs = 1;
  options.retries = 1;
  options.backoff_ms = 1;
  const TempTree out_dir("campaign");
  options.out_dir = out_dir.path();
  InjectPlan inject;
  std::string err;
  ASSERT_TRUE(InjectPlan::parse("crash:0@0", &inject, &err)) << err;
  CampaignRunner runner(spec, options, inject);
  CampaignOutcome outcome;
  ASSERT_TRUE(runner.run(&outcome, &err)) << err;
  EXPECT_TRUE(outcome.complete());
  ASSERT_EQ(outcome.cells.size(), 1u);
  EXPECT_EQ(outcome.cells[0].status, CellStatus::kDone);
  EXPECT_EQ(outcome.cells[0].fails, 1u);
  EXPECT_EQ(outcome.cells[0].last_reason, "crash (injected)");
  // The journal shows the failed attempt followed by the successful one.
  const std::string journal = slurp(runner.journal_path());
  EXPECT_NE(journal.find("fail 0 0 crash (injected)"), std::string::npos);
  EXPECT_NE(journal.find("done 0 1 "), std::string::npos);
}

TEST(CampaignRunner, ExhaustionIsMarkedNotFatal) {
  CampaignSpec spec;
  spec.protocols = {"qip"};
  spec.nodes = {6};
  spec.duration = 1.0;
  spec.seeds = 2;
  CampaignOptions options;
  options.jobs = 1;
  options.retries = 1;
  options.backoff_ms = 1;
  const TempTree out_dir("campaign");
  options.out_dir = out_dir.path();
  InjectPlan inject;
  std::string err;
  ASSERT_TRUE(InjectPlan::parse("crash:0@0,crash:0@1", &inject, &err)) << err;
  CampaignRunner runner(spec, options, inject);
  CampaignOutcome outcome;
  ASSERT_TRUE(runner.run(&outcome, &err)) << err;
  EXPECT_FALSE(outcome.complete());
  EXPECT_EQ(outcome.exhausted, 1u);
  EXPECT_EQ(outcome.done, 1u);
  EXPECT_EQ(outcome.cells[0].status, CellStatus::kExhausted);
  EXPECT_EQ(outcome.cells[1].status, CellStatus::kDone);
  const std::string report = render_campaign_report(spec, outcome);
  EXPECT_NE(report.find("FAILED"), std::string::npos);
  EXPECT_NE(report.find("exhausted cells"), std::string::npos);
  EXPECT_NE(report.find("crash (injected)"), std::string::npos);
}

TEST(CampaignRunner, ResumeCompletesOnlyIncompleteCells) {
  CampaignSpec spec;
  spec.protocols = {"qip"};
  spec.nodes = {6};
  spec.duration = 1.0;
  spec.seeds = 3;
  CampaignOptions options;
  options.jobs = 1;
  options.retries = 0;
  const TempTree out_dir("campaign");
  options.out_dir = out_dir.path();

  // First run: cell 1 never succeeds (no retries), cells 0 and 2 complete.
  InjectPlan inject;
  std::string err;
  ASSERT_TRUE(InjectPlan::parse("crash:1@0", &inject, &err)) << err;
  {
    CampaignRunner runner(spec, options, inject);
    CampaignOutcome outcome;
    ASSERT_TRUE(runner.run(&outcome, &err)) << err;
    EXPECT_EQ(outcome.done, 2u);
    EXPECT_EQ(outcome.exhausted, 1u);
  }
  // Resume with no injection: only cell 1 re-runs, and the final outcome is
  // indistinguishable from a clean campaign except for its fail count.
  options.resume = true;
  CampaignRunner runner(spec, options);
  CampaignOutcome outcome;
  ASSERT_TRUE(runner.run(&outcome, &err)) << err;
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.cells[1].fails, 1u);
  const std::string journal = slurp(runner.journal_path());
  // Cells 0 and 2 were started exactly once across both runs.
  EXPECT_EQ(journal.find("start 0 0"), journal.rfind("start 0 0"));
  EXPECT_EQ(journal.find("start 2 0"), journal.rfind("start 2 0"));
}

}  // namespace
}  // namespace qip
