#include "campaign/runner.hpp"

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/env.hpp"

namespace qip {

namespace {

using Clock = std::chrono::steady_clock;

bool fail(std::string* err, const std::string& why) {
  if (err) *err = why;
  return false;
}

bool ensure_dir(const std::string& path, std::string* err) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return true;
  return fail(err, "mkdir " + path + ": " + std::strerror(errno));
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Human-stable description of how an attempt died.  Deterministic (no
/// timing, no pids): the strings land in the journal and, for exhausted
/// cells, in the byte-compared report.
std::string reason_for(int status, bool deadline_killed) {
  if (deadline_killed) return "deadline";
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == kCellExitInjectedCrash) return "crash (injected)";
    if (code == kCellExitException) return "exception (see cell log)";
    if (code == kCellExitArtifactError) return "artifact write failed";
    return "exit " + std::to_string(code);
  }
  if (WIFSIGNALED(status)) {
    return "signal " + std::to_string(WTERMSIG(status));
  }
  return "unknown wait status";
}

}  // namespace

CampaignOptions campaign_options_from_env(CampaignOptions defaults) {
  CampaignOptions o = defaults;
  o.jobs = env_positive_u32("QIP_CAMPAIGN_JOBS", o.jobs);
  o.retries = env_u32("QIP_CAMPAIGN_RETRIES", o.retries);
  o.deadline_ms = env_u32("QIP_CAMPAIGN_DEADLINE_MS", o.deadline_ms);
  o.backoff_ms = env_u32("QIP_CAMPAIGN_BACKOFF_MS", o.backoff_ms);
  return o;
}

CampaignRunner::CampaignRunner(CampaignSpec spec, CampaignOptions options,
                               InjectPlan inject)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      inject_(std::move(inject)) {
  journal_path_ = options_.out_dir + "/journal.txt";
  cells_dir_ = options_.out_dir + "/cells";
}

std::string CampaignRunner::result_path(std::size_t idx) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/cell_%zu.txt", idx);
  return cells_dir_ + buf;
}

std::string CampaignRunner::log_path(std::size_t idx,
                                     std::uint32_t attempt) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/cell_%zu.attempt%u.log", idx, attempt);
  return cells_dir_ + buf;
}

void CampaignRunner::run_cell_child(std::size_t idx, std::uint32_t attempt) {
  const CellSpec& spec = cells_[idx];
  if (inject_.matches(InjectKind::kHang, idx, attempt)) {
    for (;;) ::pause();  // the parent's deadline watchdog reaps us
  }
  if (inject_.matches(InjectKind::kCrash, idx, attempt)) {
    ::_exit(kCellExitInjectedCrash);
  }
  // The phase-digest trail doubles as the failure trace: if a later phase
  // throws, the log shows exactly how far the cell got and with what state.
  std::string trail = "spec " + spec.canonical() + "\n";
  trail += "attempt " + std::to_string(attempt) + "\n";
  try {
    SimContext ctx;
    CellRunner runner(spec, ctx);
    while (runner.phases_run() < runner.phase_count()) {
      runner.run_phase();
      char line[64];
      std::snprintf(line, sizeof(line), "phase %zu digest %016" PRIx64 "\n",
                    runner.phases_run(), runner.state_digest());
      trail += line;
    }
    const std::string artifact = runner.result().render(spec);
    const std::string path = result_path(idx);
    const std::string tmp = path + ".tmp";
    {
      std::ofstream f(tmp, std::ios::trunc | std::ios::binary);
      if (!f) ::_exit(kCellExitArtifactError);
      f << artifact;
      if (!f.flush()) ::_exit(kCellExitArtifactError);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      ::_exit(kCellExitArtifactError);
    }
    ::_exit(0);
  } catch (const std::exception& e) {
    trail += std::string("error ") + e.what() + "\n";
  } catch (...) {
    trail += "error unknown exception\n";
  }
  std::ofstream log(log_path(idx, attempt), std::ios::trunc);
  log << trail;
  log.flush();
  ::_exit(kCellExitException);
}

struct CampaignRunner::Pending {
  std::size_t idx = 0;
  std::uint32_t attempt = 0;  ///< next attempt number (this run)
  Clock::time_point eligible_at;  ///< backoff gate
};

bool CampaignRunner::run(CampaignOutcome* out, std::string* err) {
  std::string verr;
  if (!spec_.validate(&verr)) return fail(err, "invalid campaign: " + verr);
  cells_ = spec_.expand();
  if (!ensure_dir(options_.out_dir, err)) return false;
  if (!ensure_dir(cells_dir_, err)) return false;

  std::vector<CellProgress> progress;
  if (options_.resume) {
    if (!journal_.open_resume(journal_path_, spec_, &progress, err)) {
      return false;
    }
  } else {
    if (!journal_.open_fresh(journal_path_, spec_, err)) return false;
    progress.assign(cells_.size(), CellProgress{});
  }

  // Work queue: incomplete cells in index order.  Scheduling order does not
  // affect the report (see file comment in runner.hpp), only wall-clock.
  std::vector<Pending> queue;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (progress[i].status != CellStatus::kDone) {
      Pending p;
      p.idx = i;
      p.eligible_at = Clock::now();
      queue.push_back(p);
    }
  }

  struct Worker {
    pid_t pid = -1;
    std::size_t idx = 0;
    std::uint32_t attempt = 0;
    Clock::time_point deadline;
  };
  std::vector<Worker> running;

  auto handle_failure = [&](std::size_t idx, std::uint32_t attempt,
                            const std::string& reason) {
    journal_.record_fail(idx, attempt, reason);
    ++progress[idx].fails;
    progress[idx].last_reason = reason;
    if (attempt >= options_.retries) {
      journal_.record_exhausted(idx, attempt + 1);
      progress[idx].status = CellStatus::kExhausted;
      return;
    }
    Pending p;
    p.idx = idx;
    p.attempt = attempt + 1;
    p.eligible_at =
        Clock::now() + std::chrono::milliseconds(
                           static_cast<std::uint64_t>(options_.backoff_ms)
                           << attempt);
    queue.push_back(p);
  };

  while (!queue.empty() || !running.empty()) {
    // Launch as many eligible cells as free worker slots allow.
    for (std::size_t qi = 0;
         qi < queue.size() && running.size() < options_.jobs;) {
      if (queue[qi].eligible_at > Clock::now()) {
        ++qi;
        continue;
      }
      const Pending p = queue[qi];
      queue.erase(queue.begin() + qi);
      journal_.record_start(p.idx, p.attempt);
      const pid_t pid = ::fork();
      if (pid == 0) {
        journal_.close();  // the child must never append
        run_cell_child(p.idx, p.attempt);
      }
      if (pid < 0) return fail(err, std::string("fork: ") + strerror(errno));
      Worker w;
      w.pid = pid;
      w.idx = p.idx;
      w.attempt = p.attempt;
      w.deadline =
          Clock::now() + std::chrono::milliseconds(options_.deadline_ms);
      running.push_back(w);
    }

    // Reap finished workers and enforce deadlines.
    bool reaped = false;
    for (std::size_t wi = 0; wi < running.size();) {
      Worker& w = running[wi];
      int status = 0;
      pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      bool deadline_killed = false;
      if (r == 0 && Clock::now() > w.deadline) {
        ::kill(w.pid, SIGKILL);
        r = ::waitpid(w.pid, &status, 0);  // SIGKILL cannot be ignored
        deadline_killed = true;
      }
      if (r == 0) {
        ++wi;
        continue;
      }
      reaped = true;
      if (r < 0) return fail(err, std::string("waitpid: ") + strerror(errno));
      if (!deadline_killed && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        std::string text;
        CellSpec parsed;
        CellResult result;
        if (!read_file(result_path(w.idx), &text) ||
            !CellResult::parse(text, &parsed, &result) ||
            !(parsed == cells_[w.idx])) {
          // Exit 0 with no valid artifact is a worker bug, not a cell
          // failure; treat it as a failed attempt so it retries.
          handle_failure(w.idx, w.attempt, "artifact missing or corrupt");
        } else {
          journal_.record_done(w.idx, w.attempt, result.state_digest);
          progress[w.idx].status = CellStatus::kDone;
          progress[w.idx].result_digest = result.state_digest;
          ++done_records_;
          if (done_records_ >= inject_.die_after) {
            // Deterministic mid-grid power cut (see inject.hpp).  The done
            // record is already fsync'd, so resume sees a consistent truth.
            ::raise(SIGKILL);
          }
        }
      } else {
        handle_failure(w.idx, w.attempt, reason_for(status, deadline_killed));
      }
      running.erase(running.begin() + wi);
    }
    if (!reaped && !running.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else if (running.empty() && !queue.empty()) {
      // Everything left is backing off; nap until the earliest gate.
      auto earliest = queue.front().eligible_at;
      for (const Pending& p : queue) earliest = std::min(earliest, p.eligible_at);
      const auto now = Clock::now();
      if (earliest > now) std::this_thread::sleep_for(
          std::min<Clock::duration>(earliest - now,
                                    std::chrono::milliseconds(50)));
    }
  }
  journal_.close();

  // Assemble the outcome: journal state + parsed result artifacts.
  out->cells.clear();
  out->cells.reserve(cells_.size());
  out->done = out->exhausted = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellOutcome c;
    c.spec = cells_[i];
    c.status = progress[i].status;
    c.fails = progress[i].fails;
    c.last_reason = progress[i].last_reason;
    if (c.status == CellStatus::kDone) {
      std::string text;
      CellSpec parsed;
      if (!read_file(result_path(i), &text) ||
          !CellResult::parse(text, &parsed, &c.result) ||
          !(parsed == cells_[i])) {
        return fail(err, "journal marks cell " + std::to_string(i) +
                    " done but its result artifact is missing or corrupt (" +
                    result_path(i) + ")");
      }
      ++out->done;
    } else {
      ++out->exhausted;
    }
    out->cells.push_back(std::move(c));
  }
  return true;
}

}  // namespace qip
