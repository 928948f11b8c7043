// Deterministic parallel replication: fan independent simulation cells
// across a thread pool without changing a single output byte.
//
// A "cell" is one (x value, round) replication of a scenario — a fully
// independent simulation with its own seed.  run_cells() gives every cell a
// replica SimContext of the parent (own trace recorder, own metrics
// registry), runs cells on up to `jobs` worker threads, and absorbs the
// finished contexts back into the parent strictly in ascending cell order.
// Because cells never share mutable state and the merge order is fixed, the
// observable output — figure tables, trace files, metrics — is
// byte-identical for every jobs value, including jobs=1, which takes a
// sequential path with the same replica-context semantics.
//
// Memory is bounded by backpressure: a worker does not start a cell that is
// more than a small window ahead of the merge frontier, so at most O(jobs)
// replica trace rings are alive at once.
//
// See docs/PARALLELISM.md for the ownership diagram and the determinism
// contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/sim_context.hpp"

namespace qip {

/// What run_cells() rethrows when a cell throws: the original message,
/// prefixed with the cell's index ("cell 2317: quorum timed out").  The
/// caller maps the index back to its (x, round) and so to the seed the cell
/// gave its World, which re-runs the one failing simulation in isolation.
class CellFailure : public std::runtime_error {
 public:
  CellFailure(std::size_t index, const std::string& what);

  std::size_t index() const { return index_; }

 private:
  std::size_t index_;
};

/// Reads QIP_JOBS (strict parse: malformed values exit(2)), defaulting to
/// `fallback`.  The value is a worker-thread count; 1 means sequential.
std::uint32_t jobs_from_env(std::uint32_t fallback = 1);

/// Seed for (experiment seed, x index, round) — a pure function of its
/// inputs, independent of execution order.  This is the historical formula
/// the figure suite always used; parallel replication relies on exactly
/// this property.
std::uint64_t derive_cell_seed(std::uint64_t base, std::uint64_t xi,
                               std::uint64_t round);

/// Runs `total` independent cells and merges their results deterministically.
///
///   cell(idx, ctx)  — runs on a worker thread (inline when jobs <= 1) with
///                     a replica SimContext; returns a T.  Must not touch
///                     process-global observability state.
///   merge(idx, t)   — runs on the calling thread, strictly in ascending
///                     idx order, after the cell's context was absorb()ed
///                     into `parent`.
///
/// If a cell throws, the lowest-index failure is rethrown on the calling
/// thread as a CellFailure carrying the cell index; cells at higher
/// indices are discarded, and cells still queued behind a recorded failure
/// are cancelled instead of run to completion — their results could never be
/// observed, so running them only burns time between the fault and the
/// report.
template <typename T, typename CellFn, typename MergeFn>
void run_cells(SimContext& parent, std::uint32_t jobs, std::size_t total,
               CellFn&& cell, MergeFn&& merge) {
  if (total == 0) return;

  if (jobs <= 1 || total == 1) {
    for (std::size_t idx = 0; idx < total; ++idx) {
      SimContext ctx(SimContext::Replica{}, parent);
      T result = [&]() -> T {
        try {
          return cell(idx, ctx);
        } catch (const std::exception& e) {
          throw CellFailure(idx, e.what());
        } catch (...) {
          throw CellFailure(idx, "unknown exception");
        }
      }();
      parent.absorb(ctx);
      merge(idx, std::move(result));
    }
    return;
  }

  struct Slot {
    std::unique_ptr<SimContext> ctx;
    std::optional<T> result;
    std::exception_ptr error;
    bool done = false;
  };

  const auto workers = static_cast<std::uint32_t>(
      std::min<std::size_t>(jobs, total));
  const std::size_t window = 2 * static_cast<std::size_t>(workers) + 2;

  std::vector<Slot> slots(total);
  std::mutex mu;
  std::condition_variable cv_done;   // worker -> merger: a slot finished
  std::condition_variable cv_space;  // merger -> workers: frontier advanced
  std::size_t merged = 0;            // guarded by mu
  std::atomic<std::size_t> next{0};
  // Lowest failed index so far.  A cell queued behind a failure can never be
  // observed (results past the lowest failure are discarded), so workers
  // skip it instead of running it; the winning exception can only move down,
  // never up, so nothing that still matters is skipped.
  constexpr std::size_t kNoFailure = ~static_cast<std::size_t>(0);
  std::atomic<std::size_t> failed_at{kNoFailure};

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
        if (idx >= total) return;
        bool cancelled = idx > failed_at.load(std::memory_order_acquire);
        if (!cancelled) {
          // Backpressure: stay within `window` of the merge frontier so
          // unmerged replica contexts (and their trace rings) stay O(jobs).
          std::unique_lock<std::mutex> lock(mu);
          cv_space.wait(lock, [&] { return merged + window > idx; });
          cancelled = idx > failed_at.load(std::memory_order_acquire);
        }
        std::unique_ptr<SimContext> ctx;
        std::optional<T> result;
        std::exception_ptr error;
        if (!cancelled) {
          ctx = std::make_unique<SimContext>(SimContext::Replica{}, parent);
          try {
            result.emplace(cell(idx, *ctx));
          } catch (const std::exception& e) {
            error = std::make_exception_ptr(CellFailure(idx, e.what()));
          } catch (...) {
            error = std::make_exception_ptr(
                CellFailure(idx, "unknown exception"));
          }
          if (error) {
            // CAS-min: record the lowest failed index.
            std::size_t cur = failed_at.load(std::memory_order_relaxed);
            while (idx < cur &&
                   !failed_at.compare_exchange_weak(
                       cur, idx, std::memory_order_release,
                       std::memory_order_relaxed)) {
            }
          }
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          slots[idx].ctx = std::move(ctx);
          slots[idx].result = std::move(result);
          slots[idx].error = error;
          slots[idx].done = true;
        }
        cv_done.notify_one();
      }
    });
  }

  // The calling thread is the merger: fold each cell in as soon as every
  // earlier cell has been folded.  absorb()/merge() run outside the lock so
  // workers are never serialized behind them.
  std::exception_ptr first_error;
  {
    std::unique_lock<std::mutex> lock(mu);
    for (std::size_t idx = 0; idx < total; ++idx) {
      cv_done.wait(lock, [&] { return slots[idx].done; });
      Slot slot = std::move(slots[idx]);
      lock.unlock();
      if (slot.error) {
        if (!first_error) first_error = slot.error;
      } else if (!first_error && slot.result) {
        parent.absorb(*slot.ctx);
        merge(idx, std::move(*slot.result));
      }
      slot.ctx.reset();  // release the replica trace ring promptly
      lock.lock();
      merged = idx + 1;
      cv_space.notify_all();
    }
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace qip
