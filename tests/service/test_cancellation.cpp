// Cancellation and deadline coverage for the SolveControl/Outcome wiring:
// ticket-cancel of a queued job, cancel of an in-flight solve (prompt
// return, kCancelled), a queue deadline firing mid-solve (kDeadline), and
// the differential guarantee that a control that never fires leaves every
// method's result bit-identical to a control-free run.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "parallel/solver.hpp"
#include "service/solve_service.hpp"
#include "util/timer.hpp"

namespace gvc::service {
namespace {

using parallel::Method;
using parallel::ParallelConfig;
using parallel::ParallelResult;

std::shared_ptr<const graph::CsrGraph> share(graph::CsrGraph g) {
  return std::make_shared<graph::CsrGraph>(std::move(g));
}

/// A deliberately slow MVC instance (~10^6 tree nodes sequential): big
/// enough that an uncancelled run dwarfs any cancellation latency, small
/// enough to solve once for the baseline.
graph::CsrGraph slow_graph() { return graph::gnp(140, 0.2, 1); }

/// A smaller sibling for tests that only need "slow enough to still be
/// running when we act".
graph::CsrGraph medium_graph() { return graph::gnp(120, 0.25, 1); }

/// A blocker that never finishes within a test: its Sequential tree grows
/// ~2.5x per 10 vertices from slow_graph()'s, i.e. hours of solving. Tests
/// that pin a worker with it end it with JobTicket::cancel().
graph::CsrGraph endless_graph() { return graph::gnp(250, 0.2, 1); }

void spin_until_running(const JobTicket& t) {
  while (t.state->status() == JobStatus::kQueued) std::this_thread::yield();
  // Either kRunning now, or already terminal (we lost the race — callers
  // assert on the final status, so that is detected there).
}

TEST(Cancellation, QueuedJobTurnsTerminalImmediately) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);

  // Pin the single worker so the victim stays queued.
  JobSpec blocker;
  blocker.graph = share(endless_graph());
  blocker.method = Method::kSequential;
  JobTicket tb = svc.submit(blocker);
  spin_until_running(tb);

  JobSpec victim;
  victim.graph = share(graph::gnp(40, 0.3, 7));
  victim.method = Method::kSequential;
  JobTicket tv = svc.submit(std::move(victim));
  ASSERT_EQ(tv.state->status(), JobStatus::kQueued);

  // cancel() must not wait for a worker to reach the job.
  EXPECT_TRUE(tv.cancel());
  EXPECT_EQ(tv.state->status(), JobStatus::kCancelled);
  EXPECT_EQ(tv.state->wait(), JobStatus::kCancelled);
  EXPECT_EQ(tv.state->result().outcome, vc::Outcome::kCancelled);
  EXPECT_FALSE(tv.state->result().has_cover());

  // A second cancel is a no-op on a terminal job.
  EXPECT_FALSE(tv.cancel());

  // The cancelled registration must not poison the cache: the identical
  // resubmission re-solves (dead-owner adoption hands it the key even
  // before a worker sweeps the cancelled job).
  JobSpec retry;
  retry.graph = share(graph::gnp(40, 0.3, 7));
  retry.method = Method::kSequential;
  JobTicket tr = svc.submit(std::move(retry));
  EXPECT_FALSE(tr.coalesced);
  tb.cancel();  // free the worker for the retry
  EXPECT_EQ(tr.state->wait(), JobStatus::kDone);
  EXPECT_FALSE(tr.cache_hit);
  EXPECT_TRUE(svc.wait(tr).complete());

  // The retry sits behind the cancelled job in the same FIFO shard, so by
  // the time it is done the worker has swept (and counted) the victim.
  svc.wait(tb);
  EXPECT_GE(svc.stats().cancelled, 1u);
}

TEST(Cancellation, InFlightSolveStopsPromptly) {
  // Baseline: the uncancelled run, for the "wall time much smaller" check.
  graph::CsrGraph g = slow_graph();
  util::WallTimer baseline_timer;
  ParallelResult baseline =
      parallel::solve(g, Method::kSequential, ParallelConfig{});
  const double baseline_s = baseline_timer.seconds();
  ASSERT_TRUE(baseline.complete());

  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(slow_graph());
  spec.method = Method::kSequential;
  JobTicket t = svc.submit(std::move(spec));
  spin_until_running(t);
  ASSERT_EQ(t.state->status(), JobStatus::kRunning);

  util::WallTimer cancel_timer;
  EXPECT_TRUE(t.cancel());
  EXPECT_EQ(t.state->wait(), JobStatus::kCancelled);
  const double cancel_s = cancel_timer.seconds();

  const ParallelResult& r = t.state->result();
  EXPECT_EQ(r.outcome, vc::Outcome::kCancelled);
  EXPECT_TRUE(r.limit_hit());
  // MVC: the interrupted record still holds the valid best-so-far cover.
  EXPECT_TRUE(r.has_cover());
  EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
  // Prompt: the cancel latch is observed within a few tree nodes, so the
  // post-cancel tail is a sliver of the uncancelled run (and the solve
  // visited only a fraction of the full tree).
  EXPECT_LT(cancel_s, baseline_s / 4.0);
  EXPECT_LT(r.tree_nodes, baseline.tree_nodes / 4);

  EXPECT_GE(svc.stats().cancelled, 1u);
  EXPECT_EQ(svc.stats().cache.completed_entries, 0u);  // never cached
}

TEST(Cancellation, DeadlinePassingMidSolveYieldsKDeadline) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);

  // Dequeues instantly (idle worker), then must stop itself: the queue
  // deadline was propagated into the running solve's SolveControl.
  JobSpec spec;
  spec.graph = share(slow_graph());
  spec.method = Method::kSequential;
  spec.deadline_s = 0.1;  // far shorter than the multi-second full solve
  util::WallTimer timer;
  JobTicket t = svc.submit(std::move(spec));

  EXPECT_EQ(t.state->wait(), JobStatus::kExpired);
  const double wall = timer.seconds();
  const ParallelResult& r = t.state->result();
  EXPECT_EQ(r.outcome, vc::Outcome::kDeadline);
  EXPECT_GT(r.tree_nodes, 0u);  // it really was running, not dropped
  EXPECT_LT(wall, 2.0);         // stopped near the deadline, not at the end

  ServiceStats stats = svc.stats();
  EXPECT_GE(stats.expired, 1u);
  EXPECT_EQ(stats.cancelled, 0u);  // expiries are not cancellations
  EXPECT_EQ(stats.cache.completed_entries, 0u);
}

TEST(Cancellation, CancelAfterCompletionIsANoop) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(graph::gnp(30, 0.3, 3));
  spec.method = Method::kSequential;
  JobTicket t = svc.submit(std::move(spec));
  ASSERT_EQ(t.state->wait(), JobStatus::kDone);
  EXPECT_FALSE(t.cancel());
  EXPECT_EQ(t.state->status(), JobStatus::kDone);
  EXPECT_TRUE(t.state->result().complete());
}

TEST(Cancellation, CancelFromAnotherThreadUnblocksWait) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);

  JobSpec spec;
  spec.graph = share(medium_graph());
  spec.method = Method::kSequential;
  JobTicket t = svc.submit(std::move(spec));

  std::thread canceller([&t] {
    spin_until_running(t);
    t.cancel();
  });
  EXPECT_EQ(t.state->wait(), JobStatus::kCancelled);
  canceller.join();
}

TEST(Cancellation, DifferentlyBudgetedTwinRunsItsOwnSolve) {
  // Same graph+config, different budgets: the budgeted twin must not
  // coalesce onto the unbounded in-flight solve (it would inherit a
  // control it never asked for) — it bypasses and solves independently.
  ServiceOptions opts;
  opts.num_workers = 2;  // twin lands on the same shard but another worker
                         // is free to take it
  SolveService svc(opts);

  JobSpec unbounded;
  unbounded.graph = share(medium_graph());
  unbounded.method = Method::kSequential;
  JobTicket tu = svc.submit(unbounded);
  spin_until_running(tu);

  JobSpec budgeted = unbounded;
  budgeted.limits.max_tree_nodes = 3;
  JobTicket tb = svc.submit(std::move(budgeted));
  EXPECT_FALSE(tb.coalesced);
  EXPECT_NE(tb.state.get(), tu.state.get());

  EXPECT_EQ(tb.state->wait(), JobStatus::kDone);
  EXPECT_EQ(tb.state->result().outcome, vc::Outcome::kFeasible);
  EXPECT_LE(tb.state->result().tree_nodes, 3u);

  EXPECT_EQ(tu.state->wait(), JobStatus::kDone);
  EXPECT_EQ(tu.state->result().outcome, vc::Outcome::kOptimal);
}

// The acceptance differential: with no control firing, every method's
// Outcome-carrying result is bit-identical to a control-free (seed
// -equivalent) run — same cover, same tree, same node count.
TEST(ControlDifferential, NeverFiringControlIsBitIdentical) {
  graph::CsrGraph g = graph::complement(graph::p_hat(36, 0.35, 0.85, 13));

  ParallelConfig config;
  config.grid_override = 1;  // single block: deterministic traversal
  config.start_depth = 2;
  config.worklist_capacity = 128;

  for (Method method : parallel::all_methods()) {
    ParallelResult bare = parallel::solve(g, method, config);

    vc::SolveControl control;  // armed but never firing
    control.limits.max_tree_nodes = 1u << 30;
    control.limits.time_limit_s = 3600.0;
    control.set_deadline(vc::SolveControl::now_s() + 3600.0);
    ParallelResult guarded = parallel::solve(g, method, config, &control);

    EXPECT_EQ(bare.outcome, guarded.outcome) << method_name(method);
    EXPECT_EQ(bare.best_size, guarded.best_size) << method_name(method);
    EXPECT_EQ(bare.cover, guarded.cover) << method_name(method);
    EXPECT_EQ(bare.tree_nodes, guarded.tree_nodes) << method_name(method);
    EXPECT_EQ(bare.outcome, vc::Outcome::kOptimal) << method_name(method);
  }
}

}  // namespace
}  // namespace gvc::service
