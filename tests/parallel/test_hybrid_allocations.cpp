// Heap-allocation budget of a warm Hybrid solve. This binary replaces the
// global operator new with a counting one, so it must stay a test binary of
// its own: every allocation in the process is counted.
//
// The global worklist copies nodes into and out of slots kept in the
// SolveWorkspace, and the per-node Fig. 6 scopes are off unless the control
// asks for them, so once a workspace is warm a solve allocates per launch
// (greedy bound, block bookkeeping, incumbent covers), not per donation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness/catalog.hpp"
#include "parallel/solver.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// GCC 12 flags free() here as a new/delete mismatch: it does not see that
// this operator new is the replacement that allocated with malloc().
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace gvc::parallel {
namespace {

TEST(HybridAllocations, WarmSolveAllocatesLessThanOncePerWorklistAdd) {
  const auto catalog = harness::paper_catalog(harness::Scale::kSmoke);
  const graph::CsrGraph& g =
      harness::find_instance(catalog, "p_hat_300_3").graph();
  const ParallelConfig config;  // the library defaults: undo-trail blocks
  SolveWorkspace workspace;

  const ParallelResult warm =
      solve(g, Method::kHybrid, config, nullptr, &workspace);
  ASSERT_TRUE(warm.complete());

  const std::uint64_t before = g_allocations.load();
  const ParallelResult r =
      solve(g, Method::kHybrid, config, nullptr, &workspace);
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_TRUE(r.complete());
  EXPECT_EQ(r.best_size, warm.best_size);
  ASSERT_GE(r.worklist.adds, 1000u) << "instance too easy to load the worklist";
  EXPECT_LT(allocations, r.worklist.adds)
      << allocations << " allocations for " << r.worklist.adds
      << " worklist adds";
}

}  // namespace
}  // namespace gvc::parallel
