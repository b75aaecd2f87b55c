#include "worklist/global_worklist.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "graph/generators.hpp"

namespace gvc::worklist {
namespace {

vc::DegreeArray root(const graph::CsrGraph& g) { return vc::DegreeArray(g); }

/// Heap bytes a worklist slot holds once a root of `g` was copied into it.
std::size_t slot_bytes(const graph::CsrGraph& g) {
  vc::DegreeArray slot;
  slot = root(g);
  return slot.heap_bytes();
}

TEST(GlobalWorklist, SeedAndSingleBlockDrain) {
  auto g = graph::cycle(6);
  GlobalWorklist wl(16, 8, /*num_blocks=*/1);
  wl.add(root(g));
  EXPECT_EQ(wl.size_approx(), 1u);

  vc::DegreeArray out;
  EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kGot);
  EXPECT_EQ(out.num_vertices(), 6);
  // Single block, empty queue: the next remove must detect termination.
  EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kDone);
}

TEST(GlobalWorklist, DonationRespectsThreshold) {
  auto g = graph::cycle(4);
  GlobalWorklist wl(16, /*threshold=*/2, /*num_blocks=*/1);
  EXPECT_TRUE(wl.try_donate(root(g)));
  EXPECT_TRUE(wl.try_donate(root(g)));
  // At threshold: rejected even though capacity remains.
  auto keep = root(g);
  EXPECT_FALSE(wl.try_donate(std::move(keep)));
  EXPECT_EQ(keep.num_vertices(), 4);  // rejected donation left intact
  EXPECT_EQ(wl.size_approx(), 2u);

  auto s = wl.stats();
  EXPECT_EQ(s.adds, 2u);
  EXPECT_EQ(s.donations_rejected_threshold, 1u);
}

TEST(GlobalWorklist, DonationRejectedWhenFull) {
  auto g = graph::cycle(4);
  // Capacity 2 (rounds to 2), threshold equal to capacity.
  GlobalWorklist wl(2, 2, 1);
  EXPECT_TRUE(wl.try_donate(root(g)));
  EXPECT_TRUE(wl.try_donate(root(g)));
  EXPECT_FALSE(wl.try_donate(root(g)));
  EXPECT_EQ(wl.stats().donations_rejected_full +
                wl.stats().donations_rejected_threshold,
            1u);
}

TEST(GlobalWorklist, SignalStopUnblocksRemovers) {
  auto g = graph::cycle(4);
  GlobalWorklist wl(8, 4, /*num_blocks=*/2);
  // Only one of the two blocks is present, so the termination condition
  // (all blocks waiting) cannot fire; only the stop signal releases it.
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    vc::DegreeArray out;
    EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kDone);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(released.load());
  wl.signal_stop();
  waiter.join();
  EXPECT_TRUE(released.load());
  EXPECT_TRUE(wl.stopped());
}

TEST(GlobalWorklist, AllBlocksWaitingTerminates) {
  constexpr int kBlocks = 4;
  auto g = graph::cycle(4);
  GlobalWorklist wl(8, 4, kBlocks);
  std::atomic<int> done_count{0};
  std::vector<std::thread> threads;
  for (int b = 0; b < kBlocks; ++b) {
    threads.emplace_back([&] {
      vc::DegreeArray out;
      if (wl.remove(out) == GlobalWorklist::RemoveOutcome::kDone)
        done_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done_count.load(), kBlocks);
}

TEST(GlobalWorklist, WorkIsNotLostUnderContention) {
  // Producer-consumer round: every removed entry spawns donations until a
  // global budget is consumed; at the end, removes == adds and all blocks
  // see kDone.
  constexpr int kBlocks = 4;
  constexpr int kBudget = 500;
  auto g = graph::cycle(8);
  GlobalWorklist wl(64, 32, kBlocks);
  wl.add(root(g));
  std::atomic<int> budget{kBudget};

  std::vector<std::thread> threads;
  for (int b = 0; b < kBlocks; ++b) {
    threads.emplace_back([&] {
      vc::DegreeArray out;
      while (wl.remove(out) == GlobalWorklist::RemoveOutcome::kGot) {
        // Each processed node spawns two children while budget remains.
        for (int c = 0; c < 2; ++c) {
          if (budget.fetch_sub(1) > 0) {
            if (!wl.try_donate(root(g))) budget.fetch_add(1);
          } else {
            budget.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto s = wl.stats();
  EXPECT_EQ(s.adds, s.removes);
  EXPECT_EQ(wl.size_approx(), 0u);
  EXPECT_GT(s.removes, 1u);
}

TEST(GlobalWorklist, MaxSizeSeenTracksPeak) {
  auto g = graph::cycle(4);
  GlobalWorklist wl(16, 8, 1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(wl.try_donate(root(g)));
  vc::DegreeArray out;
  for (int i = 0; i < 5; ++i) wl.remove(out);
  EXPECT_EQ(wl.stats().max_size_seen, 5u);
}

TEST(GlobalWorklist, SharedSlotsStayWarmAcrossWorklists) {
  auto g = graph::cycle(64);
  WorklistSlots slots;
  for (int solve = 0; solve < 2; ++solve) {
    GlobalWorklist wl(16, 8, /*num_blocks=*/1, &slots);
    EXPECT_EQ(slots.size(), wl.capacity() + 1);  // one spare per block
    wl.add(root(g));
    EXPECT_TRUE(wl.try_donate(root(g)));
    vc::DegreeArray out;
    EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kGot);
    EXPECT_EQ(out, root(g));
    EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kGot);
    EXPECT_EQ(wl.remove(out), GlobalWorklist::RemoveOutcome::kDone);
  }
  // Freed slots are reused most-recent first: two queued nodes at a time
  // touched two slots over both worklists, and they keep their buffers.
  EXPECT_EQ(slots.heap_bytes(), 2 * slot_bytes(g));
}

TEST(GlobalWorklist, SlotTrimKeepsAWarmPrefixWithinTheBound) {
  auto g = graph::cycle(64);
  const std::size_t node_bytes = slot_bytes(g);
  WorklistSlots slots;
  {
    GlobalWorklist wl(16, 16, /*num_blocks=*/1, &slots);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(wl.try_donate(root(g)));
  }
  EXPECT_EQ(slots.heap_bytes(), 4 * node_bytes);
  slots.trim(2 * node_bytes);
  EXPECT_EQ(slots.heap_bytes(), 2 * node_bytes);
  slots.trim(0);
  EXPECT_EQ(slots.heap_bytes(), 0u);
}

TEST(GlobalWorklistDeathTest, ThresholdAboveCapacity) {
  EXPECT_DEATH(GlobalWorklist(4, 100, 1), "threshold");
}

}  // namespace
}  // namespace gvc::worklist
