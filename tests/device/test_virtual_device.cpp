#include "device/virtual_device.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

#if defined(__SANITIZE_THREAD__)
#define GVC_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GVC_TEST_TSAN 1
#endif
#endif

namespace gvc::device {
namespace {

/// A cooperative grid whose blocks each wait until every block of the grid
/// has started: it completes only if all `grid` blocks are resident at once.
LaunchStats barrier_launch(const VirtualDevice& dev, int grid) {
  std::atomic<int> started{0};
  return dev.launch(grid, /*cooperative=*/true, [&](BlockContext&) {
    started.fetch_add(1);
    while (started.load() < grid) std::this_thread::yield();
  });
}

std::uint64_t threads_spawned() {
  return obs::Registry::global().counter_value(
      "gvc_device_threads_spawned_total");
}

TEST(VirtualDevice, PooledRunsEveryBlockExactlyOnce) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  std::atomic<int> runs{0};
  std::mutex mu;
  std::set<int> seen;
  auto stats = dev.launch(100, /*cooperative=*/false, [&](BlockContext& ctx) {
    runs.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(ctx.block_id());
  });
  EXPECT_EQ(runs.load(), 100);
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(stats.blocks.size(), 100u);
  for (const auto& b : stats.blocks) {
    EXPECT_GE(b.sm_id, 0);
    EXPECT_LT(b.sm_id, dev.spec().num_sms);
  }
}

TEST(VirtualDevice, CooperativeBlocksRunConcurrently) {
  // All blocks must be alive at once: make each wait until every other has
  // started — impossible under a pooled scheduler with fewer slots.
  constexpr int kGrid = 8;
  VirtualDevice dev(DeviceSpec::host_scaled());
  std::atomic<int> started{0};
  auto stats = dev.launch(kGrid, /*cooperative=*/true, [&](BlockContext&) {
    started.fetch_add(1);
    while (started.load() < kGrid) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), kGrid);
  EXPECT_EQ(stats.blocks.size(), static_cast<std::size_t>(kGrid));
}

TEST(VirtualDevice, NodeCountsAggregatePerSm) {
  DeviceSpec spec = DeviceSpec::host_scaled();  // 16 SMs
  VirtualDevice dev(spec);
  // Cooperative: block b -> SM b%16; give block b exactly b nodes.
  auto stats = dev.launch(32, true, [&](BlockContext& ctx) {
    for (int i = 0; i < ctx.block_id(); ++i) ctx.count_node();
  });
  EXPECT_EQ(stats.total_nodes(), 31u * 32u / 2u);
  auto per_sm = stats.nodes_per_sm();
  ASSERT_EQ(per_sm.size(), 16u);
  // SM s receives blocks s and s+16: s + (s+16) nodes.
  for (int s = 0; s < 16; ++s)
    EXPECT_DOUBLE_EQ(per_sm[static_cast<std::size_t>(s)], 2.0 * s + 16.0);
}

TEST(VirtualDevice, NodeCounterFlushesBatchedCountsOnBlockExit) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  // Same per-block counts as NodeCountsAggregatePerSm, but via the batched
  // counter: totals must be identical once the launch returns, because the
  // counter's destructor flushes before the body exits.
  auto stats = dev.launch(32, true, [&](BlockContext& ctx) {
    NodeCounter counter(ctx);
    for (int i = 0; i < ctx.block_id(); ++i) counter.tick();
    EXPECT_EQ(ctx.nodes_visited(), 0u);  // nothing flushed mid-run
  });
  EXPECT_EQ(stats.total_nodes(), 31u * 32u / 2u);
}

TEST(VirtualDevice, NodeCounterExplicitFlushAndBulkCount) {
  BlockContext ctx(0, 0);
  NodeCounter counter(ctx);
  counter.tick();
  counter.tick();
  counter.flush();
  EXPECT_EQ(ctx.nodes_visited(), 2u);
  counter.flush();  // idempotent when empty
  EXPECT_EQ(ctx.nodes_visited(), 2u);
  ctx.count_nodes(5);
  EXPECT_EQ(ctx.nodes_visited(), 7u);
}

TEST(VirtualDevice, NormalizedLoadAveragesToOne) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  auto stats = dev.launch(16, true, [&](BlockContext& ctx) {
    for (int i = 0; i <= ctx.block_id(); ++i) ctx.count_node();
  });
  auto load = stats.load_per_sm_normalized();
  double sum = 0;
  for (double x : load) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(load.size()), 1.0, 1e-9);
}

TEST(VirtualDevice, ActivityFractionsAreADistribution) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  auto stats = dev.launch(4, false, [&](BlockContext& ctx) {
    ctx.activities().add(util::Activity::kDegreeOneRule, 300);
    ctx.activities().add(util::Activity::kStackPush, 100);
  });
  auto frac = stats.mean_activity_fractions();
  double sum = 0;
  for (double f : frac) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(frac[static_cast<int>(util::Activity::kDegreeOneRule)], 0.75,
              1e-9);
  EXPECT_NEAR(frac[static_cast<int>(util::Activity::kStackPush)], 0.25, 1e-9);
}

TEST(VirtualDevice, MakespanCountsCpuWorkNotSleep) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  // Busy blocks accrue CPU makespan; a sleeping block accrues ~none — the
  // property that makes makespan a faithful simulated-parallel-time metric.
  auto busy = dev.launch(2, false, [&](BlockContext&) {
    volatile double sink = 0;  // per block: the blocks run concurrently
    for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
  });
  auto idle = dev.launch(2, false, [&](BlockContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  EXPECT_GT(busy.makespan_seconds(), 0.0);
  EXPECT_GT(busy.wall_seconds, 0.0);
  EXPECT_LT(idle.makespan_seconds(), busy.makespan_seconds() + 0.005);
  EXPECT_GT(idle.wall_seconds, 0.009);
}

TEST(VirtualDevice, ResidentLimitRespectsConcurrency) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  std::atomic<int> live{0}, peak{0};
  dev.launch(
      40, false,
      [&](BlockContext&) {
        int now = live.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        live.fetch_sub(1);
      },
      /*resident=*/3);
  EXPECT_LE(peak.load(), 3);
}

TEST(VirtualDevice, SteadyStateCooperativeLaunchesSpawnNoThreads) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  barrier_launch(dev, 32);  // warm-up: the pool holds >= 32 threads now
  const std::uint64_t before = threads_spawned();
  for (int i = 0; i < 100; ++i) {
    const LaunchStats st = dev.launch(32, true, [](BlockContext&) {});
    ASSERT_EQ(st.blocks.size(), 32u);
    EXPECT_GE(st.overhead_seconds, 0.0);
    EXPECT_LE(st.overhead_seconds, st.wall_seconds);
  }
  EXPECT_EQ(threads_spawned() - before, 0u);
}

TEST(VirtualDevice, LaunchMetricsAreRegistered) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  dev.launch(4, true, [](BlockContext&) {});
  const std::string text = obs::Registry::global().prometheus_text();
  EXPECT_NE(text.find("gvc_device_launch_overhead_seconds"), std::string::npos);
  EXPECT_NE(text.find("gvc_device_threads_spawned_total"), std::string::npos);
  EXPECT_NE(text.find("gvc_device_pool_threads"), std::string::npos);
  EXPECT_GT(threads_spawned(), 0u);
}

TEST(VirtualDevice, ConcurrentCooperativeLaunchesAllComplete) {
  // Four hosts launch barrier grids at once: every grid needs all its
  // blocks resident together, so a launch that waited for another launch's
  // threads (instead of spawning) would deadlock here.
  constexpr int kHosts = 4, kGrid = 8, kRounds = 20;
  VirtualDevice dev(DeviceSpec::host_scaled());
  std::atomic<int> ready{0}, completed{0};
  std::vector<std::thread> hosts;
  for (int h = 0; h < kHosts; ++h)
    hosts.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kHosts) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r)
        if (barrier_launch(dev, kGrid).blocks.size() == kGrid)
          completed.fetch_add(1);
    });
  for (auto& t : hosts) t.join();
  EXPECT_EQ(completed.load(), kHosts * kRounds);
}

TEST(VirtualDevice, LaunchFromInsideABlockCompletes) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  std::atomic<int> started{0}, inner_blocks{0};
  dev.launch(4, true, [&](BlockContext&) {
    // Every outer block holds its thread while it launches.
    started.fetch_add(1);
    while (started.load() < 4) std::this_thread::yield();
    inner_blocks.fetch_add(
        static_cast<int>(barrier_launch(dev, 4).blocks.size()));
    dev.launch(
        10, false, [&](BlockContext&) { inner_blocks.fetch_add(1); },
        /*resident=*/2);
  });
  EXPECT_EQ(inner_blocks.load(), 4 * (4 + 10));
}

TEST(VirtualDevice, PooledSlotIdsStayInRangeAndBlocksRunOnce) {
  constexpr int kGrid = 200, kResident = 5;
  const DeviceSpec spec = DeviceSpec::host_scaled();
  VirtualDevice dev(spec);
  for (int round = 0; round < 3; ++round) {  // later rounds reuse threads
    std::vector<std::atomic<int>> runs(kGrid);
    std::atomic<int> bad_slots{0};
    const LaunchStats stats = dev.launch(
        kGrid, false,
        [&](BlockContext& ctx) {
          runs[static_cast<std::size_t>(ctx.block_id())].fetch_add(1);
          if (ctx.slot_id() < 0 || ctx.slot_id() >= kResident ||
              ctx.sm_id() != ctx.slot_id() % spec.num_sms)
            bad_slots.fetch_add(1);
        },
        kResident);
    EXPECT_EQ(bad_slots.load(), 0);
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
    ASSERT_EQ(stats.blocks.size(), static_cast<std::size_t>(kGrid));
    for (int b = 0; b < kGrid; ++b)
      EXPECT_EQ(stats.blocks[static_cast<std::size_t>(b)].block_id, b);
  }
}

TEST(VirtualDevice, ForkedChildLaunchesOnItsOwnThreads) {
#ifdef GVC_TEST_TSAN
  GTEST_SKIP() << "ThreadSanitizer cannot start threads after a "
                  "multi-threaded fork";
#endif
  VirtualDevice dev(DeviceSpec::host_scaled());
  barrier_launch(dev, 8);  // the parent now has parked pool threads
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Only the forking thread exists here: handing a block to one of the
    // parent's parked threads would never run it.
    const bool ok =
        barrier_launch(dev, 8).blocks.size() == 8u &&
        dev.launch(20, false, [](BlockContext&) {}, 3).blocks.size() == 20u;
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  pid_t done = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (done == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    FAIL() << "forked child's launch did not complete";
  }
  ASSERT_EQ(done, pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(VirtualDeviceDeathTest, RejectsEmptyGrid) {
  VirtualDevice dev(DeviceSpec::host_scaled());
  EXPECT_DEATH(dev.launch(0, false, [](BlockContext&) {}), "GVC_CHECK");
}

}  // namespace
}  // namespace gvc::device
