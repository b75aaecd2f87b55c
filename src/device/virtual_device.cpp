#include "device/virtual_device.hpp"

#include <algorithm>
#include <atomic>

#include "device/block_pool.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace gvc::device {

namespace {

struct LaunchMetrics {
  std::shared_ptr<obs::Histogram> overhead;

  static const LaunchMetrics& get() {
    static const LaunchMetrics* m = new LaunchMetrics{
        obs::Registry::global().histogram(
            "gvc_device_launch_overhead_seconds",
            "launch wall time not spent inside a resident thread's blocks"),
    };
    return *m;
  }
};

}  // namespace

std::uint64_t LaunchStats::total_nodes() const {
  std::uint64_t sum = 0;
  for (const auto& b : blocks) sum += b.nodes_visited;
  return sum;
}

std::vector<double> LaunchStats::nodes_per_sm() const {
  std::vector<double> per_sm(static_cast<std::size_t>(num_sms), 0.0);
  for (const auto& b : blocks)
    per_sm[static_cast<std::size_t>(b.sm_id)] +=
        static_cast<double>(b.nodes_visited);
  return per_sm;
}

std::vector<double> LaunchStats::load_per_sm_normalized() const {
  auto per_sm = nodes_per_sm();
  double sum = 0;
  for (double x : per_sm) sum += x;
  double mean = num_sms > 0 ? sum / num_sms : 0.0;
  if (mean > 0)
    for (double& x : per_sm) x /= mean;
  return per_sm;
}

double LaunchStats::makespan_seconds() const {
  std::vector<double> busy(static_cast<std::size_t>(num_sms), 0.0);
  for (const auto& b : blocks)
    busy[static_cast<std::size_t>(b.sm_id)] +=
        static_cast<double>(b.cpu_ns) * 1e-9;
  double m = 0;
  for (double x : busy) m = std::max(m, x);
  return m;
}

util::ActivityAccumulator LaunchStats::merged_activities() const {
  util::ActivityAccumulator acc;
  for (const auto& b : blocks) acc.merge(b.activities);
  return acc;
}

std::vector<double> LaunchStats::mean_activity_fractions() const {
  std::vector<double> fractions(util::kNumActivities, 0.0);
  int counted = 0;
  for (const auto& b : blocks) {
    std::uint64_t total = b.activities.total_ns();
    if (total == 0) continue;
    ++counted;
    for (int a = 0; a < util::kNumActivities; ++a)
      fractions[static_cast<std::size_t>(a)] +=
          static_cast<double>(b.activities.ns(static_cast<util::Activity>(a))) /
          static_cast<double>(total);
  }
  if (counted > 0)
    for (double& f : fractions) f /= counted;
  return fractions;
}

VirtualDevice::VirtualDevice(DeviceSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

LaunchStats VirtualDevice::launch(
    int grid_size, bool cooperative,
    const std::function<void(BlockContext&)>& body, int resident) const {
  GVC_CHECK(grid_size > 0);
  LaunchStats stats;
  stats.num_sms = spec_.num_sms;
  stats.blocks.resize(static_cast<std::size_t>(grid_size));

  util::WallTimer timer;

  auto run_block = [&](int block_id, int sm_id, int slot_id) {
    BlockContext ctx(block_id, sm_id, slot_id);
    std::uint64_t start = util::thread_cpu_ns();
    body(ctx);
    ctx.mutable_stats().cpu_ns = util::thread_cpu_ns() - start;
    stats.blocks[static_cast<std::size_t>(block_id)] = ctx.mutable_stats();
  };

  // Cooperative: a persistent grid, every block resident on its own pool
  // thread at once and assigned to SMs round-robin (how a full-occupancy
  // persistent launch lands on HW). Pooled: `resident` slots drain the grid
  // in block-id order; a slot is pinned to an SM and each block it runs
  // inherits that SM, matching the hardware scheduler's free-slot dispatch.
  int threads = grid_size;
  if (!cooperative) {
    if (resident <= 0)
      resident = static_cast<int>(std::min<std::int64_t>(
          spec_.max_resident_blocks(), grid_size));
    threads = std::min(resident, grid_size);
  }
  std::atomic<int> next{0};
  std::vector<std::uint64_t> busy_ns(static_cast<std::size_t>(threads), 0);
  BlockPool::instance().run(threads, [&](int t) {
    const std::uint64_t start = util::now_ns();
    if (cooperative) {
      run_block(t, t % spec_.num_sms, t);
    } else {
      for (;;) {
        int b = next.fetch_add(1, std::memory_order_relaxed);
        if (b >= grid_size) break;
        run_block(b, t % spec_.num_sms, t);
      }
    }
    busy_ns[static_cast<std::size_t>(t)] = util::now_ns() - start;
  });

  stats.wall_seconds = timer.seconds();
  const std::uint64_t longest =
      *std::max_element(busy_ns.begin(), busy_ns.end());
  stats.overhead_seconds =
      std::max(0.0, stats.wall_seconds - static_cast<double>(longest) * 1e-9);
  LaunchMetrics::get().overhead->observe_seconds(stats.overhead_seconds);
  return stats;
}

}  // namespace gvc::device
