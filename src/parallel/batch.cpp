#include "parallel/batch.hpp"

#include <algorithm>
#include <thread>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/sequential.hpp"

namespace gvc::parallel {

BatchResult solve_batch(const std::vector<const graph::CsrGraph*>& graphs,
                        const ParallelConfig& config,
                        vc::SolveControl* control, SolveWorkspace* workspace) {
  BatchResult result;
  if (graphs.empty()) return result;
  for (const auto* g : graphs) GVC_CHECK(g != nullptr);

  util::WallTimer timer;

  // Size the resident pool off the largest instance in the batch. The depth
  // bound is the conservative |V|max (a search never branches deeper than
  // the vertex count) — the plan only sizes slots here, it doesn't bound
  // any real stack, and the per-graph greedy bounds aren't known until the
  // blocks run.
  std::int64_t max_n = 1;
  for (const auto* g : graphs)
    max_n = std::max<std::int64_t>(max_n, g->num_vertices());
  result.plan =
      device::plan_launch(config.device, max_n, static_cast<int>(max_n) + 2,
                          config.block_size_override);
  const int grid = static_cast<int>(graphs.size());
  // Default residency: the §IV-E occupancy plan, additionally capped at the
  // HOST's core count. `plan` records the simulated device's residency
  // untouched, but batch slots are host threads running real searches — on
  // a machine with fewer cores than the plan's grid, extra slots only add
  // context switches to a throughput path. An explicit grid_override is
  // respected as given (tests pin determinism knobs with it).
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const int resident =
      config.grid_override > 0
          ? std::min(config.grid_override, grid)
          : std::min({result.plan.grid_size, grid, cores});
  GVC_CHECK(resident > 0);

  const vc::SequentialConfig sc = sequential_config_of(config);
  if (workspace) workspace->prepare(resident);

  result.results.resize(graphs.size());
  device::VirtualDevice device(config.device);

  obs::TraceSpan span(obs::TraceCat::kSolve, "SolveBatch", "graphs", grid);
  result.launch = device.launch(
      grid, /*cooperative=*/false,
      [&](device::BlockContext& ctx) {
        const int b = ctx.block_id();
        // Scratch is keyed on the resident slot, not the block: a 10k-graph
        // batch reuses ~resident workspaces instead of allocating 10k.
        vc::ReduceWorkspace* ws =
            workspace ? &workspace->block(ctx.slot_id()) : nullptr;
        vc::SolveResult r = vc::solve_sequential(
            *graphs[static_cast<std::size_t>(b)], sc, control, ws);
        ctx.count_nodes(r.tree_nodes);
        result.results[static_cast<std::size_t>(b)] = std::move(r);
      },
      // The Sequential engines charge no activity, and kPerNode books no
      // residual either: a batch reports no block activity, so a service
      // worker charges its wall time instead.
      resident, device::Profile::kPerNode);

  result.wall_seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  return result;
}

}  // namespace gvc::parallel
