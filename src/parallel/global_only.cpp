#include "parallel/global_only.hpp"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/node_visit.hpp"
#include "parallel/shared_state.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/branching.hpp"
#include "vc/greedy.hpp"
#include "vc/reductions.hpp"
#include "worklist/global_worklist.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;
using worklist::GlobalWorklist;

}  // namespace

ParallelResult solve_global_only(const CsrGraph& g,
                                 const ParallelConfig& config,
                                 vc::SolveControl* control,
                                 SolveWorkspace* workspace) {
  util::WallTimer timer;
  ParallelResult result;

  const bool mvc = config.problem == vc::Problem::kMvc;
  GVC_CHECK_MSG(mvc || config.k > 0, "PVC requires k > 0");

  vc::GreedyResult greedy = vc::greedy_mvc(g);
  result.greedy_upper_bound = greedy.size;
  const int depth_bound = (mvc ? greedy.size : config.k) + 2;

  result.plan = device::plan_launch(config.device, g.num_vertices(),
                                    depth_bound, config.block_size_override);
  const int grid =
      config.grid_override > 0 ? config.grid_override : result.plan.grid_size;
  GVC_CHECK(grid > 0);

  SharedSearch shared(config.problem, config.k, greedy.size,
                      std::move(greedy.cover), control);

  // Note: config.branch_state is ignored here. The strawman hands BOTH
  // children to the worklist at every branch — there is no local
  // depth-first descent, so there is nothing an undo trail could roll
  // back; every child must be a self-contained snapshot regardless.
  //
  // Threshold == capacity: the donation gate never rejects below fullness,
  // so try_donate degenerates to "add unless full" — the per-node policy of
  // the strawman. rejected_full then counts exactly the explosion events.
  GlobalWorklist worklist(config.worklist_capacity, config.worklist_capacity,
                          grid,
                          workspace ? &workspace->worklist_slots() : nullptr);
  worklist.add(vc::DegreeArray(g));

  std::atomic<std::uint64_t> spills{0};
  if (workspace) workspace->prepare(grid);

  auto body = [&](device::BlockContext& ctx) {
    // Host-side escape hatch for a full queue; see the header comment. The
    // pure design has no per-block storage at all.
    std::vector<vc::DegreeArray> spill;
    vc::DegreeArray da;
    vc::DegreeArray child;
    vc::ReduceWorkspace local_ws;  // per-block reduce scratch (cold path)
    vc::ReduceWorkspace& ws =
        workspace ? workspace->block(ctx.block_id()) : local_ws;
    NodeBatch nodes(shared);           // batched node accounting (limits)
    device::NodeCounter visited(ctx);  // batched Fig. 5 node counting
    bool have_node = false;

    for (;;) {
      if (!mvc && shared.pvc_found()) return;
      if (shared.aborted()) {
        worklist.signal_stop();
        return;
      }

      if (!have_node) {
        if (!spill.empty()) {
          ActivityScope scope(ctx.node_profile(), Activity::kStackPop);
          da = std::move(spill.back());
          spill.pop_back();
        } else {
          std::uint64_t t0 = util::thread_cpu_ns();
          GlobalWorklist::RemoveOutcome out = worklist.remove(da);
          std::uint64_t elapsed = util::thread_cpu_ns() - t0;
          if (out == GlobalWorklist::RemoveOutcome::kDone) {
            ctx.activities().add(Activity::kTerminate, elapsed);
            return;
          }
          ctx.activities().add(Activity::kWorklistRemove, elapsed);
        }
        adopt_node(config, da, ws);  // fresh standalone node (spill or global)
      }
      have_node = false;

      Vertex vmax = -1;
      NodeOutcome out =
          process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
      if (out == NodeOutcome::kAbort) {
        worklist.signal_stop();
        return;
      }
      if (out == NodeOutcome::kFound && !mvc) {
        worklist.signal_stop();
        return;
      }
      if (out != NodeOutcome::kBranch) continue;

      // Branch: the strawman hands BOTH children to the worklist rather
      // than keeping one. The vmax child goes second so that under spill
      // the locally retained order still favors the deeper (neighbors)
      // branch, mirroring Fig. 4's traversal order.
      {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveNeighbors);
        child = da;
        child.remove_neighbors_into_solution(g, vmax);
      }
      {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveMaxVertex);
        da.remove_into_solution(g, vmax);
      }
      bool donated_child;
      {
        ActivityScope scope(ctx.node_profile(), Activity::kWorklistAdd);
        donated_child = worklist.try_donate(child);
      }
      if (!donated_child) {
        spills.fetch_add(1, std::memory_order_relaxed);
        obs::trace_instant(obs::TraceCat::kWork, "spill");
        ActivityScope scope(ctx.node_profile(), Activity::kStackPush);
        spill.push_back(child);
      }
      bool donated_self;
      {
        ActivityScope scope(ctx.node_profile(), Activity::kWorklistAdd);
        donated_self = worklist.try_donate(da);
      }
      if (!donated_self) {
        // Keep it in hand: processing it directly is cheaper than a spill
        // round-trip and keeps the loop structure of Fig. 4.
        spills.fetch_add(1, std::memory_order_relaxed);
        obs::trace_instant(obs::TraceCat::kWork, "spill");
        have_node = true;
      }
    }
  };

  device::VirtualDevice dev(config.device);
  result.launch = dev.launch(grid, /*cooperative=*/true, body, /*resident=*/0,
                             launch_profile(control));

  static_cast<vc::SolveResult&>(result) = shared.harvest();
  result.greedy_upper_bound = greedy.size;
  result.seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  result.worklist = worklist.stats();
  result.overflow_spills = spills.load(std::memory_order_relaxed);
  return result;
}

}  // namespace gvc::parallel
