#include "parallel/stack_only.hpp"

#include <utility>

#include "parallel/node_visit.hpp"
#include "parallel/shared_state.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/branching.hpp"
#include "vc/greedy.hpp"
#include "vc/reductions.hpp"
#include "vc/undo_trail.hpp"
#include "worklist/local_stack.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;

}  // namespace

ParallelResult solve_stack_only(const CsrGraph& g,
                                const ParallelConfig& config,
                                vc::SolveControl* control,
                                SolveWorkspace* workspace) {
  util::WallTimer timer;
  ParallelResult result;

  const bool mvc = config.problem == vc::Problem::kMvc;
  GVC_CHECK_MSG(mvc || config.k > 0, "PVC requires k > 0");
  GVC_CHECK(config.start_depth >= 0 && config.start_depth < 24);

  // Greedy approximation on the CPU (§II-B): seeds `best` and bounds the
  // local stack depth (§IV-E).
  vc::GreedyResult greedy = vc::greedy_mvc(g);
  result.greedy_upper_bound = greedy.size;
  const int depth_bound = (mvc ? greedy.size : config.k) + 2;

  result.plan = device::plan_launch(config.device, g.num_vertices(),
                                    depth_bound, config.block_size_override);

  SharedSearch shared(config.problem, config.k, greedy.size,
                      std::move(greedy.cover), control);

  // One block per depth-D branch pattern. grid_override is not meaningful
  // here: the grid is structurally 2^start_depth.
  const int grid = 1 << config.start_depth;
  const Vertex n = g.num_vertices();
  if (workspace) workspace->prepare(grid);

  auto body = [&](device::BlockContext& ctx) {
    if (shared.aborted()) return;
    if (!mvc && shared.pvc_found()) return;

    // Phase 1 — descend from the root to this block's sub-tree, replaying
    // the branch decisions encoded in the block id (redundant across blocks
    // with a shared prefix; that redundancy is the point of the baseline).
    vc::DegreeArray da(g);
    vc::ReduceWorkspace local_ws;  // per-block reduce scratch (cold path)
    vc::ReduceWorkspace& ws =
        workspace ? workspace->block(ctx.block_id()) : local_ws;
    adopt_node(config, da, ws);        // root pickup
    NodeBatch nodes(shared);           // batched node accounting (limits)
    device::NodeCounter visited(ctx);  // batched Fig. 5 node counting
    Vertex vmax = -1;
    for (int level = 0; level < config.start_depth; ++level) {
      NodeOutcome out =
          process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
      if (out != NodeOutcome::kBranch) return;  // sub-tree is empty
      if ((ctx.block_id() >> level) & 1) {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveNeighbors);
        da.remove_neighbors_into_solution(g, vmax);
      } else {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveMaxVertex);
        da.remove_into_solution(g, vmax);
      }
    }

    // Phase 2 — depth-first traversal of the sub-tree. Nothing in this
    // sub-tree ever leaves the block, so the apply/undo engine needs no
    // snapshot path at all: a branch is a watermark + an in-place mutation,
    // a backtrack is a trail rollback. kCopy keeps the paper's
    // pre-allocated local stack of self-contained nodes.
    if (config.branch_state == vc::BranchStateMode::kUndoTrail) {
      vc::UndoTrail& trail = ws.undo_trail;
      std::vector<vc::BranchFrame>& frames = ws.frames;
      trail.reset();
      frames.clear();
      da.attach_trail(&trail);
      bool have_node = true;
      while (have_node) {
        if (!mvc && shared.pvc_found()) break;
        NodeOutcome out =
            process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
        if (out == NodeOutcome::kAbort) break;
        if (out == NodeOutcome::kBranch) {
          {
            ActivityScope scope(ctx.node_profile(), Activity::kStackPush);
            frames.push_back({trail.watermark(da), vmax, true});
          }
          ActivityScope scope(ctx.node_profile(), Activity::kRemoveMaxVertex);
          da.remove_into_solution(g, vmax);
          continue;
        }
        have_node = vc::retreat_to_next_branch(trail, frames, g, da,
                                               ctx.node_profile());
      }
      da.attach_trail(nullptr);
      return;
    }

    worklist::LocalStack stack(n, depth_bound);
    bool have_node = true;
    vc::DegreeArray child;
    for (;;) {
      if (!have_node) {
        {
          ActivityScope scope(ctx.node_profile(), Activity::kStackPop);
          if (!stack.try_pop(da)) break;  // sub-tree exhausted
        }
        adopt_node(config, da, ws);  // fresh standalone node
      }
      if (!mvc && shared.pvc_found()) return;

      NodeOutcome out =
          process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
      if (out == NodeOutcome::kAbort) return;
      if (out != NodeOutcome::kBranch) {
        have_node = false;
        continue;
      }
      {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveNeighbors);
        child = da;
        child.remove_neighbors_into_solution(g, vmax);
      }
      {
        ActivityScope scope(ctx.node_profile(), Activity::kStackPush);
        stack.push(child);
      }
      {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveMaxVertex);
        da.remove_into_solution(g, vmax);
      }
      have_node = true;
    }
  };

  device::VirtualDevice dev(config.device);
  result.launch = dev.launch(grid, /*cooperative=*/false, body,
                             result.plan.grid_size, launch_profile(control));

  static_cast<vc::SolveResult&>(result) = shared.harvest();
  result.greedy_upper_bound = greedy.size;
  result.seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  return result;
}

}  // namespace gvc::parallel
