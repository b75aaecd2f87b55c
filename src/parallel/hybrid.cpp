#include "parallel/hybrid.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "parallel/node_visit.hpp"
#include "parallel/shared_state.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/branching.hpp"
#include "vc/greedy.hpp"
#include "vc/reductions.hpp"
#include "vc/undo_trail.hpp"
#include "worklist/device_broker.hpp"
#include "worklist/global_worklist.hpp"
#include "worklist/local_stack.hpp"

namespace gvc::parallel {

namespace {

using graph::CsrGraph;
using graph::Vertex;
using util::Activity;
using util::ActivityScope;
using worklist::GlobalWorklist;

}  // namespace

ParallelResult solve_hybrid(const CsrGraph& g, const ParallelConfig& config,
                            vc::SolveControl* control,
                            SolveWorkspace* workspace, const StealEnv* env) {
  util::WallTimer timer;
  ParallelResult result;

  const bool mvc = config.problem == vc::Problem::kMvc;
  GVC_CHECK_MSG(mvc || config.k > 0, "PVC requires k > 0");

  vc::GreedyResult greedy = vc::greedy_mvc(g);
  result.greedy_upper_bound = greedy.size;
  const int depth_bound = (mvc ? greedy.size : config.k) + 2;

  result.plan = device::plan_launch(config.device, g.num_vertices(),
                                    depth_bound, config.block_size_override);

  // Persistent grid: every block participates in the termination protocol,
  // so the grid size is exactly the resident-block count.
  const int grid =
      config.grid_override > 0 ? config.grid_override : result.plan.grid_size;
  GVC_CHECK(grid > 0);

  SharedSearch shared(config.problem, config.k, greedy.size,
                      std::move(greedy.cover), control);

  const auto threshold = static_cast<std::size_t>(
      config.worklist_threshold_frac *
      static_cast<double>(config.worklist_capacity));
  GlobalWorklist worklist(config.worklist_capacity,
                          std::min(threshold, config.worklist_capacity), grid,
                          workspace ? &workspace->worklist_slots() : nullptr);

  // Seed: the worklist initially holds the root of the tree (§IV-A).
  worklist.add(vc::DegreeArray(g));

  const Vertex n = g.num_vertices();
  if (workspace) workspace->prepare(grid);

  // Cross-device migration (steal tier 2): register this solve with the
  // hosting service's broker. A migrated node re-enters through
  // drain_subtree — the same adopt/visit path a donated node takes — run
  // against THIS solve's shared search, on whichever thread imports it.
  std::optional<worklist::DeviceBroker::Group> steal_group;
  if (env != nullptr && env->broker != nullptr)
    steal_group.emplace(*env->broker, env->device_id,
                        [&](vc::DegreeArray&& node, vc::ReduceWorkspace& ws) {
                          drain_subtree(g, config, shared, std::move(node),
                                        ws);
                        });
  worklist::DeviceBroker::Group* migrate =
      steal_group.has_value() ? &*steal_group : nullptr;

  // Apply/undo variant of the block loop: the local stack of self-contained
  // nodes is replaced by the workspace's trail + frame stack. A deferred
  // neighbors child is a frame (re-applied on backtrack); only a DONATED
  // child is materialized, as a standalone snapshot, because it leaves the
  // block. The donation gate is consulted before paying for that snapshot —
  // with one block the pre-check matches try_donate()'s own gate exactly,
  // which is what keeps single-block traversals bit-identical to kCopy.
  auto body_undo_trail = [&](device::BlockContext& ctx) {
    vc::DegreeArray da;
    vc::DegreeArray snapshot;  // reusable donation buffer
    vc::ReduceWorkspace local_ws;  // per-block reduce scratch (cold path)
    vc::ReduceWorkspace& ws =
        workspace ? workspace->block(ctx.block_id()) : local_ws;
    vc::UndoTrail& trail = ws.undo_trail;
    std::vector<vc::BranchFrame>& frames = ws.frames;
    trail.reset();
    frames.clear();
    da.attach_trail(&trail);
    NodeBatch nodes(shared);           // batched node accounting (limits)
    device::NodeCounter visited(ctx);  // batched Fig. 5 node counting
    bool enter = false;  // true while da holds an unprocessed node

    for (;;) {
      if (!mvc && shared.pvc_found()) return;
      if (shared.aborted()) {
        worklist.signal_stop();
        return;
      }

      if (!enter) {
        // Backtrack to the next deferred branch; when this root's sub-tree
        // is exhausted, adopt a new root from the worklist (the incoming
        // node replaces da's value wholesale, so the trail restarts empty).
        if (!vc::retreat_to_next_branch(trail, frames, g, da,
                                        ctx.node_profile())) {
          trail.reset();
          std::uint64_t t0 = util::thread_cpu_ns();
          GlobalWorklist::RemoveOutcome out = worklist.remove(da);
          std::uint64_t elapsed = util::thread_cpu_ns() - t0;
          if (out == GlobalWorklist::RemoveOutcome::kDone) {
            ctx.activities().add(Activity::kTerminate, elapsed);
            return;
          }
          ctx.activities().add(Activity::kWorklistRemove, elapsed);
          adopt_node(config, da, ws);  // adopted a donated node
        }
      }
      enter = false;

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
      if (out != NodeOutcome::kBranch) continue;  // enter stays false: backtrack

      // Branch: donate the neighbors child if a starved remote device or
      // the worklist wants it (materialized as a snapshot — it leaves the
      // block), otherwise defer it as a frame; then continue immediately
      // with the vmax child. The broker outranks the worklist: remote
      // demand means a whole device is idle, while the worklist threshold
      // only signals local blocks MAY go hungry soon. With no broker (or
      // no demand) the pre-existing single-device path runs unchanged.
      bool donated = false;
      const bool broker_wants = migrate != nullptr && migrate->want_export();
      // The gate is polled exactly when a LOCAL donation is on the table:
      // up front in the no-broker path (bit-identical to the single-device
      // build), or after a failed export — a fallback donation must clear
      // the same gate it would have cleared without a broker, so attaching
      // one never changes local donation pressure.
      bool gate_open = !broker_wants && worklist.poll_donate_gate();
      if (broker_wants || gate_open) {
        {
          ActivityScope scope(ctx.node_profile(), Activity::kRemoveNeighbors);
          snapshot = da;
          snapshot.remove_neighbors_into_solution(g, vmax);
        }
        ActivityScope scope(ctx.node_profile(), Activity::kWorklistAdd);
        if (broker_wants) {
          donated = migrate->try_export(std::move(snapshot));
          if (donated)
            obs::trace_instant(obs::TraceCat::kWork, "migrate");
          else
            gate_open = worklist.poll_donate_gate();
        }
        if (!donated && gate_open) {
          donated = worklist.try_donate(snapshot);
          if (donated) obs::trace_instant(obs::TraceCat::kWork, "donate");
        }
      }
      {
        ActivityScope scope(ctx.node_profile(), Activity::kStackPush);
        frames.push_back({trail.watermark(da), vmax, !donated});
      }
      {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveMaxVertex);
        da.remove_into_solution(g, vmax);
      }
      enter = true;
    }
  };

  auto body_copy = [&](device::BlockContext& ctx) {
    worklist::LocalStack stack(n, depth_bound);
    vc::DegreeArray da;
    vc::DegreeArray child;
    vc::ReduceWorkspace local_ws;  // per-block reduce scratch (cold path)
    vc::ReduceWorkspace& ws =
        workspace ? workspace->block(ctx.block_id()) : local_ws;
    NodeBatch nodes(shared);           // batched node accounting (limits)
    device::NodeCounter visited(ctx);  // batched Fig. 5 node counting
    bool get_new_node = true;

    for (;;) {
      // PVC: blocks check the found-flag before picking up new work (§IV-A);
      // the abort latch (node/time budget) exits the same way.
      if (!mvc && shared.pvc_found()) return;
      if (shared.aborted()) {
        worklist.signal_stop();
        return;
      }

      if (get_new_node) {
        bool popped;
        {
          ActivityScope scope(ctx.node_profile(), Activity::kStackPop);
          popped = stack.try_pop(da);
        }
        if (popped) {
          adopt_node(config, da, ws);  // fresh standalone node
        } else {
          // CPU time, like every activity: contention/polling cost is
          // charged, sleep-waiting is free (an idle SM). Timed under every
          // launch profile — once per removal, not per node. See
          // docs/observability.md §6 for how this maps onto the paper's
          // Fig. 6 waiting share.
          std::uint64_t t0 = util::thread_cpu_ns();
          GlobalWorklist::RemoveOutcome out = worklist.remove(da);
          std::uint64_t elapsed = util::thread_cpu_ns() - t0;
          if (out == GlobalWorklist::RemoveOutcome::kDone) {
            // Waiting that ends in termination is charged to "Terminate".
            ctx.activities().add(Activity::kTerminate, elapsed);
            return;
          }
          ctx.activities().add(Activity::kWorklistRemove, elapsed);
          adopt_node(config, da, ws);  // adopted a donated node
        }
      }

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
      if (out != NodeOutcome::kBranch) {
        get_new_node = true;
        continue;
      }

      // Branch (Fig. 4 lines 20-29): build the neighbors child, export it
      // to a starved remote device first, else donate it to the worklist
      // if below threshold, else keep it on the local stack; then continue
      // immediately with the vmax child.
      {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveNeighbors);
        child = da;
        child.remove_neighbors_into_solution(g, vmax);
      }
      bool donated;
      {
        ActivityScope scope(ctx.node_profile(), Activity::kWorklistAdd);
        donated = migrate != nullptr && migrate->want_export() &&
                  migrate->try_export(std::move(child));
        if (donated) {
          obs::trace_instant(obs::TraceCat::kWork, "migrate");
        } else {
          donated = worklist.try_donate(child);
          if (donated) obs::trace_instant(obs::TraceCat::kWork, "donate");
        }
      }
      if (!donated) {
        ActivityScope scope(ctx.node_profile(), Activity::kStackPush);
        stack.push(child);
      }
      {
        ActivityScope scope(ctx.node_profile(), Activity::kRemoveMaxVertex);
        da.remove_into_solution(g, vmax);
      }
      get_new_node = false;
    }
  };

  auto body = [&](device::BlockContext& ctx) {
    if (config.branch_state == vc::BranchStateMode::kUndoTrail)
      body_undo_trail(ctx);
    else
      body_copy(ctx);
  };

  device::VirtualDevice dev(config.device);
  result.launch = dev.launch(grid, /*cooperative=*/true, body, /*resident=*/0,
                             launch_profile(control));

  // Settle migrated nodes BEFORE harvesting: un-imported exports are taken
  // back and run inline (they are unexplored subtrees — a clean MVC
  // optimum must cover them) unless the solve already stopped, and the
  // drain blocks until every remotely running import has completed against
  // `shared` — nothing references this solve's stack after this line.
  if (migrate != nullptr) {
    vc::ReduceWorkspace reclaim_ws;
    const bool abandon = shared.aborted() || (!mvc && shared.pvc_found());
    migrate->drain(reclaim_ws, abandon);
  }

  static_cast<vc::SolveResult&>(result) = shared.harvest();
  result.greedy_upper_bound = greedy.size;
  result.seconds = timer.seconds();
  result.sim_seconds = result.launch.makespan_seconds();
  result.worklist = worklist.stats();
  return result;
}

}  // namespace gvc::parallel
