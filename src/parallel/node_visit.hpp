#pragma once

// One branch-and-reduce node visit (Fig. 1 lines 3-19, Fig. 4 lines 7-19),
// shared by the block loops of StackOnly, Hybrid and WorkStealing — and by
// BOTH branch-state engines of each. Keeping the visit in one place is what
// guarantees a future change to the accounting, the prune bound, or the
// cover harvest cannot split the kCopy/kUndoTrail bit-identity contract:
// the engines may differ ONLY in how they carry state between visits.

#include <utility>
#include <vector>

#include "device/virtual_device.hpp"
#include "obs/trace.hpp"
#include "parallel/config.hpp"
#include "parallel/shared_state.hpp"
#include "util/timer.hpp"
#include "vc/branching.hpp"
#include "vc/reductions.hpp"

namespace gvc::parallel {

enum class NodeOutcome { kAbort, kPruned, kFound, kBranch };

/// The launch profile a solve asked for, read once at launch: the full
/// per-node Fig. 6 breakdown when the control opted in, otherwise only the
/// per-adoption timers plus the untimed residual (see device::Profile).
inline device::Profile launch_profile(const vc::SolveControl* control) {
  return control != nullptr && control->activity_profile_enabled()
             ? device::Profile::kPerNode
             : device::Profile::kPerAdoption;
}

/// A block picked up a root or donated node (worklist removal, steal, stack
/// pop): invalidate the workspace's cached KernelTag so the next reduce()
/// re-classifies for the adopted lineage, and rebuild/re-attach the degree
/// buckets when that max-degree backend is selected. Every pickup site of
/// the four block solvers calls this — it is the "connection time" of the
/// dispatch design (see vc/kernel_dispatch.hpp).
inline void adopt_node(const ParallelConfig& config, vc::DegreeArray& da,
                       vc::ReduceWorkspace& workspace) {
  obs::trace_instant(obs::TraceCat::kWork, "adopt", "edges", da.num_edges());
  vc::adopt_node(da, workspace, config.max_degree_backend);
}

/// One visit: account the node against the shared limits, reduce, stopping
/// condition (§II-B), cover check, branch selection. On kBranch, vmax_out
/// holds the branching vertex. On kFound the cover has already been offered
/// to (MVC) or latched in (PVC) `shared`; the caller only decides whether
/// its loop continues.
inline NodeOutcome process_node(const graph::CsrGraph& g,
                                const ParallelConfig& config,
                                SharedSearch& shared, NodeBatch& nodes,
                                device::NodeCounter& visited,
                                device::BlockContext& ctx, vc::DegreeArray& da,
                                vc::ReduceWorkspace& workspace,
                                graph::Vertex& vmax_out) {
  if (!nodes.register_node()) return NodeOutcome::kAbort;
  visited.tick();

  const bool mvc = config.problem == vc::Problem::kMvc;
  // MVC reads the shared best ONCE per node: the edge bound below is sound
  // only for the budget the high-degree rule reduced against (every degree
  // <= best - s - 1). Re-reading best after another block improved it
  // would test the smaller budget's square against degrees bounded only by
  // the larger budget, and prune subtrees that hold a smaller cover.
  const std::int64_t best = mvc ? shared.best() : 0;
  const vc::BudgetPolicy policy = mvc ? vc::BudgetPolicy::mvc(best)
                                      : vc::BudgetPolicy::pvc(config.k);
  vc::reduce(g, da, policy, config.semantics, config.rules, ctx.node_profile(),
             &workspace, config.kernel_dispatch);

  const std::int64_t s = da.solution_size();
  const std::int64_t e = da.num_edges();
  if (mvc) {
    if (s >= best || e > (best - s - 1) * (best - s - 1)) {
      obs::trace_instant_sampled(obs::TraceCat::kBranch, "prune", "size", s);
      return NodeOutcome::kPruned;
    }
  } else {
    const std::int64_t k = config.k;
    if (s > k || e > (k - s) * (k - s)) {
      obs::trace_instant_sampled(obs::TraceCat::kBranch, "prune", "size", s);
      return NodeOutcome::kPruned;
    }
  }

  graph::Vertex vmax;
  {
    util::ActivityScope scope(ctx.node_profile(),
                              util::Activity::kFindMaxDegree);
    vmax = vc::select_branch_vertex(da, config.branch, config.branch_seed);
  }
  if (vmax < 0) {  // edgeless: cover found
    obs::trace_instant(obs::TraceCat::kBranch, "cover", "size", s);
    if (mvc)
      shared.offer_cover(da);
    else
      shared.set_pvc_found(da);
    return NodeOutcome::kFound;
  }
  obs::trace_instant_sampled(obs::TraceCat::kBranch, "branch", "v", vmax);
  vmax_out = vmax;
  return NodeOutcome::kBranch;
}

/// Runs one migrated (or reclaimed) donation snapshot to exhaustion against
/// its owning solve's SharedSearch: a self-contained copy-mode DFS built
/// from the same adopt_node()/process_node() visit the block loops use, so
/// a node that crossed a device boundary is explored under exactly the
/// owner's semantics — same prune bound (the owner's live `best`), same
/// budgets, same cover harvest. The caller provides its OWN reduce scratch
/// (an importing service worker passes its workspace; the owner's reclaim
/// path passes one of its launch's). Never re-exports: a migrated subtree
/// is drained where it landed, which is what makes the broker's
/// executed-or-abandoned accounting exact. Stops early — like any block —
/// when the shared search aborts or a PVC cover is latched.
inline void drain_subtree(const graph::CsrGraph& g,
                          const ParallelConfig& config, SharedSearch& shared,
                          vc::DegreeArray root, vc::ReduceWorkspace& ws) {
  // Instrumentation sinks: migrated nodes run outside any launch, so block
  // stats go nowhere (the service charges the wall time to its own phase
  // table) and no per-node scope reads the clock; shared-node accounting
  // still flows through NodeBatch.
  device::BlockContext ctx(/*block_id=*/0, /*sm_id=*/0, /*slot_id=*/-1,
                           device::Profile::kPerAdoption);
  NodeBatch nodes(shared);
  device::NodeCounter visited(ctx);
  const bool mvc = config.problem == vc::Problem::kMvc;

  std::vector<vc::DegreeArray> stack;
  stack.push_back(std::move(root));
  while (!stack.empty()) {
    if (!mvc && shared.pvc_found()) return;
    if (shared.aborted()) return;

    vc::DegreeArray da = std::move(stack.back());
    stack.pop_back();
    adopt_node(config, da, ws);

    graph::Vertex vmax = -1;
    NodeOutcome out =
        process_node(g, config, shared, nodes, visited, ctx, da, ws, vmax);
    if (out == NodeOutcome::kAbort) return;
    if (out == NodeOutcome::kFound && !mvc) return;
    if (out != NodeOutcome::kBranch) continue;

    vc::DegreeArray child = da;
    child.remove_neighbors_into_solution(g, vmax);
    da.remove_into_solution(g, vmax);
    stack.push_back(std::move(child));
    stack.push_back(std::move(da));
  }
}

}  // namespace gvc::parallel
