#pragma once

// Configuration and result types shared by the two GPU-style solvers.

#include <cstdint>
#include <vector>

#include "device/device_spec.hpp"
#include "device/occupancy.hpp"
#include "device/virtual_device.hpp"
#include "vc/branching.hpp"
#include "vc/reductions.hpp"
#include "vc/sequential.hpp"
#include "vc/solve_types.hpp"
#include "worklist/global_worklist.hpp"

namespace gvc::parallel {

/// Reusable cross-job solver scratch. A solve() call allocates per-block
/// reduce workspaces (degree-array-sized vectors) and the global worklist's
/// node slots on every invocation; a caller that solves many instances back
/// to back — a SolveService worker, a harness sweep — holds one
/// SolveWorkspace and passes it to every call so those buffers are paid for
/// once and stay warm across jobs. The workspace is NOT thread-safe: one
/// workspace per calling thread. Within one solve() the blocks of the launch
/// index disjoint entries, which is safe because the pool is sized before
/// the grid starts; the worklist slots are handed out by the worklist's own
/// free list.
class SolveWorkspace {
 public:
  /// Scratch for block `block_id` of the current launch. Valid only between
  /// prepare(grid) and the next prepare().
  vc::ReduceWorkspace& block(int block_id) {
    return blocks_[static_cast<std::size_t>(block_id)];
  }

  /// Grows the per-block pool to `grid` entries. Called by each solver
  /// before its launch; buffers of previous jobs are kept (that reuse is
  /// the point).
  void prepare(int grid) {
    if (blocks_.size() < static_cast<std::size_t>(grid))
      blocks_.resize(static_cast<std::size_t>(grid));
  }

  /// Node storage for the Hybrid and GlobalOnly worklists, kept warm
  /// across solves like the per-block scratch.
  worklist::WorklistSlots& worklist_slots() { return slots_; }

  /// Releases per-block scratch beyond `max_blocks` and worklist slot
  /// buffers beyond `max_slot_bytes`. Long-lived owners (service workers)
  /// call this between jobs so one huge job — e.g. StackOnly at
  /// start_depth 16 = 65536 blocks, or a Hybrid solve that queued
  /// thousands of |V|-sized nodes of a huge graph — doesn't pin its memory
  /// for the owner's lifetime. The first `max_blocks` entries and the
  /// warmest slots stay warm for the common sizes.
  void trim(int max_blocks, std::size_t max_slot_bytes) {
    if (blocks_.size() > static_cast<std::size_t>(max_blocks)) {
      blocks_.resize(static_cast<std::size_t>(max_blocks));
      blocks_.shrink_to_fit();
    }
    slots_.trim(max_slot_bytes);
  }

  std::size_t block_count() const { return blocks_.size(); }

 private:
  std::vector<vc::ReduceWorkspace> blocks_;
  worklist::WorklistSlots slots_;
};

struct ParallelConfig {
  vc::Problem problem = vc::Problem::kMvc;
  int k = 0;  ///< PVC bound

  /// Device model the kernel is planned against (§IV-E). For host runs use
  /// a scaled device (see DeviceSpec presets) so the grid fits host threads.
  device::DeviceSpec device = device::DeviceSpec::host_scaled();

  /// Reduction-rule semantics. kIncremental (the default) is the
  /// candidate-driven fast path shared by every solver; the paper's GPU
  /// kernels use the sweep semantics (§IV-D), which the reproduction
  /// harness requests explicitly (harness::Runner pins kParallelSweep for
  /// the parallel methods and kSerial for the Sequential baseline).
  vc::ReduceSemantics semantics = vc::ReduceSemantics::kIncremental;
  vc::RuleSet rules = {};

  // Node/time budgets no longer live here: pass a vc::SolveControl (which
  // bundles Limits with the cancel latch and deadline) to solve(). Keeping
  // execution policy out of the config also keeps it out of the cache key —
  // a complete record is limit-independent, so requests differing only in
  // budgets now share one cache entry.

  /// Branching-vertex selection; kMaxDegree is the paper's rule (§II-B).
  vc::BranchStrategy branch = vc::BranchStrategy::kMaxDegree;
  std::uint64_t branch_seed = 0;  ///< used by BranchStrategy::kRandom

  /// How the depth-first descent carries state across a branch (see
  /// vc::BranchStateMode). kUndoTrail (the default) backtracks by rolling
  /// an undo trail instead of restoring an O(|V|) copy and is bit-identical
  /// to kCopy; the paper-faithful harness pins kCopy (§IV-B's
  /// self-contained nodes). GlobalOnly has no local descent and ignores
  /// this. Execution policy only — results are identical by contract — so
  /// like Limits it stays OUT of the result-cache key.
  vc::BranchStateMode branch_state = vc::BranchStateMode::kUndoTrail;

  /// Shape-specialized reduce kernels (see vc/reductions.hpp): each block
  /// classifies the node it adopts and reduces through kernels compiled for
  /// exactly that shape. Execution policy — bit-identical trees to kGeneric
  /// by contract — so like branch_state it stays OUT of the result-cache
  /// key.
  vc::KernelDispatch kernel_dispatch = vc::KernelDispatch::kAuto;

  /// max_degree_vertex() backend (see vc/degree_buckets.hpp). Both backends
  /// return the same smallest-id argmax, so this too is execution policy
  /// and stays out of the cache key.
  vc::MaxDegreeBackend max_degree_backend = vc::MaxDegreeBackend::kCachedHint;

  /// Force a block size in the occupancy plan (0 = let §IV-E choose).
  int block_size_override = 0;

  /// Force the grid size (0 = the plan's resident-grid size). For Hybrid
  /// this is the number of persistent blocks in the termination protocol.
  int grid_override = 0;

  // --- StackOnly ---
  /// Sub-trees start at this tree depth: the grid is 2^start_depth blocks
  /// (the paper evaluates depths 8/12/16 on the full-size card; the scaled
  /// ablation sweeps 4/6/8/10).
  int start_depth = 6;

  // --- WorkStealing ---
  /// Advertisement rate policy for the kUndoTrail engine: in addition to
  /// the lazy rule (snapshot the neighbors child onto the own deque only
  /// when the deque is empty), advertise every K-th branch so thieves see
  /// more than one stealable node per block on steal-heavy instances.
  /// 0 = ∞ (lazy only) — node-for-node identical to any K large enough
  /// never to fire, and the default. The optimum is unchanged, but finite
  /// K reorders the traversal (different node counts and worklist stats),
  /// so unlike branch_state it IS part of the result-cache key.
  int advertise_interval = 0;

  // --- Hybrid ---
  /// Global worklist capacity in entries (the paper uses 128K-512K on a
  /// 32 GiB card; scaled defaults keep the same threshold/capacity ratios).
  std::size_t worklist_capacity = 4096;

  /// Donation threshold as a fraction of capacity (paper sweeps 0.25-1.0).
  double worklist_threshold_frac = 0.5;
};

/// The Sequential-engine view of a ParallelConfig: every field the
/// single-block solver understands, mapped one to one. This is the single
/// place that mapping lives — dispatch_solve's kSequential arm and the
/// batch solver (one Sequential engine per block) both use it, so a field
/// added to both configs cannot be silently dropped in one path. (Before
/// this helper existed, the solver.cpp copy dropped kernel_dispatch and
/// max_degree_backend.)
inline vc::SequentialConfig sequential_config_of(const ParallelConfig& config) {
  vc::SequentialConfig sc;
  sc.problem = config.problem;
  sc.k = config.k;
  sc.semantics = config.semantics;
  sc.rules = config.rules;
  sc.branch = config.branch;
  sc.branch_seed = config.branch_seed;
  sc.branch_state = config.branch_state;
  sc.kernel_dispatch = config.kernel_dispatch;
  sc.max_degree_backend = config.max_degree_backend;
  return sc;
}

struct ParallelResult : vc::SolveResult {
  device::LaunchPlan plan;
  device::LaunchStats launch;
  worklist::WorklistStats worklist;  ///< meaningful for Hybrid only

  /// Simulated parallel execution time: the per-SM CPU-work makespan of the
  /// launch (LaunchStats::makespan_seconds). For Sequential this equals
  /// `seconds`. The benches report this as the "GPU time" — on a host with
  /// fewer cores than virtual SMs, `seconds` measures total work instead.
  double sim_seconds = 0.0;

  /// GlobalOnly only: number of tree nodes a block had to keep locally
  /// because the worklist was full — the frontier-explosion events of
  /// §IV-A's strawman design. Always 0 for the other methods.
  std::uint64_t overflow_spills = 0;
};

}  // namespace gvc::parallel
