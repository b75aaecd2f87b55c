#pragma once

// Execution substrate: runs a grid of "thread blocks" on resident host
// threads (see block_pool.hpp) against the device model, reproducing the
// two scheduling regimes the paper's kernels rely on:
//
//  * cooperative launch — every block in the grid is resident and runs
//    concurrently for the whole kernel, each on its own pool thread (the
//    persistent-grid Hybrid kernel, whose worklist termination protocol
//    requires all blocks to participate); and
//  * pooled launch — more blocks than resident slots; `resident` pool
//    threads drain the grid in id order, exactly how a GPU scheduler
//    dispatches blocks to free slots (the StackOnly kernel with one block
//    per sub-tree).
//
// The pool's threads park between launches, so a launch wakes threads
// instead of creating them — the host analogue of a GPU launching onto
// SMs that already exist.
//
// Each block gets a BlockContext carrying its id, its SM assignment, a
// visited-node counter (the unit of Fig. 5) and an ActivityAccumulator (the
// unit of Fig. 6). LaunchStats aggregates them per SM. A launch's Profile
// decides whether the per-node Fig. 6 scopes read the clock at all.

#include <cstdint>
#include <functional>
#include <vector>

#include "device/device_spec.hpp"
#include "util/timer.hpp"

namespace gvc::device {

/// How a launch charges its blocks' CPU time to Fig. 6 activities.
enum class Profile : std::uint8_t {
  /// The full breakdown: node_profile() is the block's accumulator, so each
  /// per-node util::ActivityScope reads the thread CPU clock twice. The
  /// launch books nothing itself; fractions are over instrumented time.
  kPerNode,
  /// The solve path: node_profile() is null and per-node scopes read no
  /// clock. Only the per-adoption timers (worklist removal, termination)
  /// run, and the launch books the rest of each block's cpu_ns as
  /// util::Activity::kUntimed, so every block's activities sum to cpu_ns.
  kPerAdoption,
};

/// Instrumentation record of one executed block.
struct BlockStats {
  int block_id = -1;
  int sm_id = -1;
  std::uint64_t nodes_visited = 0;
  /// CPU nanoseconds the block's body consumed (thread CPU clock): the
  /// block's share of its SM's cycles, independent of host scheduling.
  std::uint64_t cpu_ns = 0;
  util::ActivityAccumulator activities;
};

/// Handed to the block body; the block's window onto its instrumentation.
class BlockContext {
 public:
  /// A negative `slot_id` means the block's own id.
  BlockContext(int block_id, int sm_id, int slot_id, Profile profile)
      : slot_id_(slot_id < 0 ? block_id : slot_id),
        profile_(profile),
        stats_() {
    stats_.block_id = block_id;
    stats_.sm_id = sm_id;
  }

  int block_id() const { return stats_.block_id; }
  int sm_id() const { return stats_.sm_id; }

  /// The resident slot executing this block: equal to block_id() under a
  /// cooperative launch (every block resident), the slot index in [0,
  /// resident) under a pooled launch. Bodies that pool per-*slot* scratch —
  /// the batch solver runs 10k+ blocks through ≤32 slots — key it on this,
  /// not on block_id(), so the pool stays resident-sized.
  int slot_id() const { return slot_id_; }

  /// Record one visited search-tree node.
  void count_node() { ++stats_.nodes_visited; }

  /// Bulk form for batched accounting (see NodeCounter).
  void count_nodes(std::uint64_t n) { stats_.nodes_visited += n; }

  std::uint64_t nodes_visited() const { return stats_.nodes_visited; }

  /// Per-activity cycle accounting for the cheap timers that fire once per
  /// adoption (worklist removal, termination), charged under any profile.
  util::ActivityAccumulator& activities() { return stats_.activities; }

  /// The accumulator per-node scopes charge — null unless the launch runs
  /// Profile::kPerNode, and util::ActivityScope reads no clock when null.
  util::ActivityAccumulator* node_profile() {
    return profile_ == Profile::kPerNode ? &stats_.activities : nullptr;
  }

  /// Records the block's CPU time; under Profile::kPerAdoption the part no
  /// timer charged is booked as util::Activity::kUntimed.
  void finish(std::uint64_t cpu_ns) {
    stats_.cpu_ns = cpu_ns;
    if (profile_ == Profile::kPerNode) return;
    const std::uint64_t timed = stats_.activities.total_ns();
    if (cpu_ns > timed)
      stats_.activities.add(util::Activity::kUntimed, cpu_ns - timed);
  }

  BlockStats& mutable_stats() { return stats_; }

 private:
  int slot_id_;
  Profile profile_;
  BlockStats stats_;
};

/// Batches BlockContext::count_node() the same way SharedSearch::NodeBatch
/// batches the shared limit counter: the solver hot loop ticks a local
/// accumulator and the total lands in BlockStats in one count_nodes() call
/// when the counter goes out of scope at block exit. On a GPU this is the
/// register-resident per-block counter flushed to the instrumentation
/// buffer once, instead of a global-memory increment per tree node.
/// BlockStats::nodes_visited is therefore exact only after the block body
/// has returned — which is when LaunchStats collects it.
class NodeCounter {
 public:
  explicit NodeCounter(BlockContext& ctx) : ctx_(&ctx) {}
  NodeCounter(const NodeCounter&) = delete;
  NodeCounter& operator=(const NodeCounter&) = delete;
  ~NodeCounter() { flush(); }

  /// Record one visited search-tree node (local increment only).
  void tick() { ++pending_; }

  /// Pushes the locally counted nodes into the block's stats.
  void flush() {
    if (pending_ > 0) {
      ctx_->count_nodes(pending_);
      pending_ = 0;
    }
  }

 private:
  BlockContext* ctx_;
  std::uint64_t pending_ = 0;
};

/// Aggregated results of one grid launch.
struct LaunchStats {
  int num_sms = 0;
  double wall_seconds = 0.0;
  /// Launch cost: wall_seconds minus the longest resident thread's busy
  /// time (one block under a cooperative launch, a slot's whole drain loop
  /// under a pooled one), clamped at 0 — the waking, handoff and joining
  /// that a GPU launch does in microseconds.
  double overhead_seconds = 0.0;
  std::vector<BlockStats> blocks;

  std::uint64_t total_nodes() const;

  /// Tree nodes visited per SM (length num_sms).
  std::vector<double> nodes_per_sm() const;

  /// Fig. 5's metric: per-SM node counts normalized to the across-SM mean.
  /// SMs that received no blocks contribute 0.
  std::vector<double> load_per_sm_normalized() const;

  /// Max over SMs of the summed CPU time of the blocks assigned to it —
  /// the simulated parallel execution time of the launch. This is the
  /// primary "GPU seconds" metric on this substrate: on a host with fewer
  /// cores than virtual SMs, wall time measures total work while this
  /// recovers the parallel shape (docs/observability.md §6).
  double makespan_seconds() const;

  /// Sum of all blocks' activity accumulators.
  util::ActivityAccumulator merged_activities() const;

  /// Fig. 6's metric: for each activity, the mean over blocks of that
  /// block's fraction of its accounted time spent in the activity. Under
  /// Profile::kPerAdoption a block's accounted time is its cpu_ns (the
  /// kUntimed residual fills the gap); under kPerNode it is the instrumented
  /// time. Blocks with no accounted time are skipped.
  std::vector<double> mean_activity_fractions() const;
};

class VirtualDevice {
 public:
  explicit VirtualDevice(DeviceSpec spec);

  const DeviceSpec& spec() const { return spec_; }

  /// Runs `body` for block ids [0, grid_size).
  ///
  /// cooperative=true: every block on its own pool thread, all concurrent
  /// (required when blocks synchronize through shared state, e.g. the
  /// global worklist termination protocol). cooperative=false: blocks are
  /// drained by `resident` pool threads (slots) in id order; `resident`
  /// defaults to the device's max resident blocks and is clamped to
  /// grid_size. Either way the launch never waits for a busy pool thread,
  /// so concurrent and nested launches cannot deadlock. `profile` is
  /// handed to every block's BlockContext (see Profile); the default is
  /// the unprofiled solve path, like vc::SolveControl's.
  LaunchStats launch(int grid_size, bool cooperative,
                     const std::function<void(BlockContext&)>& body,
                     int resident = 0,
                     Profile profile = Profile::kPerAdoption) const;

 private:
  DeviceSpec spec_;
};

}  // namespace gvc::device
