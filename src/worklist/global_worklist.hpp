#pragma once

// The global worklist of §IV-A/§IV-C: a broker queue of self-contained tree
// nodes (degree arrays), plus
//   * the donation policy — a branching block adds a child only while the
//     queue holds fewer than `threshold` entries, otherwise it keeps the
//     child on its local stack; and
//   * the termination protocol — a failed removal distinguishes "the queue
//     is transiently empty but blocks are still working" (wait and retry)
//     from "every block in the grid is waiting on an empty queue" (done).
// The PVC found-flag (§IV-A) is folded in as signal_stop().
//
// Node storage is a pool of WorklistSlots: the broker queue carries u32 slot
// indices, a donation is copy-assigned into a free slot and a removal is
// copy-assigned out of it into the block's own array. Copy-assignment reuses
// the destination's buffers, so once the slots and the blocks' arrays are
// warm a donation/removal pair allocates nothing — and no block frees memory
// another block allocated. A caller that solves repeatedly keeps the pool
// (parallel::SolveWorkspace does) so the slots stay warm across solves.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/timer.hpp"
#include "vc/degree_array.hpp"
#include "worklist/broker_queue.hpp"

namespace gvc::worklist {

/// Aggregate counters for the worklist benches. One schema covers every
/// load-balancing structure: the global worklist fills the donation fields,
/// the WorkStealing deque ensemble fills the steal fields (zero elsewhere).
struct WorklistStats {
  std::uint64_t adds = 0;
  std::uint64_t removes = 0;
  std::uint64_t donations_rejected_threshold = 0;
  std::uint64_t donations_rejected_full = 0;
  std::uint64_t max_size_seen = 0;
  std::uint64_t steals = 0;          ///< successful cross-block steals
  std::uint64_t steal_attempts = 0;  ///< locked probes of non-empty victims
};

/// Storage of a GlobalWorklist's nodes: one DegreeArray per queue cell and
/// per block, holding its buffers between uses. Not thread-safe to resize;
/// a worklist only indexes slots its free list handed out.
class WorklistSlots {
 public:
  /// Grows to at least `count` slots; existing slots keep their buffers.
  void reserve(std::size_t count) {
    if (slots_.size() < count) slots_.resize(count);
  }

  std::size_t size() const { return slots_.size(); }

  vc::DegreeArray& operator[](std::uint32_t i) { return slots_[i]; }

  /// Records that slot `i` was handed out. Slots past the highest one
  /// recorded hold no buffers, so heap_bytes() and trim() stop there: a
  /// service worker trims after every job, and most jobs touch a few slots
  /// of thousands, or none.
  void note_used(std::uint32_t i) {
    if (i >= used_) used_ = std::size_t{i} + 1;
  }

  /// Heap bytes held by the slots' buffers.
  std::size_t heap_bytes() const;

  /// Releases the buffers of every slot past the first `max_bytes` of heap
  /// in index order. The worklist reuses the lowest free slot first, so the
  /// warm prefix is the part the next solve touches.
  void trim(std::size_t max_bytes);

 private:
  std::vector<vc::DegreeArray> slots_;
  std::size_t used_ = 0;  ///< slots at or past this index hold no buffers
};

class GlobalWorklist {
 public:
  enum class RemoveOutcome {
    kGot,   ///< an entry was removed into `out`
    kDone,  ///< traversal finished (all blocks waiting on empty queue) or
            ///< a stop was signalled (PVC cover found)
  };

  /// num_blocks is the grid size: the number of blocks that participate in
  /// the termination protocol. Every one of them must eventually call
  /// remove() (and keep calling it until kDone). `slots` is the node storage
  /// to use (grown to the queue's capacity plus num_blocks); null makes a
  /// private pool.
  GlobalWorklist(std::size_t capacity, std::size_t threshold, int num_blocks,
                 WorklistSlots* slots = nullptr);

  std::size_t capacity() const { return queue_.capacity(); }
  std::size_t threshold() const { return threshold_; }
  std::size_t size_approx() const { return queue_.size_approx(); }

  /// Unconditional add (used to seed the root). Aborts if the queue is full
  /// — seeding happens before the kernel starts, so fullness is a bug.
  void add(const vc::DegreeArray& node);

  /// The donation path of Fig. 4 lines 23-26: adds a copy of `node` only if
  /// the queue is below the threshold (and not full). Returns true if the
  /// node was donated; on false the caller pushes to its local stack
  /// instead. Either way `node` is left as it was.
  bool try_donate(const vc::DegreeArray& node);

  /// The threshold gate of try_donate() without the push: returns whether a
  /// donation issued now would pass, counting a threshold rejection exactly
  /// like try_donate() does. The apply/undo solvers consult this BEFORE
  /// paying for the donation snapshot — a copying solver has the child in
  /// hand anyway, but a trail solver only materializes one to give it away.
  /// Approximate under concurrency (try_donate re-checks); exact when a
  /// single block runs, which keeps single-block donation patterns and
  /// stats bit-identical across the two branch-state modes.
  bool poll_donate_gate() {
    if (queue_.size_approx() >= threshold_) {
      rejected_threshold_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Blocking removal implementing the retry/termination loop of §IV-C.
  /// The entry is copy-assigned into `out`, reusing its buffers.
  RemoveOutcome remove(vc::DegreeArray& out);

  /// PVC: signal every block (including those asleep in remove()) to stop.
  void signal_stop();
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Snapshot of the counters (call after the kernel has terminated).
  WorklistStats stats() const;

 private:
  /// Pops a free slot index; false when every slot is queued or in flight
  /// (only possible when more than num_blocks threads donate at once).
  bool acquire_slot(std::uint32_t& slot);
  void release_slot(std::uint32_t slot);

  /// Copies the queued node in `slot` into `out` and frees the slot.
  void take(std::uint32_t slot, vc::DegreeArray& out);

  BrokerQueue<std::uint32_t> queue_;
  WorklistSlots own_slots_;  // used when the caller passes no pool
  WorklistSlots& slots_;
  std::size_t threshold_;
  int num_blocks_;

  /// Free slot indices, a LIFO so the most recently used (warm) slots are
  /// reused first and a pool's touched prefix stays as small as the peak
  /// queue length. Taken once per donation and once per removal.
  std::mutex free_mutex_;
  std::vector<std::uint32_t> free_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<int> waiting_{0};

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;

  std::atomic<std::uint64_t> adds_{0};
  std::atomic<std::uint64_t> removes_{0};
  std::atomic<std::uint64_t> rejected_threshold_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> max_size_{0};
};

}  // namespace gvc::worklist
