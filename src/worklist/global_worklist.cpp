#include "worklist/global_worklist.hpp"

#include <chrono>

#include "util/check.hpp"

namespace gvc::worklist {

std::size_t WorklistSlots::heap_bytes() const {
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < used_; ++i) bytes += slots_[i].heap_bytes();
  return bytes;
}

void WorklistSlots::trim(std::size_t max_bytes) {
  std::size_t kept = 0;
  std::size_t end = 0;
  for (std::size_t i = 0; i < used_; ++i) {
    kept += slots_[i].heap_bytes();
    if (kept > max_bytes)
      slots_[i] = vc::DegreeArray();
    else
      end = i + 1;
  }
  used_ = end;
}

GlobalWorklist::GlobalWorklist(std::size_t capacity, std::size_t threshold,
                               int num_blocks, WorklistSlots* slots)
    : queue_(capacity),
      slots_(slots != nullptr ? *slots : own_slots_),
      threshold_(threshold),
      num_blocks_(num_blocks) {
  GVC_CHECK(num_blocks > 0);
  GVC_CHECK_MSG(threshold <= queue_.capacity(),
                "threshold exceeds worklist capacity");
  // One slot per queue cell plus one per block: besides the queued nodes,
  // each block holds at most one slot out of the queue — a donation being
  // filled or a removal being copied out. So the free list never runs dry
  // and a donation is refused as full only when the queue itself is, as
  // when the cells held the nodes.
  const std::size_t count =
      queue_.capacity() + static_cast<std::size_t>(num_blocks);
  slots_.reserve(count);
  free_.resize(count);
  for (std::size_t i = 0; i < count; ++i)
    free_[i] = static_cast<std::uint32_t>(count - 1 - i);  // slot 0 on top
}

bool GlobalWorklist::acquire_slot(std::uint32_t& slot) {
  std::lock_guard<std::mutex> lock(free_mutex_);
  if (free_.empty()) return false;
  slot = free_.back();
  free_.pop_back();
  slots_.note_used(slot);
  return true;
}

void GlobalWorklist::release_slot(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(free_mutex_);
  free_.push_back(slot);
}

void GlobalWorklist::take(std::uint32_t slot, vc::DegreeArray& out) {
  out = slots_[slot];
  release_slot(slot);
  removes_.fetch_add(1, std::memory_order_relaxed);
}

void GlobalWorklist::add(const vc::DegreeArray& node) {
  std::uint32_t slot = 0;
  GVC_CHECK_MSG(acquire_slot(slot), "worklist full while seeding");
  slots_[slot] = node;
  GVC_CHECK_MSG(queue_.try_push(std::move(slot)),
                "worklist full while seeding");
  adds_.fetch_add(1, std::memory_order_relaxed);
  wait_cv_.notify_one();
}

bool GlobalWorklist::try_donate(const vc::DegreeArray& node) {
  if (queue_.size_approx() >= threshold_) {
    rejected_threshold_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::uint32_t slot = 0;
  if (!acquire_slot(slot)) {
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[slot] = node;
  // The push can still find the cell at the head unreleased by a consumer
  // that is mid-pop — the moment the node-carrying queue reported full too.
  if (!queue_.try_push(std::uint32_t{slot})) {
    release_slot(slot);
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  adds_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t sz = queue_.size_approx();
  std::uint64_t prev = max_size_.load(std::memory_order_relaxed);
  while (sz > prev &&
         !max_size_.compare_exchange_weak(prev, sz, std::memory_order_relaxed)) {
  }
  // Wake one sleeper; it will either take this entry or re-sleep.
  wait_cv_.notify_one();
  return true;
}

GlobalWorklist::RemoveOutcome GlobalWorklist::remove(vc::DegreeArray& out) {
  for (;;) {
    if (stop_.load(std::memory_order_acquire) ||
        done_.load(std::memory_order_acquire))
      return RemoveOutcome::kDone;

    std::uint32_t slot = 0;
    if (queue_.try_pop(slot)) {
      take(slot, out);
      return RemoveOutcome::kGot;
    }

    // Failed removal: register as waiting. If every block in the grid is
    // now waiting, no block is processing a node, so no new work can ever
    // be produced; one exact re-check of the queue decides termination.
    // (Blocks only push while processing, i.e. outside remove(), so
    // waiting == num_blocks implies there are no in-flight pushes, and the
    // acq_rel chain through waiting_ makes completed pushes visible.)
    int now_waiting = waiting_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (now_waiting == num_blocks_) {
      if (queue_.try_pop(slot)) {
        waiting_.fetch_sub(1, std::memory_order_acq_rel);
        take(slot, out);
        return RemoveOutcome::kGot;
      }
      done_.store(true, std::memory_order_release);
      waiting_.fetch_sub(1, std::memory_order_acq_rel);
      wait_cv_.notify_all();
      return RemoveOutcome::kDone;
    }
    {
      // Sleep briefly, then retry (the paper's nanosleep backoff). The
      // timeout guards against a lost notify between the failed pop and
      // the wait.
      std::unique_lock<std::mutex> lock(wait_mutex_);
      wait_cv_.wait_for(lock, std::chrono::microseconds(200), [&] {
        return !queue_.empty_approx() ||
               stop_.load(std::memory_order_acquire) ||
               done_.load(std::memory_order_acquire);
      });
    }
    waiting_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void GlobalWorklist::signal_stop() {
  stop_.store(true, std::memory_order_release);
  wait_cv_.notify_all();
}

WorklistStats GlobalWorklist::stats() const {
  WorklistStats s;
  s.adds = adds_.load();
  s.removes = removes_.load();
  s.donations_rejected_threshold = rejected_threshold_.load();
  s.donations_rejected_full = rejected_full_.load();
  s.max_size_seen = max_size_.load();
  return s;
}

}  // namespace gvc::worklist
