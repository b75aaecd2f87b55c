#pragma once

// BlockPool — the process-wide set of resident host threads that execute a
// VirtualDevice launch's blocks.
//
// A GPU persistent kernel pays microseconds to launch: its thread blocks
// are dispatched onto SMs that already exist. Creating and joining one
// host thread per block costs about a millisecond per 32-block launch (4
// vCPU x86 Linux host), so the pool keeps its threads parked between
// launches instead. A launch of n tasks takes n idle threads under one
// lock, hands each a task index, wakes them, and waits until all n have
// finished; each thread parks again (back on the idle list) before it
// reports its task done, so the launcher's next launch finds it idle.
//
// A launch never waits for a busy thread to come free: when fewer than n
// threads are idle it spawns the shortfall, and the pool grows to the
// peak demand of concurrent launches (two service workers launching
// 32-block grids at once need 64 threads). That keeps every cooperative
// launch fully co-resident — the worklist termination protocol needs all
// its blocks running — and makes concurrent launches, and a launch issued
// from inside a block, deadlock-free. Threads are never retired.
//
// An exception escaping a task ends the process (std::terminate), as one
// escaping any std::thread does.
//
// Fork safety: a forked child inherits the pool's bookkeeping but none of
// its threads, and possibly a mutex some other parent thread held. The
// pool records the pid that created it; instance() in a different process
// abandons the inherited pool without touching it and starts an empty one.

#include <sys/types.h>

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace gvc::device {

class BlockPool {
 public:
  /// The calling process's pool (created on first use).
  static BlockPool& instance();

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  /// Runs task(i) for every i in [0, n) on n distinct pool threads, all
  /// concurrently, and returns once every call has returned. Thread
  /// creation failure terminates the process.
  void run(int n, const std::function<void(int)>& task) noexcept;

  /// Threads the pool owns, parked or busy.
  int threads() const;

 private:
  struct Launch;
  struct Worker;

  explicit BlockPool(pid_t pid);
  static void worker_main(BlockPool* pool, Worker* w);

  const pid_t pid_;
  mutable std::mutex mutex_;    ///< guards idle_ and workers_
  std::vector<Worker*> idle_;   ///< parked threads, most recently parked last
  std::vector<std::unique_ptr<Worker>> workers_;  ///< every thread, forever
};

}  // namespace gvc::device
