#include "device/block_pool.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <thread>

#include "obs/metrics.hpp"

namespace gvc::device {

namespace {

// Process-wide pool metrics, registered once (never per pool: a forked
// child's fresh pool must not take the registry mutex a parent thread may
// have held at fork time).
struct PoolMetrics {
  std::shared_ptr<obs::Counter> threads_spawned;
  obs::Registry::CallbackHandle pool_threads;

  static PoolMetrics& get() {
    static PoolMetrics* m = new PoolMetrics{
        obs::Registry::global().counter(
            "gvc_device_threads_spawned_total",
            "block-pool threads created (0 per launch in steady state)"),
        obs::Registry::global().gauge(
            "gvc_device_pool_threads", "block-pool threads, parked or busy",
            [] {
              return static_cast<double>(BlockPool::instance().threads());
            }),
    };
    return *m;
  }
};

}  // namespace

/// One run() call. Lives on the launcher's stack until `remaining` is 0.
struct BlockPool::Launch {
  const std::function<void(int)>* task = nullptr;
  std::mutex mutex;
  std::condition_variable done;
  int remaining = 0;  ///< guarded by mutex
};

/// A pool thread's mailbox: the launch it was handed and its task index.
struct BlockPool::Worker {
  std::mutex mutex;
  std::condition_variable wake;
  Launch* launch = nullptr;  ///< guarded by mutex; non-null = work pending
  int index = 0;
  std::thread thread;  ///< never joined: workers live as long as the process
};

BlockPool::BlockPool(pid_t pid) : pid_(pid) {}

BlockPool& BlockPool::instance() {
  static std::atomic<BlockPool*> current{nullptr};
  const pid_t pid = ::getpid();
  BlockPool* p = current.load(std::memory_order_acquire);
  while (p == nullptr || p->pid_ != pid) {
    // First use, or first use in a forked child: an inherited pool is
    // leaked untouched (its threads do not exist here).
    auto* fresh = new BlockPool(pid);
    if (current.compare_exchange_strong(p, fresh, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      PoolMetrics::get();
      return *fresh;
    }
    delete fresh;  // another thread installed one first; `p` holds it
  }
  return *p;
}

void BlockPool::run(int n, const std::function<void(int)>& task) noexcept {
  Launch launch;
  launch.task = &task;
  launch.remaining = n;

  std::vector<Worker*> taken;
  taken.reserve(static_cast<std::size_t>(n));
  int reused = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reused = std::min(n, static_cast<int>(idle_.size()));
    taken.assign(idle_.end() - reused, idle_.end());
    idle_.resize(idle_.size() - static_cast<std::size_t>(reused));
    for (int i = reused; i < n; ++i) {
      workers_.push_back(std::make_unique<Worker>());
      taken.push_back(workers_.back().get());
    }
  }

  for (int i = 0; i < n; ++i) {
    Worker* w = taken[static_cast<std::size_t>(i)];
    {
      std::lock_guard<std::mutex> lock(w->mutex);
      w->launch = &launch;
      w->index = i;
    }
    if (i < reused)
      w->wake.notify_one();
    else
      w->thread = std::thread(worker_main, this, w);
  }
  if (n > reused)
    PoolMetrics::get().threads_spawned->add(
        static_cast<std::uint64_t>(n - reused));

  std::unique_lock<std::mutex> lock(launch.mutex);
  launch.done.wait(lock, [&] { return launch.remaining == 0; });
}

int BlockPool::threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

void BlockPool::worker_main(BlockPool* pool, Worker* w) {
  std::unique_lock<std::mutex> mailbox(w->mutex);
  for (;;) {
    w->wake.wait(mailbox, [w] { return w->launch != nullptr; });
    Launch* launch = w->launch;
    const int index = w->index;
    w->launch = nullptr;
    mailbox.unlock();

    (*launch->task)(index);  // an escaping exception terminates the process

    // Park before reporting done, so the launcher's next launch finds this
    // thread idle instead of spawning a new one.
    {
      std::lock_guard<std::mutex> lock(pool->mutex_);
      pool->idle_.push_back(w);
    }
    {
      std::lock_guard<std::mutex> lock(launch->mutex);
      if (--launch->remaining == 0) launch->done.notify_one();
    }
    mailbox.lock();
  }
}

}  // namespace gvc::device
