#pragma once

// Wall-clock timing and per-activity cycle accounting.
//
// ActivityAccumulator mirrors how the paper instruments its kernels (§V-D):
// each thread block records, per activity, the number of "SM clock" cycles
// spent; breakdowns are normalized per block then averaged. Here the clock is
// the calling thread's CPU clock (thread_cpu_ns, CLOCK_THREAD_CPUTIME_ID) in
// nanoseconds, which plays the role of the SM cycle counter. Unlike the SM
// register, one read costs a system call (hundreds of ns on a VM), so the
// per-node scopes are opt-in: see vc::SolveControl::enable_activity_profile.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace gvc::util {

/// Simple wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Monotonic nanosecond timestamp (wall clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds of CPU time consumed by the calling thread. This is the
/// substrate's "SM clock": it charges a thread block only for work it
/// actually executed, so measurements are immune to host oversubscription
/// (a descheduled block accrues nothing, exactly like an idle SM).
std::uint64_t thread_cpu_ns();

/// Activities instrumented in the MVC/PVC kernels, matching Fig. 6 of the
/// paper: three work-distribution groups, three reduction rules, and three
/// branching steps, plus termination waiting — and one residual that is not
/// a Fig. 6 column.
enum class Activity : int {
  kWorklistAdd = 0,
  kWorklistRemove,
  kStackPush,
  kStackPop,
  kTerminate,
  kDegreeOneRule,
  kDegreeTwoTriangleRule,
  kHighDegreeRule,
  kFindMaxDegree,
  kRemoveMaxVertex,
  kRemoveNeighbors,
  /// The residual: block CPU time that no scope charged. A launch without
  /// the per-node profile books it once per block (cpu_ns minus the cheap
  /// per-adoption timers), so a block's activities still sum to its CPU.
  kUntimed,
  kCount
};

inline constexpr int kNumActivities = static_cast<int>(Activity::kCount);

/// The eleven instrumented activities of Fig. 6: every one but kUntimed.
inline constexpr int kNumFig6Activities = static_cast<int>(Activity::kUntimed);

/// Human-readable label for an activity (as printed in Fig. 6's legend).
const char* activity_name(Activity a);

/// Per-block accumulator of nanoseconds spent in each activity.
/// Not thread-safe: each block owns one.
class ActivityAccumulator {
 public:
  ActivityAccumulator() { ns_.fill(0); }

  void add(Activity a, std::uint64_t ns) { ns_[static_cast<int>(a)] += ns; }

  std::uint64_t ns(Activity a) const { return ns_[static_cast<int>(a)]; }

  /// Sum over all activities.
  std::uint64_t total_ns() const;

  /// Element-wise merge of another accumulator into this one.
  void merge(const ActivityAccumulator& other);

 private:
  std::array<std::uint64_t, kNumActivities> ns_;
};

/// RAII scope that charges the calling thread's CPU time over its lifetime
/// to one activity of an accumulator (see thread_cpu_ns for why CPU time).
/// A null accumulator turns the scope off: it reads no clock at all, which
/// is how the solvers' per-node scopes cost nothing unless profiling is on.
class ActivityScope {
 public:
  ActivityScope(ActivityAccumulator* acc, Activity a)
      : acc_(acc), activity_(a), start_(acc ? thread_cpu_ns() : 0) {}
  ~ActivityScope() {
    if (acc_) acc_->add(activity_, thread_cpu_ns() - start_);
  }

  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;

 private:
  ActivityAccumulator* acc_;
  Activity activity_;
  std::uint64_t start_;
};

}  // namespace gvc::util
