#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace gvc::util {
namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);  // generous upper bound for loaded CI machines
  EXPECT_NEAR(t.millis(), t.seconds() * 1e3, 1.0);
}

TEST(WallTimer, ResetRestartsClock) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(NowNs, Monotonic) {
  auto a = now_ns();
  auto b = now_ns();
  EXPECT_LE(a, b);
}

TEST(ActivityAccumulator, StartsZeroed) {
  ActivityAccumulator acc;
  for (int i = 0; i < kNumActivities; ++i)
    EXPECT_EQ(acc.ns(static_cast<Activity>(i)), 0u);
  EXPECT_EQ(acc.total_ns(), 0u);
}

TEST(ActivityAccumulator, AddAndTotal) {
  ActivityAccumulator acc;
  acc.add(Activity::kWorklistAdd, 100);
  acc.add(Activity::kWorklistAdd, 50);
  acc.add(Activity::kDegreeOneRule, 25);
  EXPECT_EQ(acc.ns(Activity::kWorklistAdd), 150u);
  EXPECT_EQ(acc.ns(Activity::kDegreeOneRule), 25u);
  EXPECT_EQ(acc.total_ns(), 175u);
}

TEST(ActivityAccumulator, Merge) {
  ActivityAccumulator a, b;
  a.add(Activity::kStackPush, 10);
  b.add(Activity::kStackPush, 5);
  b.add(Activity::kTerminate, 7);
  a.merge(b);
  EXPECT_EQ(a.ns(Activity::kStackPush), 15u);
  EXPECT_EQ(a.ns(Activity::kTerminate), 7u);
}

TEST(ActivityScope, ChargesCpuTimeForWork) {
  ActivityAccumulator acc;
  volatile double sink = 0;
  {
    ActivityScope scope(&acc, Activity::kFindMaxDegree);
    for (int i = 0; i < 5'000'000; ++i) sink = sink + 1.0;
  }
  EXPECT_GE(acc.ns(Activity::kFindMaxDegree), 500'000u);
}

TEST(ActivityScope, SleepIsNearlyFree) {
  // The accumulator uses the thread CPU clock: a sleeping "block" accrues
  // (almost) nothing, like an idle SM.
  ActivityAccumulator acc;
  {
    ActivityScope scope(&acc, Activity::kTerminate);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LT(acc.ns(Activity::kTerminate), 5'000'000u);
}

TEST(ThreadCpuNs, MonotoneAndAdvancesUnderWork) {
  auto a = thread_cpu_ns();
  volatile double sink = 0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
  auto b = thread_cpu_ns();
  EXPECT_GT(b, a);
}

TEST(ActivityNames, AllDistinctAndNonEmpty) {
  std::set<std::string> names;
  for (int i = 0; i < kNumActivities; ++i) {
    std::string n = activity_name(static_cast<Activity>(i));
    EXPECT_FALSE(n.empty());
    EXPECT_NE(n, "?");
    names.insert(n);
  }
  EXPECT_EQ(static_cast<int>(names.size()), kNumActivities);
}

}  // namespace
}  // namespace gvc::util
