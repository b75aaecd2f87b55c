#include "obs/phase.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/timer.hpp"

namespace gvc::obs {
namespace {

TEST(PhaseOfActivity, EveryActivityMapsToARealPhase) {
  for (int a = 0; a < util::kNumActivities; ++a) {
    const Phase p = phase_of_activity(static_cast<util::Activity>(a));
    EXPECT_GE(static_cast<int>(p), 0);
    EXPECT_LT(static_cast<int>(p), kPhaseCount);
  }
}

TEST(PhaseOfActivity, Fig6Mapping) {
  using util::Activity;
  EXPECT_EQ(phase_of_activity(Activity::kDegreeOneRule), Phase::kReduce);
  EXPECT_EQ(phase_of_activity(Activity::kDegreeTwoTriangleRule),
            Phase::kReduce);
  EXPECT_EQ(phase_of_activity(Activity::kHighDegreeRule), Phase::kReduce);
  EXPECT_EQ(phase_of_activity(Activity::kFindMaxDegree), Phase::kBranch);
  EXPECT_EQ(phase_of_activity(Activity::kRemoveMaxVertex), Phase::kBranch);
  EXPECT_EQ(phase_of_activity(Activity::kRemoveNeighbors), Phase::kBranch);
  EXPECT_EQ(phase_of_activity(Activity::kStackPush), Phase::kBranch);
  EXPECT_EQ(phase_of_activity(Activity::kStackPop), Phase::kBranch);
  EXPECT_EQ(phase_of_activity(Activity::kWorklistAdd), Phase::kSteal);
  EXPECT_EQ(phase_of_activity(Activity::kWorklistRemove), Phase::kSteal);
  EXPECT_EQ(phase_of_activity(Activity::kTerminate), Phase::kIdle);
}

TEST(PhaseOfActivity, UntimedResidualIsBusyOther) {
  // The untimed residual of an unprofiled launch is solve work, not
  // waiting: busy-time metrics (all phases but idle) must keep counting it.
  EXPECT_EQ(phase_of_activity(util::Activity::kUntimed), Phase::kOther);
}

TEST(PhaseTable, AddAndSnapshot) {
  PhaseTable table(3);
  EXPECT_EQ(table.slots(), 3);
  table.add(0, Phase::kReduce, 100);
  table.add(0, Phase::kReduce, 50);
  table.add(1, Phase::kBranch, 200);
  table.add(2, Phase::kIdle, 10);

  const PhaseTable::Snapshot s0 = table.snapshot(0);
  EXPECT_EQ(s0.ns[static_cast<int>(Phase::kReduce)], 150u);
  EXPECT_EQ(s0.total_ns(), 150u);
  EXPECT_DOUBLE_EQ(s0.fraction(Phase::kReduce), 1.0);
  EXPECT_DOUBLE_EQ(s0.fraction(Phase::kBranch), 0.0);

  const PhaseTable::Snapshot merged = table.merged();
  EXPECT_EQ(merged.total_ns(), 360u);
  EXPECT_DOUBLE_EQ(merged.fraction(Phase::kBranch), 200.0 / 360.0);
}

TEST(PhaseTable, AddActivitiesFoldsAccumulator) {
  util::ActivityAccumulator acc;
  acc.add(util::Activity::kDegreeOneRule, 100);
  acc.add(util::Activity::kHighDegreeRule, 60);
  acc.add(util::Activity::kFindMaxDegree, 40);
  acc.add(util::Activity::kWorklistAdd, 25);
  acc.add(util::Activity::kTerminate, 5);

  PhaseTable table(1);
  table.add_activities(0, acc);
  const PhaseTable::Snapshot s = table.snapshot(0);
  EXPECT_EQ(s.ns[static_cast<int>(Phase::kReduce)], 160u);
  EXPECT_EQ(s.ns[static_cast<int>(Phase::kBranch)], 40u);
  EXPECT_EQ(s.ns[static_cast<int>(Phase::kSteal)], 25u);
  EXPECT_EQ(s.ns[static_cast<int>(Phase::kIdle)], 5u);
  EXPECT_EQ(s.total_ns(), acc.total_ns());
}

TEST(PhaseTable, SnapshotMerge) {
  PhaseTable table(2);
  table.add(0, Phase::kReduce, 70);
  table.add(1, Phase::kReduce, 30);
  PhaseTable::Snapshot a = table.snapshot(0);
  a.merge(table.snapshot(1));
  EXPECT_EQ(a.ns[static_cast<int>(Phase::kReduce)], 100u);
}

TEST(PhaseTable, EmptySnapshotFractionsAreZero) {
  PhaseTable table(1);
  const PhaseTable::Snapshot s = table.snapshot(0);
  EXPECT_EQ(s.total_ns(), 0u);
  for (int p = 0; p < kPhaseCount; ++p)
    EXPECT_DOUBLE_EQ(s.fraction(static_cast<Phase>(p)), 0.0);
}

TEST(PhaseTable, ConcurrentAddsFromManyThreads) {
  PhaseTable table(4);
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&table, t] {
      for (int i = 0; i < kAdds; ++i)
        table.add(t % 4, static_cast<Phase>(i % kPhaseCount), 1);
    });
  // Concurrent reader: merged() during writes must be safe (relaxed
  // monotone counters).
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t now = table.merged().total_ns();
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.merged().total_ns(),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(PhaseFormat, SplitElidesZeroPhasesAndHandlesEmpty) {
  PhaseTable table(1);
  EXPECT_EQ(format_phase_split(table.snapshot(0)), "no samples");
  table.add(0, Phase::kReduce, 750);
  table.add(0, Phase::kBranch, 250);
  const std::string split = format_phase_split(table.snapshot(0));
  EXPECT_NE(split.find("reduce 75.0%"), std::string::npos);
  EXPECT_NE(split.find("branch 25.0%"), std::string::npos);
  EXPECT_EQ(split.find("steal"), std::string::npos) << split;
}

TEST(PhaseFormat, TableHasOneLinePerNonEmptyWorker) {
  PhaseTable table(3);
  table.add(0, Phase::kReduce, 1'000'000'000);  // 1 s
  table.add(2, Phase::kIdle, 500'000'000);
  const std::string text = format_phase_table(table);
  EXPECT_NE(text.find("worker 0"), std::string::npos);
  EXPECT_EQ(text.find("worker 1"), std::string::npos) << text;
  EXPECT_NE(text.find("worker 2"), std::string::npos);
}

}  // namespace
}  // namespace gvc::obs
