#include "obs/phase.hpp"

#include <cstdio>

namespace gvc::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kReduce: return "reduce";
    case Phase::kBranch: return "branch";
    case Phase::kSteal: return "steal";
    case Phase::kCache: return "cache";
    case Phase::kIdle: return "idle";
    case Phase::kOther: return "other";
    case Phase::kCount: break;
  }
  return "?";
}

Phase phase_of_activity(util::Activity a) {
  using util::Activity;
  switch (a) {
    case Activity::kDegreeOneRule:
    case Activity::kDegreeTwoTriangleRule:
    case Activity::kHighDegreeRule:
      return Phase::kReduce;
    case Activity::kFindMaxDegree:
    case Activity::kRemoveMaxVertex:
    case Activity::kRemoveNeighbors:
    case Activity::kStackPush:
    case Activity::kStackPop:
      return Phase::kBranch;
    case Activity::kWorklistAdd:
    case Activity::kWorklistRemove:
      return Phase::kSteal;
    case Activity::kTerminate:
      return Phase::kIdle;
    case Activity::kUntimed:
      return Phase::kOther;
    case Activity::kCount:
      break;
  }
  return Phase::kOther;
}

void PhaseTable::add_activities(int slot,
                                const util::ActivityAccumulator& acc) noexcept {
  for (int a = 0; a < util::kNumActivities; ++a) {
    const auto activity = static_cast<util::Activity>(a);
    const std::uint64_t ns = acc.ns(activity);
    if (ns != 0) add(slot, phase_of_activity(activity), ns);
  }
}

PhaseTable::Snapshot PhaseTable::snapshot(int slot) const {
  Snapshot out;
  const Slot& s = slots_[static_cast<std::size_t>(slot)];
  for (int p = 0; p < kPhaseCount; ++p)
    out.ns[static_cast<std::size_t>(p)] =
        s.ns[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  return out;
}

PhaseTable::Snapshot PhaseTable::merged() const {
  Snapshot out;
  for (int slot = 0; slot < slots(); ++slot) out.merge(snapshot(slot));
  return out;
}

std::uint64_t PhaseTable::Snapshot::total_ns() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : ns) sum += v;
  return sum;
}

double PhaseTable::Snapshot::fraction(Phase p) const {
  const std::uint64_t total = total_ns();
  if (total == 0) return 0.0;
  return static_cast<double>(ns[static_cast<std::size_t>(p)]) /
         static_cast<double>(total);
}

void PhaseTable::Snapshot::merge(const Snapshot& other) {
  for (int p = 0; p < kPhaseCount; ++p)
    ns[static_cast<std::size_t>(p)] += other.ns[static_cast<std::size_t>(p)];
}

std::string format_phase_split(const PhaseTable::Snapshot& snap) {
  if (snap.total_ns() == 0) return "no samples";
  std::string out;
  char buf[64];
  for (int p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    if (snap.ns[static_cast<std::size_t>(p)] == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%s %.1f%%", out.empty() ? "" : "  ",
                  phase_name(phase), 100.0 * snap.fraction(phase));
    out += buf;
  }
  return out;
}

std::string format_phase_table(const PhaseTable& table) {
  std::string out;
  char buf[160];
  for (int slot = 0; slot < table.slots(); ++slot) {
    const PhaseTable::Snapshot snap = table.snapshot(slot);
    if (snap.total_ns() == 0) continue;  // idle-from-birth workers elided
    std::snprintf(buf, sizeof(buf), "  worker %-3d %8.3fs  %s\n", slot,
                  static_cast<double>(snap.total_ns()) / 1e9,
                  format_phase_split(snap).c_str());
    out += buf;
  }
  return out;
}

}  // namespace gvc::obs
