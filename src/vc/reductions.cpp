#include "vc/reductions.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace gvc::vc {

namespace {

/// Unique present neighbor of a degree-one vertex v, judged against the
/// membership snapshot `snap` (or the live array when snap == nullptr).
Vertex unique_present_neighbor(const CsrGraph& g, const DegreeArray& da,
                               const std::vector<std::int32_t>* snap,
                               Vertex v) {
  for (Vertex u : g.neighbors(v)) {
    bool present = snap ? (*snap)[static_cast<std::size_t>(u)] != DegreeArray::kInSolution
                        : da.present(u);
    if (present) return u;
  }
  GVC_CHECK_MSG(false, "degree-one vertex with no present neighbor");
  return -1;
}

/// The two present neighbors of a degree-two vertex v (snapshot semantics as
/// above). Returns false if the vertex does not have exactly two.
bool two_present_neighbors(const CsrGraph& g, const DegreeArray& da,
                           const std::vector<std::int32_t>* snap, Vertex v,
                           Vertex& a, Vertex& b) {
  int found = 0;
  for (Vertex u : g.neighbors(v)) {
    bool present = snap ? (*snap)[static_cast<std::size_t>(u)] != DegreeArray::kInSolution
                        : da.present(u);
    if (!present) continue;
    if (found == 0) a = u;
    else if (found == 1) b = u;
    else return false;
    ++found;
  }
  return found == 2;
}

/// Whether x triggers the degree-two-triangle rule under the snapshot:
/// snapshot degree 2 and its two snapshot-present neighbors are adjacent.
bool sweep_triangle_qualifies(const CsrGraph& g, const DegreeArray& da,
                              const std::vector<std::int32_t>& snap, Vertex x) {
  if (snap[static_cast<std::size_t>(x)] != 2) return false;
  Vertex a = -1, b = -1;
  if (!two_present_neighbors(g, da, &snap, x, a, b)) return false;
  return g.has_edge(a, b);
}

std::int64_t degree_one_serial(const CsrGraph& g, DegreeArray& da) {
  std::int64_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (!da.present(v) || da.degree(v) != 1) continue;
      Vertex u = unique_present_neighbor(g, da, nullptr, v);
      da.remove_into_solution(g, u);
      ++removed;
      changed = true;
    }
  }
  return removed;
}

std::int64_t degree_one_sweep(const CsrGraph& g, DegreeArray& da,
                              std::vector<std::int32_t>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    snap.assign(da.raw().begin(), da.raw().end());
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (snap[static_cast<std::size_t>(v)] != 1) continue;
      Vertex u = unique_present_neighbor(g, da, &snap, v);
      // Adjacent degree-one pair: only one endpoint executes so that only
      // one of the two vertices enters S — the paper removes the one with
      // the smaller id, so the larger-id endpoint is the executor (§IV-D).
      if (snap[static_cast<std::size_t>(u)] == 1 && u > v) continue;
      if (da.present(u)) {  // may already be gone via a shared neighbor
        da.remove_into_solution(g, u);
        ++this_sweep;
      }
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

std::int64_t degree_two_serial(const CsrGraph& g, DegreeArray& da) {
  std::int64_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (!da.present(v) || da.degree(v) != 2) continue;
      Vertex a = -1, b = -1;
      if (!two_present_neighbors(g, da, nullptr, v, a, b)) continue;
      if (!g.has_edge(a, b)) continue;
      da.remove_into_solution(g, a);
      da.remove_into_solution(g, b);
      removed += 2;
      changed = true;
    }
  }
  return removed;
}

std::int64_t degree_two_sweep(const CsrGraph& g, DegreeArray& da,
                              std::vector<std::int32_t>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    snap.assign(da.raw().begin(), da.raw().end());
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (!sweep_triangle_qualifies(g, da, snap, v)) continue;
      Vertex a = -1, b = -1;
      GVC_CHECK(two_present_neighbors(g, da, &snap, v, a, b));
      // A triangle of three degree-two vertices makes all of them qualify;
      // only the smallest id executes (§IV-D).
      if ((sweep_triangle_qualifies(g, da, snap, a) && a < v) ||
          (sweep_triangle_qualifies(g, da, snap, b) && b < v))
        continue;
      if (da.present(a)) { da.remove_into_solution(g, a); ++this_sweep; }
      if (da.present(b)) { da.remove_into_solution(g, b); ++this_sweep; }
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

std::int64_t high_degree_serial(const CsrGraph& g, DegreeArray& da,
                                const BudgetPolicy& policy) {
  std::int64_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      std::int64_t budget = policy.budget(da.solution_size());
      if (budget == std::numeric_limits<std::int64_t>::max()) return removed;
      if (budget < 0) return removed;  // node is prunable; stop reducing
      if (!da.present(v) || da.degree(v) <= budget) continue;
      da.remove_into_solution(g, v);
      ++removed;
      changed = true;
    }
  }
  return removed;
}

std::int64_t high_degree_sweep(const CsrGraph& g, DegreeArray& da,
                               const BudgetPolicy& policy,
                               std::vector<std::int32_t>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    std::int64_t budget = policy.budget(da.solution_size());
    if (budget == std::numeric_limits<std::int64_t>::max()) break;
    if (budget < 0) break;
    snap.assign(da.raw().begin(), da.raw().end());
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      std::int32_t d = snap[static_cast<std::size_t>(v)];
      if (d == DegreeArray::kInSolution || d <= budget) continue;
      // Sound even though |S| grows during the sweep: every removal tightens
      // the budget by one while degrees drop by at most one per removed
      // neighbor, so a snapshot-qualifying vertex still qualifies.
      da.remove_into_solution(g, v);
      ++this_sweep;
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

// --- shape-specialized sweep kernels (KernelDispatch::kAuto) ----------------
//
// The u8/u16 sweep kernels mirror the generic int32 functions above line for
// line; the only change is the snapshot encoding. A removed vertex is
// encoded as 0 instead of kInSolution, which collides with "present at
// degree 0" — but everywhere the sweeps test presence it is for a NEIGHBOR
// of a vertex that was present in the same snapshot, and a present vertex
// with a present neighbor has snapshot degree >= 1. So `snap[u] != 0` is an
// exact presence test in every context below, and the high-degree skip
// `d == 0 || d <= budget` matches the generic `d == kInSolution ||
// d <= budget` because the loop only runs with budget >= 0.

std::vector<std::uint8_t>& narrow_snapshot(ReduceWorkspace& ws, std::uint8_t) {
  return ws.snapshot8;
}
std::vector<std::uint16_t>& narrow_snapshot(ReduceWorkspace& ws,
                                            std::uint16_t) {
  return ws.snapshot16;
}

template <typename SnapT>
void take_narrow_snapshot(const DegreeArray& da, std::vector<SnapT>& snap) {
  const std::vector<std::int32_t>& raw = da.raw();
  snap.resize(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::int32_t d = raw[i];
    snap[i] = d == DegreeArray::kInSolution ? SnapT{0} : static_cast<SnapT>(d);
  }
}

template <typename SnapT>
Vertex unique_present_neighbor_narrow(const CsrGraph& g,
                                      const std::vector<SnapT>& snap,
                                      Vertex v) {
  for (Vertex u : g.neighbors(v))
    if (snap[static_cast<std::size_t>(u)] != 0) return u;
  GVC_CHECK_MSG(false, "degree-one vertex with no present neighbor");
  return -1;
}

template <typename SnapT>
bool two_present_neighbors_narrow(const CsrGraph& g,
                                  const std::vector<SnapT>& snap, Vertex v,
                                  Vertex& a, Vertex& b) {
  int found = 0;
  for (Vertex u : g.neighbors(v)) {
    if (snap[static_cast<std::size_t>(u)] == 0) continue;
    if (found == 0) a = u;
    else if (found == 1) b = u;
    else return false;
    ++found;
  }
  return found == 2;
}

template <typename SnapT>
bool sweep_triangle_qualifies_narrow(const CsrGraph& g,
                                     const std::vector<SnapT>& snap,
                                     Vertex x) {
  if (snap[static_cast<std::size_t>(x)] != 2) return false;
  Vertex a = -1, b = -1;
  if (!two_present_neighbors_narrow(g, snap, x, a, b)) return false;
  return g.has_edge(a, b);
}

template <typename SnapT>
std::int64_t degree_one_sweep_narrow(const CsrGraph& g, DegreeArray& da,
                                     std::vector<SnapT>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    take_narrow_snapshot(da, snap);
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (snap[static_cast<std::size_t>(v)] != 1) continue;
      Vertex u = unique_present_neighbor_narrow(g, snap, v);
      if (snap[static_cast<std::size_t>(u)] == 1 && u > v) continue;
      if (da.present(u)) {
        da.remove_into_solution(g, u);
        ++this_sweep;
      }
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

template <typename SnapT>
std::int64_t degree_two_sweep_narrow(const CsrGraph& g, DegreeArray& da,
                                     std::vector<SnapT>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    take_narrow_snapshot(da, snap);
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (!sweep_triangle_qualifies_narrow(g, snap, v)) continue;
      Vertex a = -1, b = -1;
      GVC_CHECK(two_present_neighbors_narrow(g, snap, v, a, b));
      if ((sweep_triangle_qualifies_narrow(g, snap, a) && a < v) ||
          (sweep_triangle_qualifies_narrow(g, snap, b) && b < v))
        continue;
      if (da.present(a)) { da.remove_into_solution(g, a); ++this_sweep; }
      if (da.present(b)) { da.remove_into_solution(g, b); ++this_sweep; }
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

template <typename SnapT>
std::int64_t high_degree_sweep_narrow(const CsrGraph& g, DegreeArray& da,
                                      const BudgetPolicy& policy,
                                      std::vector<SnapT>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    std::int64_t budget = policy.budget(da.solution_size());
    if (budget == std::numeric_limits<std::int64_t>::max()) break;
    if (budget < 0) break;
    take_narrow_snapshot(da, snap);
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      const std::int64_t d = snap[static_cast<std::size_t>(v)];
      if (d == 0 || d <= budget) continue;
      da.remove_into_solution(g, v);
      ++this_sweep;
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

/// One sweep-semantics fixpoint round loop, specialized on snapshot width
/// and the enabled-rule mask — the inner loops carry no dead rule branches
/// and no per-entry width conversions beyond the snapshot take itself.
template <typename SnapT, bool D1, bool D2, bool HD>
ReduceStats reduce_sweep_pass(const CsrGraph& g, DegreeArray& da,
                              const BudgetPolicy& policy,
                              util::ActivityAccumulator* acc,
                              ReduceWorkspace& ws) {
  std::vector<SnapT>& snap = narrow_snapshot(ws, SnapT{});
  ReduceStats stats;
  std::int64_t round_removed;
  do {
    round_removed = 0;
    if constexpr (D1) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kDegreeOneRule);
        n = degree_one_sweep_narrow<SnapT>(g, da, snap);
      }
      stats.degree_one_removed += n;
      round_removed += n;
    }
    if constexpr (D2) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kDegreeTwoTriangleRule);
        n = degree_two_sweep_narrow<SnapT>(g, da, snap);
      }
      stats.degree_two_removed += n;
      round_removed += n;
    }
    if constexpr (HD) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kHighDegreeRule);
        n = high_degree_sweep_narrow<SnapT>(g, da, policy, snap);
      }
      stats.high_degree_removed += n;
      round_removed += n;
    }
    ++stats.rounds;
  } while (round_removed > 0);
  return stats;
}

/// Dispatch-table row for one snapshot width. Mask bits here index the
/// RuleSet (1 = degree-one, 2 = degree-two-triangle, 4 = high-degree) — not
/// to be confused with the kRuleBit* fixpoint bits, where bit 4 is the
/// domination rule.
template <typename SnapT>
ReduceStats sweep_pass_for_mask(std::uint8_t m, const CsrGraph& g,
                                DegreeArray& da, const BudgetPolicy& policy,
                                util::ActivityAccumulator* acc,
                                ReduceWorkspace& ws) {
  switch (m & 7u) {
    case 0: return reduce_sweep_pass<SnapT, false, false, false>(g, da, policy, acc, ws);
    case 1: return reduce_sweep_pass<SnapT, true, false, false>(g, da, policy, acc, ws);
    case 2: return reduce_sweep_pass<SnapT, false, true, false>(g, da, policy, acc, ws);
    case 3: return reduce_sweep_pass<SnapT, true, true, false>(g, da, policy, acc, ws);
    case 4: return reduce_sweep_pass<SnapT, false, false, true>(g, da, policy, acc, ws);
    case 5: return reduce_sweep_pass<SnapT, true, false, true>(g, da, policy, acc, ws);
    case 6: return reduce_sweep_pass<SnapT, false, true, true>(g, da, policy, acc, ws);
    default: return reduce_sweep_pass<SnapT, true, true, true>(g, da, policy, acc, ws);
  }
}

// --- incremental engine -----------------------------------------------------

/// Runs one rule to its fixpoint over the candidate worklist, reproducing
/// kSerial's repeated ascending-id scans without touching unchanged
/// vertices. `cursor` is this rule's consumption point in the degree
/// array's dirty log: entries at or past it have not yet been considered by
/// this rule. `try_apply(v)` checks live qualification and applies the rule
/// at v, returning the number of removals (0 if v does not qualify); every
/// removal appends the decremented vertices to the dirty log, which this
/// loop drains — ids greater than the current position join the current
/// pass (kSerial's scan would still reach them), the rest wait for the next
/// pass.
///
/// Two filters keep the worklist tiny without breaking the serial
/// equivalence:
///   * Trigger-degree filter: both candidate-driven rules fire only at an
///     exact degree (1, or 2), degrees only ever decrease, and every
///     decrement logs a fresh entry — so an entry whose CURRENT degree is
///     not the trigger can never qualify before some later entry
///     re-enqueues it, and is dropped.
///   * Pending stamp: within-pass processing is globally ascending (heap
///     pops ascend and same-pass insertions are greater than the current
///     position), so a vertex already pending in the heap or the next-pass
///     list gains nothing from a duplicate entry — qualification is checked
///     live at pop.
/// When `seed_scan` is set the worklist is instead seeded with one linear
/// scan for vertices at the trigger degree (the one full scan the first
/// reduction of a node lineage pays), and the cursor skips the log.
template <typename TryApply>
std::int64_t run_incremental_rule(DegreeArray& da, ReduceWorkspace& ws,
                                  std::size_t& cursor, bool seed_scan,
                                  std::int32_t trigger_degree,
                                  TryApply&& try_apply) {
  const std::vector<Vertex>& log = da.dirty();  // stable object; may regrow
  const std::vector<std::int32_t>& deg = da.raw();
  auto& heap = ws.heap;
  auto& next = ws.next;
  auto& pending = ws.pending;
  heap.clear();
  next.clear();
  if (pending.size() < deg.size()) pending.assign(deg.size(), 0);
  const auto by_min = std::greater<Vertex>();
  auto push = [&](Vertex v) {
    heap.push_back(v);
    std::push_heap(heap.begin(), heap.end(), by_min);
  };
  // pos == -1 routes everything into the current (first) pass: entries that
  // predate the rule invocation are all visible to its first serial scan.
  auto enqueue = [&](Vertex w, Vertex pos) {
    if (deg[static_cast<std::size_t>(w)] != trigger_degree) return;
    auto& mark = pending[static_cast<std::size_t>(w)];
    if (mark) return;
    mark = 1;
    if (w > pos)
      push(w);  // the serial scan of this pass would still reach w
    else
      next.push_back(w);
  };

  if (seed_scan) {
    cursor = log.size();
    const Vertex n = da.num_vertices();
    for (Vertex v = 0; v < n; ++v) {
      if (deg[static_cast<std::size_t>(v)] == trigger_degree) {
        pending[static_cast<std::size_t>(v)] = 1;
        heap.push_back(v);  // ascending ids: already a valid min-heap
      }
    }
  } else {
    for (; cursor < log.size(); ++cursor) enqueue(log[cursor], -1);
  }

  std::int64_t removed = 0;
  for (;;) {
    if (heap.empty()) {
      if (next.empty()) break;
      for (Vertex v : next) push(v);  // start the next pass
      next.clear();
    }
    std::pop_heap(heap.begin(), heap.end(), by_min);
    const Vertex v = heap.back();
    heap.pop_back();
    pending[static_cast<std::size_t>(v)] = 0;
    const std::int64_t n = try_apply(v);
    if (n == 0) continue;
    removed += n;
    for (; cursor < log.size(); ++cursor) enqueue(log[cursor], v);
  }
  return removed;
}

std::int64_t degree_one_incremental(const CsrGraph& g, DegreeArray& da,
                                    ReduceWorkspace& ws, std::size_t& cursor,
                                    bool seed_scan) {
  return run_incremental_rule(
      da, ws, cursor, seed_scan, 1, [&](Vertex v) -> std::int64_t {
        if (!da.present(v) || da.degree(v) != 1) return 0;
        Vertex u = unique_present_neighbor(g, da, nullptr, v);
        da.remove_into_solution(g, u);
        return 1;
      });
}

std::int64_t degree_two_incremental(const CsrGraph& g, DegreeArray& da,
                                    ReduceWorkspace& ws, std::size_t& cursor,
                                    bool seed_scan) {
  return run_incremental_rule(
      da, ws, cursor, seed_scan, 2, [&](Vertex v) -> std::int64_t {
        if (!da.present(v) || da.degree(v) != 2) return 0;
        Vertex a = -1, b = -1;
        if (!two_present_neighbors(g, da, nullptr, v, a, b)) return 0;
        if (!g.has_edge(a, b)) return 0;
        da.remove_into_solution(g, a);
        da.remove_into_solution(g, b);
        return 2;
      });
}

/// The high-degree rule is budget-driven, not degree-change-driven (every
/// removal anywhere tightens the budget), so instead of candidates it uses
/// the degree array's cached max-degree bound as an O(1) "cannot fire" gate
/// and falls back to the exact serial pass only when some vertex actually
/// exceeds the budget. The serial pass removes at least one vertex whenever
/// it runs, so its scan cost is always matched by real work.
std::int64_t high_degree_incremental(const CsrGraph& g, DegreeArray& da,
                                     const BudgetPolicy& policy) {
  const std::int64_t budget = policy.budget(da.solution_size());
  if (budget == std::numeric_limits<std::int64_t>::max()) return 0;
  if (budget < 0) return 0;  // node is prunable; stop reducing
  if (da.max_degree_bound() <= budget) return 0;   // O(1): no vertex can exceed
  if (da.max_degree() <= budget) return 0;         // one scan, tightens the bound
  return high_degree_serial(g, da, policy);
}

ReduceStats reduce_incremental(const CsrGraph& g, DegreeArray& da,
                               const BudgetPolicy& policy, const RuleSet& rules,
                               util::ActivityAccumulator* acc,
                               ReduceWorkspace& ws) {
  constexpr std::uint8_t kDegreeOneBit = kRuleBitDegreeOne;
  constexpr std::uint8_t kDegreeTwoBit = kRuleBitDegreeTwo;

  ReduceStats stats;
  // A rule may trust the dirty log only if its own fixpoint was part of the
  // lineage's previous reduction (its fixpoint-mask bit is set) AND the log
  // has captured every change since (no overflow). Otherwise — first
  // reduction of the lineage, the rule was disabled last time, or a branch
  // dirtied more than the log carries — it pays one linear seed scan, which
  // is a superset of any log seeding and therefore just as exact.
  if (!da.tracking()) da.enable_tracking();
  if (da.dirty_overflowed()) {
    da.clear_dirty();
    da.set_reduce_fixpoint_mask(0);
  }
  const std::uint8_t mask = da.reduce_fixpoint_mask();
  // The engine consumes the log promptly; only inter-reduction mutations
  // (branch decisions) are subject to the cap.
  da.suspend_dirty_cap();
  std::size_t cursor_deg1 = 0;
  std::size_t cursor_deg2 = 0;
  bool seeded_deg1 = (mask & kDegreeOneBit) != 0;
  bool seeded_deg2 = (mask & kDegreeTwoBit) != 0;
  std::int64_t round_removed;
  do {
    round_removed = 0;
    if (rules.degree_one) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kDegreeOneRule);
        n = degree_one_incremental(g, da, ws, cursor_deg1, !seeded_deg1);
      }
      seeded_deg1 = true;
      stats.degree_one_removed += n;
      round_removed += n;
    }
    if (rules.degree_two_triangle) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kDegreeTwoTriangleRule);
        n = degree_two_incremental(g, da, ws, cursor_deg2, !seeded_deg2);
      }
      seeded_deg2 = true;
      stats.degree_two_removed += n;
      round_removed += n;
    }
    if (rules.high_degree) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kHighDegreeRule);
        n = high_degree_incremental(g, da, policy);
      }
      stats.high_degree_removed += n;
      round_removed += n;
    }
    ++stats.rounds;
  } while (round_removed > 0);
  // Fixpoint reached: nothing the enabled rules recognize qualifies
  // anywhere. Reset the log so the caller's branch mutations accumulate the
  // children's candidate seeds (bounded again by the cap), and record which
  // rules this fixpoint covers — a rule enabled later must re-seed.
  da.clear_dirty();
  da.restore_dirty_cap();
  da.set_reduce_fixpoint_mask(
      static_cast<std::uint8_t>((rules.degree_one ? kDegreeOneBit : 0) |
                                (rules.degree_two_triangle ? kDegreeTwoBit : 0)));
  return stats;
}

// --- shape-specialized incremental pass (KernelDispatch::kAuto) -------------

enum class SeedMode {
  kScan,  ///< one full linear scan for the trigger degree (first reduction)
  kList,  ///< seed from a fused-scan list, then drain the log from `cursor`
  kLog,   ///< drain the log from `cursor` only (fixpoint inherited)
};

/// run_incremental_rule with two extensions, equivalence preserved:
///
///   * Per-rule pending bits instead of the 0/1 stamp — stamps are set at
///     run time only and every one is cleared again by loop exit, so the
///     schemes interoperate on a shared buffer; the bits merely keep rules
///     from ever aliasing each other's marks.
///   * SeedMode::kList — the caller collected this rule's trigger list with
///     a fused scan BEFORE earlier rules of the same reduce call ran, and
///     set `cursor` to the log size as of that scan. Seeding re-filters the
///     list against CURRENT degrees and then drains the log from `cursor`
///     into the current pass (pos = -1): any vertex at the trigger degree
///     now either already was at the scan (in the list) or changed degree
///     since (in the drained log suffix), so the heap holds exactly the set
///     a fresh kScan would collect — and a min-heap pops it in the same
///     ascending order regardless of insertion order.
template <typename TryApply>
std::int64_t run_rule_pass(DegreeArray& da, ReduceWorkspace& ws,
                           std::size_t& cursor, SeedMode mode,
                           const std::vector<Vertex>* seed_list,
                           std::int32_t trigger_degree, std::uint8_t pend_bit,
                           TryApply&& try_apply) {
  const std::vector<Vertex>& log = da.dirty();  // stable object; may regrow
  const std::vector<std::int32_t>& deg = da.raw();
  auto& heap = ws.heap;
  auto& next = ws.next;
  auto& pending = ws.pending;
  heap.clear();
  next.clear();
  if (pending.size() < deg.size()) pending.assign(deg.size(), 0);
  const auto by_min = std::greater<Vertex>();
  auto push = [&](Vertex v) {
    heap.push_back(v);
    std::push_heap(heap.begin(), heap.end(), by_min);
  };
  auto enqueue = [&](Vertex w, Vertex pos) {
    if (deg[static_cast<std::size_t>(w)] != trigger_degree) return;
    auto& mark = pending[static_cast<std::size_t>(w)];
    if (mark & pend_bit) return;
    mark |= pend_bit;
    if (w > pos)
      push(w);  // the serial scan of this pass would still reach w
    else
      next.push_back(w);
  };

  switch (mode) {
    case SeedMode::kScan: {
      cursor = log.size();
      const Vertex n = da.num_vertices();
      for (Vertex v = 0; v < n; ++v) {
        if (deg[static_cast<std::size_t>(v)] == trigger_degree) {
          pending[static_cast<std::size_t>(v)] |= pend_bit;
          heap.push_back(v);  // ascending ids: already a valid min-heap
        }
      }
      break;
    }
    case SeedMode::kList:
      for (Vertex v : *seed_list) {
        if (deg[static_cast<std::size_t>(v)] != trigger_degree) continue;
        auto& mark = pending[static_cast<std::size_t>(v)];
        if (mark & pend_bit) continue;
        mark |= pend_bit;
        heap.push_back(v);  // seed lists ascend: still a valid min-heap
      }
      [[fallthrough]];
    case SeedMode::kLog:
      for (; cursor < log.size(); ++cursor) enqueue(log[cursor], -1);
      break;
  }

  std::int64_t removed = 0;
  for (;;) {
    if (heap.empty()) {
      if (next.empty()) break;
      for (Vertex v : next) push(v);  // start the next pass
      next.clear();
    }
    std::pop_heap(heap.begin(), heap.end(), by_min);
    const Vertex v = heap.back();
    heap.pop_back();
    pending[static_cast<std::size_t>(v)] &= static_cast<std::uint8_t>(~pend_bit);
    const std::int64_t n = try_apply(v);
    if (n == 0) continue;
    removed += n;
    for (; cursor < log.size(); ++cursor) enqueue(log[cursor], v);
  }
  return removed;
}

/// reduce_incremental specialized on the enabled-rule mask, with two
/// shape-level savings on top:
///
///   * Whole-call dead fast path — when every enabled candidate rule is at
///     its lineage fixpoint with no log candidate at its trigger and the
///     O(1) budget gate proves high-degree cannot fire, the generic
///     engine's first round would remove nothing and exit; reproduce its
///     exit bookkeeping without seeding a single worklist. This is the
///     classifier's live-rule skip evaluated against the CURRENT log (the
///     adoption-time tag would be stale here — earlier branch mutations may
///     have re-dirtied a trigger).
///   * Fused seeding — the first reduction of a lineage collects both
///     trigger lists in one linear scan (SeedMode::kList above).
///
/// Per-round, a rule at its fixpoint whose cursor has nothing left to drain
/// is skipped as a provable no-op (its heap would seed empty).
template <bool D1, bool D2, bool HD>
ReduceStats reduce_incremental_pass(const CsrGraph& g, DegreeArray& da,
                                    const BudgetPolicy& policy,
                                    util::ActivityAccumulator* acc,
                                    ReduceWorkspace& ws) {
  constexpr std::uint8_t kFixpointMask =
      static_cast<std::uint8_t>((D1 ? kRuleBitDegreeOne : 0) |
                                (D2 ? kRuleBitDegreeTwo : 0));
  ReduceStats stats;
  if (!da.tracking()) da.enable_tracking();
  if (da.dirty_overflowed()) {
    da.clear_dirty();
    da.set_reduce_fixpoint_mask(0);
  }
  const std::uint8_t mask = da.reduce_fixpoint_mask();
  bool seeded1 = (mask & kRuleBitDegreeOne) != 0;
  bool seeded2 = (mask & kRuleBitDegreeTwo) != 0;

  if ((!D1 || seeded1) && (!D2 || seeded2)) {
    bool cand1 = false, cand2 = false;
    if constexpr (D1 || D2) {
      const std::vector<std::int32_t>& deg = da.raw();
      for (Vertex v : da.dirty()) {
        const std::int32_t d = deg[static_cast<std::size_t>(v)];
        cand1 |= d == 1;
        cand2 |= d == 2;
      }
    }
    bool hd_dead = true;
    if constexpr (HD) {
      const std::int64_t budget = policy.budget(da.solution_size());
      hd_dead = budget == std::numeric_limits<std::int64_t>::max() ||
                budget < 0 || da.max_degree_bound() <= budget;
    }
    if ((!D1 || !cand1) && (!D2 || !cand2) && hd_dead) {
      stats.rounds = 1;
      da.clear_dirty();
      da.set_reduce_fixpoint_mask(kFixpointMask);
      return stats;
    }
  }

  da.suspend_dirty_cap();
  std::size_t cursor1 = 0, cursor2 = 0;
  bool list1 = false, list2 = false;
  if constexpr (D1 && D2) {
    if (!seeded1 && !seeded2) {
      const std::vector<std::int32_t>& deg = da.raw();
      ws.seed1.clear();
      ws.seed2.clear();
      const Vertex n = da.num_vertices();
      for (Vertex v = 0; v < n; ++v) {
        const std::int32_t d = deg[static_cast<std::size_t>(v)];
        if (d == 1) ws.seed1.push_back(v);
        else if (d == 2) ws.seed2.push_back(v);
      }
      cursor1 = cursor2 = da.dirty().size();
      list1 = list2 = true;
    }
  }

  const std::vector<Vertex>& log = da.dirty();
  std::int64_t round_removed;
  do {
    round_removed = 0;
    if constexpr (D1) {
      const SeedMode mode = list1 ? SeedMode::kList
                           : seeded1 ? SeedMode::kLog
                                     : SeedMode::kScan;
      if (mode != SeedMode::kLog || cursor1 < log.size()) {
        std::int64_t n;
        {
          util::ActivityScope scope(acc, util::Activity::kDegreeOneRule);
          n = run_rule_pass(
              da, ws, cursor1, mode, &ws.seed1, 1, kRuleBitDegreeOne,
              [&](Vertex v) -> std::int64_t {
                if (!da.present(v) || da.degree(v) != 1) return 0;
                Vertex u = unique_present_neighbor(g, da, nullptr, v);
                da.remove_into_solution(g, u);
                return 1;
              });
        }
        stats.degree_one_removed += n;
        round_removed += n;
      }
      seeded1 = true;
      list1 = false;
    }
    if constexpr (D2) {
      const SeedMode mode = list2 ? SeedMode::kList
                           : seeded2 ? SeedMode::kLog
                                     : SeedMode::kScan;
      if (mode != SeedMode::kLog || cursor2 < log.size()) {
        std::int64_t n;
        {
          util::ActivityScope scope(acc,
                                    util::Activity::kDegreeTwoTriangleRule);
          n = run_rule_pass(
              da, ws, cursor2, mode, &ws.seed2, 2, kRuleBitDegreeTwo,
              [&](Vertex v) -> std::int64_t {
                if (!da.present(v) || da.degree(v) != 2) return 0;
                Vertex a = -1, b = -1;
                if (!two_present_neighbors(g, da, nullptr, v, a, b)) return 0;
                if (!g.has_edge(a, b)) return 0;
                da.remove_into_solution(g, a);
                da.remove_into_solution(g, b);
                return 2;
              });
        }
        stats.degree_two_removed += n;
        round_removed += n;
      }
      seeded2 = true;
      list2 = false;
    }
    if constexpr (HD) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kHighDegreeRule);
        n = high_degree_incremental(g, da, policy);
      }
      stats.high_degree_removed += n;
      round_removed += n;
    }
    ++stats.rounds;
  } while (round_removed > 0);

  da.clear_dirty();
  da.restore_dirty_cap();
  da.set_reduce_fixpoint_mask(kFixpointMask);
  return stats;
}

/// Mask bits as in sweep_pass_for_mask: 1 = degree-one, 2 = degree-two,
/// 4 = high-degree.
ReduceStats incremental_pass_for_mask(std::uint8_t m, const CsrGraph& g,
                                      DegreeArray& da,
                                      const BudgetPolicy& policy,
                                      util::ActivityAccumulator* acc,
                                      ReduceWorkspace& ws) {
  switch (m & 7u) {
    case 0: return reduce_incremental_pass<false, false, false>(g, da, policy, acc, ws);
    case 1: return reduce_incremental_pass<true, false, false>(g, da, policy, acc, ws);
    case 2: return reduce_incremental_pass<false, true, false>(g, da, policy, acc, ws);
    case 3: return reduce_incremental_pass<true, true, false>(g, da, policy, acc, ws);
    case 4: return reduce_incremental_pass<false, false, true>(g, da, policy, acc, ws);
    case 5: return reduce_incremental_pass<true, false, true>(g, da, policy, acc, ws);
    case 6: return reduce_incremental_pass<false, true, true>(g, da, policy, acc, ws);
    default: return reduce_incremental_pass<true, true, true>(g, da, policy, acc, ws);
  }
}

/// Standalone incremental rule call: no prior fixpoint to lean on, so seed
/// with a full scan, run to fixpoint, and restore the array's tracking
/// state (a previously untracked array stays untracked; a tracked one keeps
/// the entries our removals appended — the owning engine treats them as
/// candidates, which is merely conservative).
template <typename RunRule>
std::int64_t standalone_incremental(DegreeArray& da, ReduceWorkspace* ws,
                                    RunRule&& run) {
  ReduceWorkspace local;
  ReduceWorkspace& w = ws ? *ws : local;
  const bool was_tracking = da.tracking();
  da.enable_tracking();
  // A latched overflow would silence the logging this rule's own cascade
  // feed depends on. Discard the (already incomplete) log and the fixpoint
  // mask, exactly as reduce_incremental does — the owning engine re-seeds.
  if (da.dirty_overflowed()) {
    da.clear_dirty();
    da.set_reduce_fixpoint_mask(0);
  }
  da.suspend_dirty_cap();
  std::size_t cursor = da.dirty().size();
  std::int64_t removed = run(w, cursor);
  if (!was_tracking)
    da.disable_tracking();
  else
    da.restore_dirty_cap();
  return removed;
}

}  // namespace

void ReduceStats::merge(const ReduceStats& o) {
  degree_one_removed += o.degree_one_removed;
  degree_two_removed += o.degree_two_removed;
  high_degree_removed += o.high_degree_removed;
  rounds += o.rounds;
}

std::int64_t apply_degree_one(const CsrGraph& g, DegreeArray& da,
                              ReduceSemantics semantics, ReduceWorkspace* ws) {
  switch (semantics) {
    case ReduceSemantics::kSerial:
      return degree_one_serial(g, da);
    case ReduceSemantics::kParallelSweep: {
      ReduceWorkspace local;
      return degree_one_sweep(g, da, ws ? ws->snapshot : local.snapshot);
    }
    case ReduceSemantics::kIncremental:
      return standalone_incremental(da, ws, [&](ReduceWorkspace& w,
                                                std::size_t& cursor) {
        return degree_one_incremental(g, da, w, cursor, /*seed_scan=*/true);
      });
  }
  GVC_CHECK(false);
  return 0;
}

std::int64_t apply_degree_two_triangle(const CsrGraph& g, DegreeArray& da,
                                       ReduceSemantics semantics,
                                       ReduceWorkspace* ws) {
  switch (semantics) {
    case ReduceSemantics::kSerial:
      return degree_two_serial(g, da);
    case ReduceSemantics::kParallelSweep: {
      ReduceWorkspace local;
      return degree_two_sweep(g, da, ws ? ws->snapshot : local.snapshot);
    }
    case ReduceSemantics::kIncremental:
      return standalone_incremental(da, ws, [&](ReduceWorkspace& w,
                                                std::size_t& cursor) {
        return degree_two_incremental(g, da, w, cursor, /*seed_scan=*/true);
      });
  }
  GVC_CHECK(false);
  return 0;
}

std::int64_t apply_high_degree(const CsrGraph& g, DegreeArray& da,
                               const BudgetPolicy& policy,
                               ReduceSemantics semantics, ReduceWorkspace* ws) {
  switch (semantics) {
    case ReduceSemantics::kSerial:
      return high_degree_serial(g, da, policy);
    case ReduceSemantics::kParallelSweep: {
      ReduceWorkspace local;
      return high_degree_sweep(g, da, policy, ws ? ws->snapshot : local.snapshot);
    }
    case ReduceSemantics::kIncremental:
      return high_degree_incremental(g, da, policy);
  }
  GVC_CHECK(false);
  return 0;
}

namespace {

// --- domination rule kernels ------------------------------------------------
//
// Three subset-check arms, one predicate: u dominates a present neighbor v
// iff every present w ∈ N(v), w ≠ u, is adjacent to u (graph-level
// adjacency — exactly what has_edge answers). The cheap deg(v) <= deg(u)
// filter is implied by the predicate among present vertices, so applying it
// in every arm changes nothing.

/// Generic arm: one O(log deg) binary search per member probe.
bool subset_binary(const CsrGraph& g, const DegreeArray& da, Vertex v,
                   Vertex u) {
  for (Vertex w : g.neighbors(v)) {
    if (w == u || !da.present(w)) continue;
    if (!g.has_edge(u, w)) return false;
  }
  return true;
}

/// Sparse arm: both adjacency lists are sorted ascending (a CSR invariant),
/// so one two-pointer merge answers every probe of the pair.
bool subset_merge(const CsrGraph& g, const DegreeArray& da, Vertex v,
                  Vertex u) {
  auto nu = g.neighbors(u);
  auto it = nu.begin();
  for (Vertex w : g.neighbors(v)) {
    if (w == u || !da.present(w)) continue;
    while (it != nu.end() && *it < w) ++it;
    if (it == nu.end() || *it != w) return false;
    ++it;
  }
  return true;
}

template <typename SubsetFn>
bool dominates_some_neighbor(const CsrGraph& g, const DegreeArray& da,
                             Vertex u, SubsetFn&& subset) {
  const std::int32_t du = da.degree(u);
  for (Vertex v : g.neighbors(u)) {
    if (!da.present(v)) continue;
    if (da.degree(v) > du) continue;  // cheap filter (implied by N[v] ⊆ N[u])
    if (subset(v, u)) return true;
  }
  return false;
}

bool dominates_binary(const CsrGraph& g, const DegreeArray& da, Vertex u) {
  return dominates_some_neighbor(g, da, u, [&](Vertex v, Vertex uu) {
    return subset_binary(g, da, v, uu);
  });
}

bool dominates_merge(const CsrGraph& g, const DegreeArray& da, Vertex u) {
  return dominates_some_neighbor(g, da, u, [&](Vertex v, Vertex uu) {
    return subset_merge(g, da, v, uu);
  });
}

/// Dense arm: scatter N(u) into a bitset row once, answer every probe of
/// every candidate pair with one branchless bit test, re-walk N(u) to
/// clear. The row holds graph-level adjacency (presence-independent), so a
/// probe matches has_edge exactly.
bool dominates_bitset(const CsrGraph& g, const DegreeArray& da, Vertex u,
                      std::vector<std::uint64_t>& bits) {
  const std::size_t words =
      (static_cast<std::size_t>(da.num_vertices()) + 63) / 64;
  if (bits.size() < words) bits.assign(words, 0);
  for (Vertex w : g.neighbors(u))
    bits[static_cast<std::size_t>(w) >> 6] |= std::uint64_t{1} << (w & 63);
  const bool hit = dominates_some_neighbor(g, da, u, [&](Vertex v, Vertex uu) {
    for (Vertex w : g.neighbors(v)) {
      if (w == uu || !da.present(w)) continue;
      if (!(bits[static_cast<std::size_t>(w) >> 6] >> (w & 63) & 1))
        return false;
    }
    return true;
  });
  for (Vertex w : g.neighbors(u))
    bits[static_cast<std::size_t>(w) >> 6] &= ~(std::uint64_t{1} << (w & 63));
  return hit;
}

/// The textbook engine: repeated ascending full scans until a scan changes
/// nothing (same body as the pre-dispatch apply_domination).
template <typename Dominates>
std::int64_t domination_serial_engine(const CsrGraph& g, DegreeArray& da,
                                      Dominates&& dominates) {
  std::int64_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex u = 0; u < da.num_vertices(); ++u) {
      if (!da.present(u) || da.degree(u) == 0) continue;
      if (!dominates(u)) continue;
      da.remove_into_solution(g, u);
      ++removed;
      changed = true;
    }
  }
  return removed;
}

/// Candidate-driven engine, bit-identical to the serial one by the same
/// pass-ordering construction as run_incremental_rule. The rule has no
/// exact trigger degree; instead, candidate completeness comes from the
/// predicate's locality: removing r changes "u dominates someone" only for
/// u with r ∈ N(u) (u is dirty — it lost a neighbor) or with some
/// v ∈ N(u) that lost r (that v is dirty, and u ∈ N(v)). So the feed per
/// dirty vertex x is {x} ∪ N(x), filtered to present vertices of degree
/// >= 1 (a degree-0 vertex has no neighbor to dominate — the serial scan
/// skips it too).
///
/// Happy path: the lineage's previous domination fixpoint is recorded in
/// the fixpoint mask (kRuleBitDomination) and the log captured every change
/// since — seed from the log alone, NO full scan. The bit is deliberately
/// revoked by the degree-1/2 engine (it overwrites the mask) because that
/// engine also clears the log the bit's promise depends on; conversely this
/// engine leaves the log intact (the degree rules' cursors still need it)
/// and ORs its bit in.
template <typename Dominates>
std::int64_t domination_incremental_engine(const CsrGraph& g, DegreeArray& da,
                                           ReduceWorkspace& ws,
                                           Dominates&& dominates) {
  const bool was_tracking = da.tracking();
  if (!was_tracking) da.enable_tracking();
  bool seed_from_log = was_tracking && !da.dirty_overflowed() &&
                       (da.reduce_fixpoint_mask() & kRuleBitDomination) != 0;
  if (da.dirty_overflowed()) {
    da.clear_dirty();
    da.set_reduce_fixpoint_mask(0);
    seed_from_log = false;
  }
  da.suspend_dirty_cap();

  const std::vector<Vertex>& log = da.dirty();
  const std::vector<std::int32_t>& deg = da.raw();
  auto& heap = ws.heap;
  auto& next = ws.next;
  auto& pending = ws.pending;
  heap.clear();
  next.clear();
  if (pending.size() < deg.size()) pending.assign(deg.size(), 0);
  const auto by_min = std::greater<Vertex>();
  auto push = [&](Vertex v) {
    heap.push_back(v);
    std::push_heap(heap.begin(), heap.end(), by_min);
  };
  auto enqueue_one = [&](Vertex w, Vertex pos) {
    const std::int32_t d = deg[static_cast<std::size_t>(w)];
    if (d == DegreeArray::kInSolution || d == 0) return;
    auto& mark = pending[static_cast<std::size_t>(w)];
    if (mark & kRuleBitDomination) return;
    mark |= kRuleBitDomination;
    if (w > pos)
      push(w);
    else
      next.push_back(w);
  };
  // One log entry x = "x's present neighborhood changed": feed x and every
  // vertex x neighbors. (If x has since been removed its neighbors were
  // re-dirtied by that removal, but feeding them from this entry too is
  // merely conservative.)
  auto enqueue_dirty = [&](Vertex x, Vertex pos) {
    enqueue_one(x, pos);
    for (Vertex y : g.neighbors(x)) enqueue_one(y, pos);
  };

  std::size_t cursor = 0;
  if (seed_from_log) {
    for (; cursor < log.size(); ++cursor) enqueue_dirty(log[cursor], -1);
  } else {
    cursor = log.size();
    const Vertex n = da.num_vertices();
    for (Vertex v = 0; v < n; ++v) {
      const std::int32_t d = deg[static_cast<std::size_t>(v)];
      if (d == DegreeArray::kInSolution || d == 0) continue;
      pending[static_cast<std::size_t>(v)] |= kRuleBitDomination;
      heap.push_back(v);  // ascending ids: already a valid min-heap
    }
  }

  std::int64_t removed = 0;
  for (;;) {
    if (heap.empty()) {
      if (next.empty()) break;
      for (Vertex v : next) push(v);
      next.clear();
    }
    std::pop_heap(heap.begin(), heap.end(), by_min);
    const Vertex v = heap.back();
    heap.pop_back();
    pending[static_cast<std::size_t>(v)] &=
        static_cast<std::uint8_t>(~kRuleBitDomination);
    if (!da.present(v) || da.degree(v) == 0 || !dominates(v)) continue;
    da.remove_into_solution(g, v);
    ++removed;
    for (; cursor < log.size(); ++cursor) enqueue_dirty(log[cursor], v);
  }

  if (!was_tracking) {
    da.disable_tracking();
  } else {
    da.restore_dirty_cap();
    da.set_reduce_fixpoint_mask(
        static_cast<std::uint8_t>(da.reduce_fixpoint_mask() |
                                  kRuleBitDomination));
  }
  return removed;
}

template <typename Dominates>
std::int64_t run_domination(const CsrGraph& g, DegreeArray& da,
                            ReduceWorkspace& ws, ReduceSemantics semantics,
                            Dominates&& dominates) {
  if (semantics == ReduceSemantics::kIncremental)
    return domination_incremental_engine(g, da, ws, dominates);
  // The rule has no sweep formulation; kParallelSweep maps to the serial
  // engine (documented in the header).
  return domination_serial_engine(g, da, dominates);
}

}  // namespace

std::int64_t apply_domination(const CsrGraph& g, DegreeArray& da,
                              ReduceSemantics semantics, ReduceWorkspace* ws,
                              KernelDispatch dispatch) {
  ReduceWorkspace local;
  ReduceWorkspace& w = ws ? *ws : local;
  if (dispatch == KernelDispatch::kAuto) {
    // Density class picks the subset-check kernel; all arms evaluate the
    // same predicate, so the choice is pure execution policy.
    const KernelTag tag = classify(g, da);
    if (tag.density == DensityClass::kDense)
      return run_domination(g, da, w, semantics, [&](Vertex u) {
        return dominates_bitset(g, da, u, w.adjacency_bits);
      });
    return run_domination(g, da, w, semantics, [&](Vertex u) {
      return dominates_merge(g, da, u);
    });
  }
  return run_domination(g, da, w, semantics, [&](Vertex u) {
    return dominates_binary(g, da, u);
  });
}

ReduceStats reduce(const CsrGraph& g, DegreeArray& da,
                   const BudgetPolicy& policy, ReduceSemantics semantics,
                   const RuleSet& rules, util::ActivityAccumulator* acc,
                   ReduceWorkspace* ws, KernelDispatch dispatch) {
  ReduceWorkspace local;
  ReduceWorkspace& w = ws ? *ws : local;

  // Sampled fixpoint span. The tag argument encodes the dispatch shape the
  // pass runs under (width | density<<2 | live_rules<<3); -1 before the
  // lineage's first classification (right after adoption).
  obs::TraceSpanSampled trace_span(
      obs::TraceCat::kReduce, "reduce", "tag",
      w.kernel_tag_valid
          ? static_cast<std::int64_t>(
                static_cast<unsigned>(w.kernel_tag.width) |
                (static_cast<unsigned>(w.kernel_tag.density) << 2) |
                (static_cast<unsigned>(w.kernel_tag.live_rules) << 3))
          : -1);

  if (dispatch == KernelDispatch::kAuto &&
      semantics != ReduceSemantics::kSerial) {
    // Classify at adoption, re-classify on the cheap invalidation signals:
    // adopt_node() cleared the flag when the block picked this lineage up,
    // and a dirty-log overflow invalidates the log-derived refinement. The
    // width class is monotone within a descent (kernel_dispatch.hpp), so
    // the cached tag stays sound everywhere else.
    if (!w.kernel_tag_valid || da.dirty_overflowed()) {
      w.kernel_tag = classify(g, da);
      w.kernel_tag_valid = true;
    }
    const std::uint8_t rule_mask = static_cast<std::uint8_t>(
        (rules.degree_one ? 1u : 0u) | (rules.degree_two_triangle ? 2u : 0u) |
        (rules.high_degree ? 4u : 0u));
    if (semantics == ReduceSemantics::kIncremental)
      return incremental_pass_for_mask(rule_mask, g, da, policy, acc, w);
    switch (w.kernel_tag.width) {
      case DegreeWidth::kU8:
        return sweep_pass_for_mask<std::uint8_t>(rule_mask, g, da, policy,
                                                 acc, w);
      case DegreeWidth::kU16:
        return sweep_pass_for_mask<std::uint16_t>(rule_mask, g, da, policy,
                                                  acc, w);
      case DegreeWidth::kU32:
        break;  // the generic loop below IS the u32 kernel
    }
  }

  if (semantics == ReduceSemantics::kIncremental)
    return reduce_incremental(g, da, policy, rules, acc, w);

  ReduceStats stats;
  std::int64_t round_removed;
  do {
    round_removed = 0;
    if (rules.degree_one) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kDegreeOneRule);
        n = apply_degree_one(g, da, semantics, &w);
      }
      stats.degree_one_removed += n;
      round_removed += n;
    }
    if (rules.degree_two_triangle) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kDegreeTwoTriangleRule);
        n = apply_degree_two_triangle(g, da, semantics, &w);
      }
      stats.degree_two_removed += n;
      round_removed += n;
    }
    if (rules.high_degree) {
      std::int64_t n;
      {
        util::ActivityScope scope(acc, util::Activity::kHighDegreeRule);
        n = apply_high_degree(g, da, policy, semantics, &w);
      }
      stats.high_degree_removed += n;
      round_removed += n;
    }
    ++stats.rounds;
  } while (round_removed > 0);
  return stats;
}

}  // namespace gvc::vc
