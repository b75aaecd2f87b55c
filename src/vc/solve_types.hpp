#pragma once

// Types shared by every solver implementation (Sequential, StackOnly,
// Hybrid): problem selection, limits, the external stop handle
// (SolveControl), the status taxonomy (Outcome), and the result record.
//
// Migration note (found/timed_out -> Outcome): SolveResult used to carry two
// booleans — `found` ("is there a cover in this record") and `timed_out` ("a
// limit fired before the search space was exhausted"). Those two bits could
// not express WHY a solve stopped (node budget? wall clock? an external
// deadline? a cancellation?) nor whether an interrupted record still holds a
// usable cover. They are replaced by a single `Outcome outcome` field plus
// the derived helpers:
//
//   old `r.found`      -> `r.has_cover()`   (a cover/witness is present)
//   old `!r.timed_out` -> `r.complete()`    (definitive answer, cacheable)
//   old `r.timed_out`  -> `r.limit_hit()`   (some limit/control stopped it)

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "util/timer.hpp"
#include "vc/reductions.hpp"

namespace gvc::vc {

/// The two problem formulations of §II-A.
enum class Problem {
  kMvc,  ///< minimum vertex cover
  kPvc,  ///< cover of size ≤ k, or report none exists
};

/// How the depth-first solvers carry search-tree state across a branch —
/// the ablation axis of bench/ablation_branch_state:
///
///   kCopy      — copy the whole degree array into each child (the paper's
///                self-contained-node design, §IV-B): O(|V|) memory traffic
///                per tree node, independent of how little the branch
///                changed.
///   kUndoTrail — keep ONE array per block, record every mutation on an
///                UndoTrail (vc/undo_trail.hpp), and roll back to the
///                branch watermark instead of restoring a copy: O(changed)
///                per node. Traversal order, covers and node counts are
///                BIT-IDENTICAL to kCopy — the randomized differential
///                suite enforces this — and nodes that leave the owning
///                block (worklist donations, steal advertisements) are
///                materialized as standalone snapshots.
///
/// GlobalOnly ignores the mode: the strawman hands both children to the
/// global worklist immediately, so there is no local descent to undo.
enum class BranchStateMode : std::uint8_t { kCopy, kUndoTrail };

const char* branch_state_mode_name(BranchStateMode m);

/// Parses "copy" / "undotrail" (case-insensitive, hyphens tolerated);
/// std::nullopt on unknown names — for tools that print usage instead of
/// aborting.
std::optional<BranchStateMode> try_parse_branch_state_mode(
    const std::string& name);

/// All modes, kCopy first (handy for sweeps).
const std::vector<BranchStateMode>& all_branch_state_modes();

/// Per-solve budgets, relative to the start of the search. A zero value
/// means "unlimited". Carried by SolveControl; solvers without a control
/// run unlimited.
struct Limits {
  std::uint64_t max_tree_nodes = 0;
  double time_limit_s = 0.0;
};

/// How a solve ended — the status taxonomy replacing the old
/// `found`/`timed_out` pair. Exactly one value per result:
///
///   kOptimal    — the definitive answer. MVC: the proven-minimum cover.
///                 PVC: a cover of size ≤ k (the decision answer is "yes",
///                 even if a limit latched after the witness was found).
///   kFeasible   — MVC only: an internal budget (node or time limit) fired
///                 before the proof finished; the record still carries a
///                 valid cover (the best one seen), just not proven minimum.
///   kInfeasible — PVC only: the search space was exhausted and no cover of
///                 size ≤ k exists (the definitive "no").
///   kNodeLimit  — PVC interrupted by the node budget with no witness; the
///   kTimeLimit    decision is unresolved. (MVC maps these to kFeasible —
///                 an MVC record always holds a valid cover.)
///   kDeadline   — the SolveControl's absolute deadline passed mid-solve.
///   kCancelled  — SolveControl::cancel() was observed mid-solve.
///
/// External controls (deadline, cancel) report their own cause for both
/// problems — a service must count them — while internal budgets on MVC
/// collapse to kFeasible because the cover in hand is the useful fact.
enum class Outcome : std::uint8_t {
  kOptimal,
  kFeasible,
  kInfeasible,
  kNodeLimit,
  kTimeLimit,
  kDeadline,
  kCancelled,
};

/// Definitive answers: the search space was exhausted (or the PVC witness
/// found). Complete records are canonical — independent of limits, load and
/// scheduling — and are the only ones a ResultCache admits.
constexpr bool is_complete(Outcome o) {
  return o == Outcome::kOptimal || o == Outcome::kInfeasible;
}

/// A limit or external control stopped the search early. Complement of
/// is_complete(): limit records reflect best knowledge at interruption.
constexpr bool is_limit(Outcome o) { return !is_complete(o); }

/// Stable lowercase names for tables and logs ("optimal", "feasible", ...).
const char* to_string(Outcome o);

/// Why a search stopped before exhausting its space. kNone = it didn't.
/// SharedSearch latches the first cause; the Outcome is derived from it.
enum class StopCause : std::uint8_t {
  kNone,
  kNodeLimit,
  kTimeLimit,
  kDeadline,
  kCancelled,
};

/// Maps an interruption cause to the reported Outcome. `have_cover` is true
/// when the interrupted record still carries a valid cover (always true for
/// MVC, where greedy seeds the incumbent): internal budgets then collapse to
/// kFeasible; external controls keep their own cause.
constexpr Outcome interrupted_outcome(StopCause cause, bool have_cover) {
  switch (cause) {
    case StopCause::kCancelled: return Outcome::kCancelled;
    case StopCause::kDeadline:  return Outcome::kDeadline;
    case StopCause::kNodeLimit:
      return have_cover ? Outcome::kFeasible : Outcome::kNodeLimit;
    case StopCause::kTimeLimit:
      return have_cover ? Outcome::kFeasible : Outcome::kTimeLimit;
    case StopCause::kNone: break;
  }
  return Outcome::kOptimal;  // unreachable for a real interruption
}

/// Externally-owned stop handle for one solve. Bundles everything that can
/// end a search before exhaustion — the node/time budgets, an absolute
/// deadline, and a cancellation latch — plus an optional progress snapshot
/// the owner can poll while the solve runs.
///
/// Ownership: the caller owns the control and keeps it alive for the whole
/// solve; any thread may call cancel()/set_deadline()/progress() while the
/// solve runs (all cross-thread state is atomic). One control drives one
/// solve at a time — the limits are interpreted relative to the solve that
/// consumes it. With no control (nullptr), solvers run unlimited and
/// uncancellable, and behave bit-identically to a control that never fires.
class SolveControl {
 public:
  SolveControl() = default;
  explicit SolveControl(Limits limits) : limits(limits) {}

  SolveControl(const SolveControl&) = delete;
  SolveControl& operator=(const SolveControl&) = delete;

  /// Node/time budgets, relative to solve start. Set before the solve; the
  /// consuming solver reads them once at launch.
  Limits limits;

  /// Requests the solve stop as soon as possible with Outcome::kCancelled.
  /// Idempotent; safe from any thread. A solve observes it within a few
  /// tree nodes (the same cadence as the abort latch).
  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Absolute deadline in seconds on the now_s() clock; 0 clears it. Unlike
  /// Limits::time_limit_s (relative to solve start) a deadline set before
  /// the solve starts burns queueing time too — that is the point: a
  /// service propagates a job's admission deadline into the running solve.
  void set_deadline(double abs_seconds) {
    deadline_s_.store(abs_seconds, std::memory_order_release);
  }
  double deadline_s() const {
    return deadline_s_.load(std::memory_order_acquire);
  }
  bool deadline_passed() const {
    const double d = deadline_s_.load(std::memory_order_acquire);
    return d > 0.0 && now_s() > d;
  }

  /// The deadline clock: monotonic seconds, shared with the service layer
  /// (service_now_s() is this function).
  static double now_s() {
    return static_cast<double>(util::now_ns()) * 1e-9;
  }

  /// First external stop cause in precedence order (cancel beats deadline),
  /// kNone when neither fired. The cancel check is one atomic load; the
  /// deadline check reads the clock only when a deadline is set.
  StopCause external_stop() const {
    if (cancelled()) return StopCause::kCancelled;
    if (deadline_passed()) return StopCause::kDeadline;
    return StopCause::kNone;
  }

  /// Best-so-far snapshot a monitoring thread can poll during the solve.
  /// Publication is off by default (solvers skip the stores entirely);
  /// enable before the solve starts.
  struct Progress {
    int best_size = -1;            ///< current incumbent cover size
    std::uint64_t tree_nodes = 0;  ///< nodes visited so far
  };

  void enable_progress(bool on = true) {
    want_progress_.store(on, std::memory_order_release);
  }
  bool progress_enabled() const {
    return want_progress_.load(std::memory_order_acquire);
  }

  /// Solver side: periodic publication (amortized — batch flushes and
  /// incumbent improvements, not every node).
  void publish_progress(int best_size, std::uint64_t tree_nodes) {
    progress_best_.store(best_size, std::memory_order_relaxed);
    progress_nodes_.store(tree_nodes, std::memory_order_relaxed);
  }

  Progress progress() const {
    Progress p;
    p.best_size = progress_best_.load(std::memory_order_relaxed);
    p.tree_nodes = progress_nodes_.load(std::memory_order_relaxed);
    return p;
  }

  /// Per-node Fig. 6 accounting in the parallel solvers: off by default,
  /// because every per-node scope then costs two thread-CPU clock reads.
  /// Off, a launch still records each block's cpu_ns and the once-per-
  /// adoption worklist/termination timers, with the rest booked as
  /// util::Activity::kUntimed. Enable before the solve starts; the solver
  /// reads it once at launch. Trees and results are identical either way.
  void enable_activity_profile(bool on = true) {
    want_activity_profile_.store(on, std::memory_order_release);
  }
  bool activity_profile_enabled() const {
    return want_activity_profile_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<double> deadline_s_{0.0};
  std::atomic<bool> want_progress_{false};
  std::atomic<bool> want_activity_profile_{false};
  std::atomic<int> progress_best_{-1};
  std::atomic<std::uint64_t> progress_nodes_{0};
};

struct SolveResult {
  /// How the search ended; see the Outcome taxonomy above.
  Outcome outcome = Outcome::kOptimal;

  /// MVC: the minimum (kOptimal) or best-known (limit outcomes) cover size.
  /// PVC: size of the found cover, or -1 when no witness is in hand.
  int best_size = -1;

  /// A concrete cover achieving best_size (empty when best_size is -1).
  std::vector<Vertex> cover;

  /// Search-tree nodes visited (the unit of Fig. 5's load measurements).
  std::uint64_t tree_nodes = 0;

  /// Wall-clock seconds of the search (excludes graph construction).
  double seconds = 0.0;

  /// The greedy upper bound computed before the search (§II-B); for MVC it
  /// seeds `best`, for both it bounds the local stack depth.
  int greedy_upper_bound = 0;

  /// A cover/witness is present in this record (old `found`).
  bool has_cover() const { return best_size >= 0; }

  /// The answer is definitive (old `!timed_out`).
  bool complete() const { return is_complete(outcome); }

  /// A limit or control fired before the search space was exhausted (old
  /// `timed_out`); the other fields reflect best knowledge at interruption.
  bool limit_hit() const { return is_limit(outcome); }
};

/// Verifies that r.cover is a vertex cover of g of size r.best_size.
/// Aborts on violation; returns r for chaining.
const SolveResult& check_result(const CsrGraph& g, const SolveResult& r);

}  // namespace gvc::vc
