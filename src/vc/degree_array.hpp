#pragma once

// The degree-array representation of an intermediate graph (§IV-B).
//
// A search-tree node's state (G', S) is the immutable original CSR graph
// plus one array with an entry per original vertex: the vertex's current
// degree if it is still in the graph, or a sentinel if it has been removed
// and added to the solution S. Two maintained counters — |S| and |E(G')| —
// implement the paper's optimization of not re-reducing over the array for
// every stopping-condition check.
//
// The representation is:
//   * compact: O(|V|) per tree node, which is what lets thousands of stack
//     and worklist entries coexist in memory; and
//   * self-contained: any thread block holding the original CSR can resume
//     traversal from a degree array alone, which is what makes donating
//     branches to the global worklist possible.
//
// Two accelerations layered on top of the plain array:
//
//   * Max-degree cache. Degrees only ever decrease (every mutation removes
//     vertices), so the maximum degree is monotone non-increasing over a
//     node's lifetime and across copies. `max_bound_` is a maintained upper
//     bound on the current maximum, and `max_hint_` the smallest-id vertex
//     that achieved it at the last scan; while the hint still holds its
//     degree the branching query `max_degree_vertex()` is O(1), and every
//     full rescan both tightens the bound and re-arms the hint. The caches
//     never affect logical state: they are ignored by operator== and
//     validated (never trusted) by check_consistency().
//
//   * Dirty-vertex log. With tracking enabled, every degree decrement
//     appends the affected vertex to `dirty_`. The log is value state — it
//     is copied with the node through local stacks, the global worklist and
//     steal deques — which is what lets the incremental reduction engine
//     (vc/reductions.hpp, ReduceSemantics::kIncremental) seed its rule
//     worklists from exactly the vertices a branch decision touched instead
//     of rescanning all |V|. Tracking is off by default and costs nothing
//     when off; the paper-faithful solvers never enable it.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/csr.hpp"

namespace gvc::vc {

using graph::CsrGraph;
using graph::Vertex;

class UndoTrail;
class DegreeBuckets;

class DegreeArray {
 public:
  /// Sentinel degree marking "removed from G and added to S".
  static constexpr std::int32_t kInSolution = -1;

  DegreeArray() = default;

  /// Root state: every vertex present with its original degree, S = ∅.
  explicit DegreeArray(const CsrGraph& g);

  // Value semantics, with one deliberate exception: the undo-trail
  // attachment never travels with a copy or a move. A trail is private to
  // the block that owns the attached array; a node leaving that block — a
  // worklist donation, a steal, a stack slot — is a standalone snapshot.
  // Construction therefore starts detached, and assignment replaces the
  // VALUE while the destination keeps its own attachment (so a block's
  // working array can adopt a popped node without re-attaching). The
  // non-propagating TrailRef member below implements exactly that, which
  // lets every special member stay defaulted — a future field cannot be
  // forgotten in a hand-written copy.

  Vertex num_vertices() const { return static_cast<Vertex>(deg_.size()); }

  bool present(Vertex v) const {
    return deg_[static_cast<std::size_t>(v)] != kInSolution;
  }

  /// Current degree; must only be called on present vertices.
  std::int32_t degree(Vertex v) const { return deg_[static_cast<std::size_t>(v)]; }

  /// |S|: number of vertices removed into the solution.
  std::int32_t solution_size() const { return solution_size_; }

  /// |E(G')|: edges among present vertices (maintained incrementally).
  std::int64_t num_edges() const { return num_edges_; }

  /// Removes v from the graph and adds it to S. Decrements the degrees of
  /// its present neighbors. Requires present(v).
  void remove_into_solution(const CsrGraph& g, Vertex v);

  /// Removes every present neighbor of v into S (the "neighbors branch").
  /// Returns the number of vertices removed. Requires present(v); v itself
  /// stays in the graph and ends with degree 0.
  int remove_neighbors_into_solution(const CsrGraph& g, Vertex v);

  /// Present vertex of maximum degree, smallest id on ties (deterministic,
  /// matching a parallel max-reduction with index tie-breaking). Returns -1
  /// if no vertex is present. O(1) while the cached hint vertex still holds
  /// the cached maximum; one early-exiting scan (which re-arms the cache)
  /// otherwise.
  Vertex max_degree_vertex() const;

  /// Maximum current degree (0 if the graph is edgeless or empty). Exact;
  /// served from the cache on the same terms as max_degree_vertex().
  std::int32_t max_degree() const;

  /// Cheap upper bound on max_degree(): never smaller than the true value,
  /// tightened as a side effect of max_degree_vertex() scans. The
  /// incremental high-degree rule uses it as an O(1) "rule cannot apply"
  /// gate.
  std::int32_t max_degree_bound() const { return max_bound_; }

  // --- change tracking (feeds the incremental reduction engine) ----------

  /// Starts recording every vertex whose degree drops into the dirty log.
  void enable_tracking() {
    tracking_ = true;
    dirty_cap_ = dirty_capacity(num_vertices());
  }

  /// Stops recording and discards the log.
  void disable_tracking() {
    tracking_ = false;
    dirty_.clear();
    dirty_overflow_ = false;
    fixpoint_mask_ = 0;
  }

  bool tracking() const { return tracking_; }

  /// Vertices whose degree dropped since the last clear_dirty(), in
  /// mutation order, possibly with duplicates. Meaningful only while
  /// tracking is enabled and dirty_overflowed() is false.
  const std::vector<Vertex>& dirty() const { return dirty_; }

  /// True once more degrees changed than the log is willing to carry
  /// (max(64, |V|/8) entries — beyond that the change set is no longer
  /// "small" and a consumer is better off rescanning). The log contents are
  /// then incomplete: consumers must fall back to a full seed scan. The cap
  /// also bounds the log's contribution to per-node copy cost through the
  /// stacks and worklists.
  bool dirty_overflowed() const { return dirty_overflow_; }

  /// Appends v to the dirty log (no-op when tracking is off; latches
  /// overflow at the cap).
  void mark_dirty(Vertex v) {
    if (!tracking_) return;
    if (dirty_.size() >= dirty_cap_)
      dirty_overflow_ = true;
    else
      dirty_.push_back(v);
  }

  void clear_dirty() {
    dirty_.clear();
    dirty_overflow_ = false;
  }

  /// Engine hooks. While a reduction is running it drains the log after
  /// every application, so production never outpaces consumption and the
  /// cap is suspended; between reductions the (restored) cap bounds what a
  /// branch mutation may accumulate — and what every node copy carries.
  void suspend_dirty_cap() {
    dirty_cap_ = std::numeric_limits<std::size_t>::max();
  }
  void restore_dirty_cap() { dirty_cap_ = dirty_capacity(num_vertices()); }

  // --- undo trail (apply/undo branching, BranchStateMode::kUndoTrail) ----

  /// Attaches an undo trail: every subsequent degree mutation records the
  /// (vertex, old value) entry needed to reverse it. Pass nullptr to
  /// detach. The attachment is NOT value state: copies and moves of this
  /// array start detached (see the copy-semantics note above), and
  /// operator== ignores it.
  void attach_trail(UndoTrail* trail) { trail_.set(trail); }
  UndoTrail* trail() const { return trail_.get(); }

  /// Attaches a degree-buckets structure (MaxDegreeBackend::kBuckets):
  /// every subsequent degree mutation — including undo-trail rollbacks —
  /// keeps it in sync, and max_degree_vertex() answers from it. The caller
  /// must have build()-ed the buckets against this array's CURRENT state
  /// first. Pass nullptr to detach. Like the trail, the attachment is an
  /// acceleration, never value state: copies and moves start detached, and
  /// operator== ignores it.
  void attach_buckets(DegreeBuckets* buckets) { buckets_.set(buckets); }
  DegreeBuckets* buckets() const { return buckets_.get(); }

  /// Bitmask of candidate-driven rules whose fixpoint the last incremental
  /// reduction established on this lineage (and whose candidates the log
  /// has captured since). A rule whose bit is unset — never run, or
  /// disabled on the previous call — must re-seed with a full scan rather
  /// than trust the log. Maintained by the incremental engine; travels
  /// with copies like the rest of the tracking state.
  std::uint8_t reduce_fixpoint_mask() const { return fixpoint_mask_; }
  void set_reduce_fixpoint_mask(std::uint8_t mask) { fixpoint_mask_ = mask; }

  /// The solution set S (ascending vertex order).
  std::vector<Vertex> solution() const;

  /// Present vertices (ascending).
  std::vector<Vertex> present_vertices() const;

  /// Heap bytes held by the array's buffers (capacity, not size).
  std::size_t heap_bytes() const {
    return deg_.capacity() * sizeof(std::int32_t) +
           dirty_.capacity() * sizeof(Vertex);
  }

  /// Recomputes degrees / |S| / |E| from scratch against g and aborts on any
  /// divergence from the maintained values, including a max-degree cache
  /// bound below the true maximum. Test and debugging aid.
  void check_consistency(const CsrGraph& g) const;

  /// Logical-state equality: degrees and counters. The max-degree cache and
  /// the dirty log are accelerations, not state, and are ignored.
  bool operator==(const DegreeArray& other) const {
    return deg_ == other.deg_ && solution_size_ == other.solution_size_ &&
           num_edges_ == other.num_edges_;
  }

  const std::vector<std::int32_t>& raw() const { return deg_; }

 private:
  /// The trail reads and restores every private field on rollback.
  friend class UndoTrail;

  /// Non-propagating pointer to an attached acceleration (the undo trail,
  /// the optional degree buckets): copy/move CONSTRUCTION yields a detached
  /// member, copy/move ASSIGNMENT keeps the destination's attachment — the
  /// sharing rule in type form, so DegreeArray's special members can all be
  /// `= default`. (Historically named TrailRef; the buckets attachment
  /// follows the identical rule, hence the shared template.)
  template <typename T>
  class AccelRef {
   public:
    AccelRef() = default;
    AccelRef(const AccelRef&) {}
    AccelRef(AccelRef&&) noexcept {}
    AccelRef& operator=(const AccelRef&) { return *this; }
    AccelRef& operator=(AccelRef&&) noexcept { return *this; }

    void set(T* ptr) { ptr_ = ptr; }
    T* get() const { return ptr_; }

   private:
    T* ptr_ = nullptr;
  };
  using TrailRef = AccelRef<UndoTrail>;

  template <bool kTrack, bool kTrail, bool kBuckets>
  void decrement_neighbors(const CsrGraph& g, Vertex v);

  std::vector<std::int32_t> deg_;
  std::int32_t solution_size_ = 0;
  std::int64_t num_edges_ = 0;

  // Max-degree cache: bound_ is a monotone upper bound (degrees never
  // increase), hint_ the smallest-id vertex that last achieved it. Mutable
  // because queries tighten them; both are derived data, never trusted
  // beyond their invariants.
  mutable std::int32_t max_bound_ = 0;
  mutable Vertex max_hint_ = -1;

  static std::size_t dirty_capacity(Vertex n) {
    return std::max<std::size_t>(64, static_cast<std::size_t>(n) / 8);
  }

  bool tracking_ = false;
  bool dirty_overflow_ = false;
  std::uint8_t fixpoint_mask_ = 0;
  std::size_t dirty_cap_ = 0;
  std::vector<Vertex> dirty_;

  /// Not owned; never copied or moved with the value (see AccelRef).
  TrailRef trail_;
  AccelRef<DegreeBuckets> buckets_;
};

}  // namespace gvc::vc
