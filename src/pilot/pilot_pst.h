// The Lemma 1 structure: an external priority search tree with pilot sets
// on a weight-balanced base tree (Section 2 of the paper).
//
//   space O(n/B) blocks; top-k query O(lg n + k/B) I/Os (log base 2);
//   insertion/deletion O(lg_B n) I/Os amortized.
//
// The structure answers top-k queries *directly* (no approximate-selection
// reduction); Theorem 1 uses it for the k >= B lg n regime, where
// O(lg n + k/B) = O(k/B) is optimal.
//
// Key objects (paper -> here):
//   base tree T (WBB, leaf cap B, branching B)     -> base nodes, node.h
//   secondary binary tree T(u) / big tree script-T -> TNodeRec arrays
//   pilot(v), B/2 <= |pilot| <= 2B, representative -> pilot blocks + rec
//   representative blocks of u                     -> the TNodeRec array
//   Lemma 2 query (Q1/Q2/Q3 candidate pool,        -> exact best-first
//     heap selection of phi (lg n + k/B) reps)        descent of script-T
//                                                     by max pilot score
//   insertion/deletion tokens (Lemma 3)            -> per-record counters
//                                                     checked when
//                                                     TOKRA_PARANOID is on

#ifndef TOKRA_PILOT_PILOT_PST_H_
#define TOKRA_PILOT_PILOT_PST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "em/pager.h"
#include "pilot/node.h"
#include "util/point.h"
#include "util/status.h"

namespace tokra::pilot {

/// Per-query instrumentation for experiments E7/E10.
struct QueryStats {
  std::uint64_t nodes_visited = 0;  ///< T-node records loaded
  std::uint64_t pilots_read = 0;    ///< pilot sets read (nodes popped)
  std::uint64_t candidates = 0;     ///< in-range points kept as candidates
};

class PilotPst {
 public:
  struct Options {
    /// Base-tree branching parameter a (0 = derive max(4, B/16)).
    std::uint32_t branch = 0;
    /// Leaf capacity b (0 = derive B).
    std::uint32_t leaf_cap = 0;
  };

  /// Creates an empty structure.
  static PilotPst Create(em::Pager* pager, Options options);
  static PilotPst Create(em::Pager* pager) { return Create(pager, Options()); }

  /// Reopens from a persisted meta block.
  static PilotPst Open(em::Pager* pager, em::BlockId meta);

  /// Bulk-builds from arbitrary points (distinct x, distinct scores).
  /// O((n/B) lg n) I/Os.
  static PilotPst Build(em::Pager* pager, std::vector<Point> points,
                        Options options);
  static PilotPst Build(em::Pager* pager, std::vector<Point> points) {
    return Build(pager, std::move(points), Options());
  }

  em::BlockId meta_block() const { return meta_; }
  std::uint64_t size() const;  ///< live points

  /// Inserts p. O(lg_B n) I/Os amortized.
  Status Insert(const Point& p);

  /// Deletes p (x and score must both match the stored point).
  /// O(lg_B n) I/Os amortized.
  Status Delete(const Point& p);

  /// The k highest-scored points with x in [x1, x2], score-descending.
  /// Returns all of them if fewer than k. O(lg n + k/B) I/Os: a best-first
  /// descent of script-T by max pilot score that stops once k candidates
  /// are held and no unread subtree can beat the k-th (query.cc).
  StatusOr<std::vector<Point>> TopK(double x1, double x2, std::uint64_t k,
                                    QueryStats* stats = nullptr) const;

  /// Appends every point in [x1, x2] x [y, +inf). O(lg n + t/B) I/Os via
  /// max-score pruning: a visited covered node either reports its whole
  /// pilot set (>= B/2 points, charged to output) or terminates its branch.
  /// This serves as the Theorem 1 reduction's 3-sided reporting structure
  /// (substituting the Arge-Samoladas-Vitter PST; see DESIGN.md).
  Status Report3Sided(double x1, double x2, double y,
                      std::vector<Point>* out) const;

  /// Frees all blocks.
  void DestroyAll();

  /// Validates every structural invariant (weights, slab order, heap order
  /// of pilot sets, size rules, reachability of all live points). O(n).
  void CheckInvariants() const;

 private:
  PilotPst(em::Pager* pager, em::BlockId meta) : pager_(pager), meta_(meta) {}

  // ---- parameters ----
  std::uint32_t B() const { return pager_->B(); }
  std::uint64_t MetaGet(std::size_t w) const;
  void MetaSet(std::size_t w, std::uint64_t v);
  std::uint32_t branch() const;    // a
  std::uint32_t leaf_cap() const;  // b
  /// Pilot fill target / size floor and ceiling.
  std::uint32_t PilotTarget() const { return B(); }
  std::uint32_t PilotMin() const { return B() / 2; }
  std::uint32_t PilotMax() const { return 2 * B(); }
  /// Weight ceiling of a level-i node: b * a^i.
  std::uint64_t WeightCap(std::uint32_t level) const;

  // ---- record I/O ----
  std::vector<TNodeRec> LoadTNodes(em::BlockId base) const;
  TNodeRec LoadTNode(const TRef& t) const;
  void StoreTNode(const TRef& t, const TNodeRec& rec);
  std::vector<Point> PilotRead(const TNodeRec& rec) const;
  /// Batch-loads the occupied pilot blocks of every record into the pool as
  /// one device submission, so the PilotReads that follow hit the cache —
  /// this is what turns a query's k/B pilot-leaf reads into one round trip.
  /// Takes the (ref, record) pairs the query paths already hold.
  void PrefetchPilots(std::span<const std::pair<TRef, TNodeRec>> recs) const;
  /// Rewrites the pilot set of `t` and refreshes count/rep in its record.
  void PilotWrite(const TRef& t, TNodeRec* rec, const std::vector<Point>& pts);
  TRef RootTRef() const;
  /// Root T-node of the subtree hanging below slab record `rec`.
  TRef SlabChild(const TNodeRec& rec) const;

  // ---- construction ----
  em::BlockId NewLeaf(em::BlockId parent, std::uint64_t parent_slab,
                      const std::vector<double>& xs);
  em::BlockId NewInternal(em::BlockId parent, std::uint64_t parent_slab,
                          std::uint32_t level,
                          const std::vector<em::BlockId>& children,
                          const std::vector<double>& lo,
                          const std::vector<double>& hi,
                          const std::vector<std::uint64_t>& weights);
  /// Build, with a root tall enough to hold `room` keys (>= the points).
  static PilotPst BuildWithRoom(em::Pager* pager, std::vector<Point> points,
                                Options options, std::uint64_t room);
  /// Builds a balanced base subtree over sorted points; returns its root.
  /// Does not fill pilots.
  em::BlockId BuildSubtree(const std::vector<Point>& by_x, std::uint32_t level,
                           em::BlockId parent, std::uint64_t parent_slab,
                           double lo, double hi);
  /// Distributes points (sorted by score desc) into pilots from `t` down.
  void FillPilots(const TRef& t, std::vector<Point> by_score);
  void FreeSubtree(em::BlockId base);
  /// Collects all live points in the T-subtree rooted at `t`.
  void CollectPilots(const TRef& t, std::vector<Point>* out) const;

  // ---- updates ----
  void PushDown(TRef t, std::vector<Point> carry);
  /// Remedies an underflow at `t` per Section 2 (up to two pull-ups,
  /// recursively fixing children between them).
  void FixUnderflow(TRef t);
  /// One pull-up; returns true if it was draining.
  bool PullUp(const TRef& t, TNodeRec* rec);
  bool Underflows(const TNodeRec& rec, const TRef& t) const;
  /// Inserts x into the base leaf on the descent path; returns the path of
  /// base ids visited (root first) for rebalancing.
  void Rebalance(const std::vector<em::BlockId>& path);
  void RebuildSubtree(em::BlockId base);
  /// Rebuilds the whole tree over the live points, leaving the root room
  /// for half as many keys again: a root at exactly its weight cap would
  /// be overweight after one insert and rebuild again.
  void GlobalRebuild();

  // ---- validation ----
  void CheckBase(em::BlockId base, std::uint32_t expect_level, double lo,
                 double hi, std::uint64_t* weight, std::uint64_t* live) const;
  void CheckT(const TRef& t, double bound, double lo, double hi,
              std::uint64_t* live) const;

  em::Pager* pager_;
  em::BlockId meta_;
};

}  // namespace tokra::pilot

#endif  // TOKRA_PILOT_PILOT_PST_H_
