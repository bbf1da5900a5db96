// The Theorem 1 structure: dynamic top-k range reporting in external memory.
//
//   space O(n/B); query O(lg n + k/B) I/Os; updates O(lg_B n) amortized.
//
// TopkIndex is a thin wrapper over one Lemma 1 pilot PST, which answers
// every k by an exact best-first descent of script-T by max pilot score
// (pilot/query.cc). The paper's Section 1.2 composition — an approximate
// range k-selection (ST12 or Lemma 4) supplying a score threshold, then
// 3-sided reporting above it, then a final selection — cannot read fewer
// blocks here: with the pilot PST standing in for the ASV tree, the descent
// pops only nodes that Report3Sided visits for any threshold y <= s_k, the
// true k-th score (DESIGN.md §2). That composition is measured as the
// control leg of experiments E9 and E11; the selectors themselves live on
// in lemma4/ and st12/ with their own tests and benches (E2, E4-E6, E8).
//
// (The paper claims query O(lg_B n + k/B); the pilot PST costs
// O(lg n + k/B) — identical k/B term, base-2 instead of base-B logarithm in
// the additive term. The update bound is reproduced exactly. See DESIGN.md.)

#ifndef TOKRA_CORE_TOPK_INDEX_H_
#define TOKRA_CORE_TOPK_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "em/pager.h"
#include "pilot/pilot_pst.h"
#include "util/point.h"
#include "util/status.h"

namespace tokra::core {

/// Which component answered a query. Every query answers on kPilotDirect;
/// kLemma4Threshold is never reported and kept only so existing stats
/// consumers still compile.
enum class QueryPath {
  kPilotDirect,     ///< the Lemma 1 structure's best-first descent
  kLemma4Threshold  ///< never reported
};

struct TopkQueryStats {
  QueryPath path = QueryPath::kPilotDirect;  ///< always kPilotDirect
  std::uint32_t threshold_retries = 0;       ///< always 0
  std::uint64_t reported_candidates = 0;     ///< always 0
};

class TopkIndex {
 public:
  /// Builds the index over the initial point set (distinct x, distinct
  /// scores — the paper's standard assumption, enforced here).
  static StatusOr<std::unique_ptr<TopkIndex>> Build(em::Pager* pager,
                                                    std::vector<Point> points);

  /// Reopens the index recorded by the last Checkpoint() on `pager` (which
  /// must come from em::Pager::Open): no rebuild, O(1) I/Os.
  static StatusOr<std::unique_ptr<TopkIndex>> Open(em::Pager* pager);

  /// Persists the index through the pager's superblock: flushes every dirty
  /// block and records this index's meta block as root 0, followed by
  /// `extra_roots` (caller-defined words, e.g. shard metadata). After a
  /// restart, Open() on a reopened pager restores the exact structure.
  Status Checkpoint(std::span<const std::uint64_t> extra_roots = {});

  std::uint64_t size() const { return pilot_->size(); }

  /// Inserts p. O(lg_B n) I/Os amortized.
  Status Insert(const Point& p) { return pilot_->Insert(p); }

  /// Deletes p (x and score must match). O(lg_B n) I/Os amortized.
  Status Delete(const Point& p) { return pilot_->Delete(p); }

  /// The k highest-scored points with x in [x1, x2], score-descending; all
  /// of S ∩ [x1,x2] if it has fewer than k points. O(lg n + k/B) I/Os.
  StatusOr<std::vector<Point>> TopK(double x1, double x2, std::uint64_t k,
                                    TopkQueryStats* stats = nullptr) const;

  /// Frees every block.
  void DestroyAll();

  /// Validates the pilot PST. O(n).
  void CheckInvariants() const { pilot_->CheckInvariants(); }

 private:
  explicit TopkIndex(em::Pager* pager) : pager_(pager) {}

  /// (Re)writes the meta block linking the pilot PST.
  void WriteMeta();

  em::Pager* pager_;
  em::BlockId meta_ = em::kNullBlock;
  std::unique_ptr<pilot::PilotPst> pilot_;
};

}  // namespace tokra::core

#endif  // TOKRA_CORE_TOPK_INDEX_H_
