// Pilot PST queries: an exact best-first top-k descent of script-T keyed by
// each T-node's max pilot score, and max-score-pruned 3-sided reporting.
//
// TopK pops T-nodes in decreasing pmax order. Heap order of the pilot sets
// (every point below a node scores under its representative) makes the pops
// monotone, so once k in-range candidates are held and the frontier's best
// pmax is below the k-th held score, no unread point can enter the answer.
// A popped node is on one of the two boundary paths (O(lg n) nodes) or has
// a slab covered by [x1, x2]; a covered popped node whose parent is covered
// too sits under a parent whose whole pilot (>= B/2 points while anything
// lies below it) is in the answer, so pops are O(lg n + k/B) and so are the
// record and pilot-block reads (DESIGN.md §3.1).

#include <algorithm>
#include <limits>

#include "pilot/pilot_pst.h"

namespace tokra::pilot {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

StatusOr<std::vector<Point>> PilotPst::TopK(double x1, double x2,
                                            std::uint64_t k,
                                            QueryStats* stats) const {
  if (x1 > x2) return Status::InvalidArgument("x1 > x2");
  if (k == 0 || size() == 0) return std::vector<Point>{};
  QueryStats local;
  QueryStats& st = stats != nullptr ? *stats : local;

  // Frontier: a max-heap on pmax over indices into `nodes`.
  std::vector<std::pair<TRef, TNodeRec>> nodes;
  std::vector<std::size_t> frontier;
  auto lower_pmax = [&](std::size_t a, std::size_t b) {
    return nodes[a].second.pmax() < nodes[b].second.pmax();
  };
  // Candidates: in-range points read so far that may still rank in the top
  // k. cand[0, sorted) is score-descending; later points are unsorted
  // arrivals. `kth` is the exact k-th best as of the last merge (-inf until
  // k are held); a stale value is a valid, looser prune bound.
  std::vector<Point> cand;
  std::size_t sorted = 0;
  double kth = -kInf;
  // Sorts the arrivals into the prefix and keeps the best `keep`.
  auto merge = [&](std::size_t keep) {
    std::sort(cand.begin() + sorted, cand.end(), ByScoreDesc{});
    std::inplace_merge(cand.begin(), cand.begin() + sorted, cand.end(),
                       ByScoreDesc{});
    cand.resize(std::min(keep, cand.size()));
    sorted = cand.size();
  };

  auto offer = [&](const TRef& t) {
    TNodeRec rec = LoadTNode(t);
    ++st.nodes_visited;
    if (rec.hi_x() <= x1 || rec.lo_x() > x2) return;  // slab disjoint
    if (rec.pilot_count == 0) return;  // empty pilot => empty subtree
    if (rec.pmax() < kth) return;      // whole subtree below the k-th score
    nodes.emplace_back(t, rec);
    frontier.push_back(nodes.size() - 1);
    std::push_heap(frontier.begin(), frontier.end(), lower_pmax);
  };

  // Popped nodes whose pilots are not read yet. A pilot adds at most
  // pilot_count candidates, so while held + pending counts stay below k the
  // stop test cannot fire and the next pop is certain: those pilot blocks
  // go to the device as one batch, and no block is read that the one-by-one
  // descent would skip.
  std::vector<std::pair<TRef, TNodeRec>> pending;
  std::uint64_t pending_points = 0;
  auto read_pending = [&] {
    PrefetchPilots(pending);
    for (const auto& [t, rec] : pending) {
      ++st.pilots_read;
      for (const Point& p : PilotRead(rec)) {
        if (p.x >= x1 && p.x <= x2 && p.score > kth) {
          cand.push_back(p);
          ++st.candidates;
        }
      }
    }
    pending.clear();
    pending_points = 0;
  };

  offer(RootTRef());
  while (!frontier.empty()) {
    if (cand.size() >= k) {
      if (sorted < cand.size()) {
        merge(k);
        kth = cand[k - 1].score;
      }
      if (nodes[frontier.front()].second.pmax() < kth) break;
    }
    std::pop_heap(frontier.begin(), frontier.end(), lower_pmax);
    const std::size_t top = frontier.back();
    frontier.pop_back();
    const auto [t, rec] = nodes[top];
    if (rec.is_slab()) {
      TRef c = SlabChild(rec);
      if (c.valid()) offer(c);
    } else {
      offer(TRef{t.base, static_cast<TIndex>(rec.left)});
      offer(TRef{t.base, static_cast<TIndex>(rec.right)});
    }
    pending.emplace_back(t, rec);
    pending_points += rec.pilot_count;
    if (cand.size() + pending_points >= k) read_pending();
  }
  read_pending();
  merge(k);
  return cand;
}

Status PilotPst::Report3Sided(double x1, double x2, double y,
                              std::vector<Point>* out) const {
  if (x1 > x2) return Status::InvalidArgument("x1 > x2");
  if (size() == 0) return Status::Ok();
  // Breadth-first waves instead of a DFS stack: every node a wave will
  // report from is known before any pilot set is read, so each level's
  // pilot blocks go to the device as one batch (the reported set — and
  // thus the I/O count — is identical; only the emission order changes,
  // and every caller selects/sorts afterwards).
  std::vector<std::pair<TRef, TNodeRec>> live;
  std::vector<TRef> wave{RootTRef()}, next;
  while (!wave.empty()) {
    live.clear();
    for (const TRef& t : wave) {
      TNodeRec rec = LoadTNode(t);
      if (rec.hi_x() <= x1 || rec.lo_x() > x2) continue;  // slab disjoint
      if (rec.pilot_count == 0) continue;  // empty pilot => empty subtree
      if (rec.pmax() < y) continue;  // whole subtree below the threshold
      live.emplace_back(t, rec);
    }
    PrefetchPilots(live);
    next.clear();
    for (const auto& [t, rec] : live) {
      std::vector<Point> pts = PilotRead(rec);
      for (const Point& p : pts) {
        if (p.x >= x1 && p.x <= x2 && p.score >= y) out->push_back(p);
      }
      if (rec.is_slab()) {
        TRef c = SlabChild(rec);
        if (c.valid()) next.push_back(c);
      } else {
        next.push_back(TRef{t.base, static_cast<TIndex>(rec.left)});
        next.push_back(TRef{t.base, static_cast<TIndex>(rec.right)});
      }
    }
    wave.swap(next);
  }
  return Status::Ok();
}

}  // namespace tokra::pilot
