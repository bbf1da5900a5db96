// Construction, rebalancing (Section 2 "Rebalancing"), and validation of the
// pilot PST.

#include <algorithm>
#include <limits>

#include "em/paged_array.h"
#include "pilot/pilot_pst.h"
#include "util/bits.h"
#include "util/check.h"

namespace tokra::pilot {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ChildSpec {
  em::BlockId id;
  double lo, hi;
  std::uint64_t weight;
};

}  // namespace

// --- node constructors ------------------------------------------------

em::BlockId PilotPst::NewLeaf(em::BlockId parent, std::uint64_t parent_slab,
                              const std::vector<double>& xs) {
  std::uint32_t b = leaf_cap();
  std::uint32_t nx = static_cast<std::uint32_t>(
      em::PagedArray<double>::BlocksFor(B(), b + 2));
  TOKRA_CHECK(kHLeafXIds + nx <= B());
  em::BlockId id = pager_->Allocate();
  em::PageRef h = pager_->Create(id);
  h.Set(kHKind, 1);
  h.Set(kHLevel, 0);
  h.Set(kHWeight, xs.size());
  h.Set(kHParent, parent);
  h.Set(kHParentSlab, parent_slab);
  h.Set(kHLeafM, xs.size());
  h.Set(kHLeafNX, nx);
  std::vector<em::BlockId> xb(nx);
  for (std::uint32_t i = 0; i < nx; ++i) {
    xb[i] = pager_->Allocate();
    h.Set(kHLeafXIds + i, xb[i]);
    em::PageRef zero = pager_->Create(xb[i]);
  }
  h = em::PageRef();
  if (!xs.empty()) {
    em::PagedArray<double> arr(pager_, xb);
    arr.WriteRange(0, xs);
  }
  return id;
}

em::BlockId PilotPst::NewInternal(em::BlockId parent,
                                  std::uint64_t parent_slab,
                                  std::uint32_t level,
                                  const std::vector<em::BlockId>& children,
                                  const std::vector<double>& lo,
                                  const std::vector<double>& hi,
                                  const std::vector<std::uint64_t>& weights) {
  std::uint32_t f = static_cast<std::uint32_t>(children.size());
  TOKRA_CHECK(f >= 1);
  std::uint32_t cap = 4 * branch() + 4;
  TOKRA_CHECK(2 * f - 1 <= cap);
  std::uint32_t ntb = static_cast<std::uint32_t>(
      em::PagedArray<TNodeRec>::BlocksFor(B(), cap));
  TOKRA_CHECK(kHIntTIds + ntb <= B());

  em::BlockId id = pager_->Allocate();
  std::vector<em::BlockId> tb(ntb);
  {
    em::PageRef h = pager_->Create(id);
    h.Set(kHKind, 0);
    h.Set(kHLevel, level);
    std::uint64_t w = 0;
    for (std::uint64_t cw : weights) w += cw;
    h.Set(kHWeight, w);
    h.Set(kHParent, parent);
    h.Set(kHParentSlab, parent_slab);
    h.Set(kHIntF, f);
    h.Set(kHIntNT, 2 * f - 1);
    h.Set(kHIntCap, cap);
    h.Set(kHIntNTB, ntb);
    for (std::uint32_t i = 0; i < ntb; ++i) {
      tb[i] = pager_->Allocate();
      h.Set(kHIntTIds + i, tb[i]);
      em::PageRef zero = pager_->Create(tb[i]);
    }
  }

  // Build the secondary binary tree T(u): slab records at [0, f), internal
  // records appended after; balanced by midpoint splits.
  std::vector<TNodeRec> recs(2 * f - 1);
  for (std::uint32_t i = 0; i < f; ++i) {
    recs[i].base_child = children[i];
    recs[i].set_lo_x(lo[i]);
    recs[i].set_hi_x(hi[i]);
  }
  std::uint32_t next = f;
  // Recursive lambda: builds over child range [i, j), returns tnode index.
  auto build = [&](auto&& self, std::uint32_t i, std::uint32_t j) -> TIndex {
    if (j - i == 1) return i;
    std::uint32_t mid = (i + j + 1) / 2;
    TIndex l = self(self, i, mid);
    TIndex r = self(self, mid, j);
    TIndex me = next++;
    recs[me].left = l;
    recs[me].right = r;
    recs[me].set_lo_x(recs[l].lo_x());
    recs[me].set_hi_x(recs[r].hi_x());
    recs[l].parent = me;
    recs[r].parent = me;
    return me;
  };
  TIndex root = build(build, 0, f);
  TOKRA_CHECK(next == 2 * f - 1);
  // Pilot block allocation for every T-node.
  for (TNodeRec& r : recs) {
    for (std::uint32_t i = 0; i < kPilotBlocks; ++i) {
      r.pilot_blocks[i] = pager_->Allocate();
      em::PageRef zero = pager_->Create(r.pilot_blocks[i]);
    }
  }
  {
    em::PageRef h = pager_->Fetch(id);
    h.Set(kHIntRoot, root);
  }
  em::PagedArray<TNodeRec> arr(pager_, tb);
  arr.WriteRange(0, recs);
  // Fix children's parent pointers.
  for (std::uint32_t i = 0; i < f; ++i) {
    em::PageRef ch = pager_->Fetch(children[i]);
    ch.Set(kHParent, id);
    ch.Set(kHParentSlab, i);
  }
  return id;
}

em::BlockId PilotPst::BuildSubtree(const std::vector<Point>& xs_as_points,
                                   std::uint32_t level, em::BlockId parent,
                                   std::uint64_t parent_slab, double lo,
                                   double hi) {
  // xs_as_points carries only x values (score ignored), sorted ascending.
  if (level == 0) {
    std::vector<double> xs;
    xs.reserve(xs_as_points.size());
    for (const Point& p : xs_as_points) xs.push_back(p.x);
    return NewLeaf(parent, parent_slab, xs);
  }
  std::uint64_t child_target = std::max<std::uint64_t>(1, WeightCap(level - 1) / 2);
  std::size_t n = xs_as_points.size();
  std::size_t f = std::max<std::size_t>(1, CeilDiv(n, child_target));
  f = std::min<std::size_t>(f, 2 * branch() + 1);
  std::vector<em::BlockId> kids;
  std::vector<double> klo, khi;
  std::vector<std::uint64_t> kw;
  std::size_t pos = 0;
  for (std::size_t c = 0; c < f; ++c) {
    std::size_t remaining = n - pos;
    std::size_t chunks_left = f - c;
    std::size_t take = CeilDiv(remaining, chunks_left);
    double clo = (c == 0) ? lo : xs_as_points[pos].x;
    double chi = (c == f - 1) ? hi : xs_as_points[pos + take].x;
    std::vector<Point> chunk(xs_as_points.begin() + pos,
                             xs_as_points.begin() + pos + take);
    // Children are wired to the parent after NewInternal; pass placeholders.
    em::BlockId kid = BuildSubtree(chunk, level - 1, em::kNullBlock, 0, clo,
                                   chi);
    kids.push_back(kid);
    klo.push_back(clo);
    khi.push_back(chi);
    kw.push_back(take);
    pos += take;
  }
  return NewInternal(parent, parent_slab, level, kids, klo, khi, kw);
}

void PilotPst::FillPilots(const TRef& t, std::vector<Point> by_score) {
  if (by_score.empty()) return;
  TNodeRec rec = LoadTNode(t);
  std::size_t take = std::min<std::size_t>(PilotTarget(), by_score.size());
  std::vector<Point> mine(by_score.begin(), by_score.begin() + take);
  PilotWrite(t, &rec, mine);
  if (take == by_score.size()) return;
  std::vector<Point> rest(by_score.begin() + take, by_score.end());
  if (rec.is_slab()) {
    TRef c = SlabChild(rec);
    TOKRA_CHECK(c.valid());  // leaf slabs absorb everything (<= B points)
    FillPilots(c, std::move(rest));
    return;
  }
  TRef lt{t.base, static_cast<TIndex>(rec.left)};
  TRef rt{t.base, static_cast<TIndex>(rec.right)};
  TNodeRec lrec = LoadTNode(lt);
  std::vector<Point> lpts, rpts;
  for (const Point& p : rest) {
    (p.x < lrec.hi_x() ? lpts : rpts).push_back(p);
  }
  FillPilots(lt, std::move(lpts));
  FillPilots(rt, std::move(rpts));
}

void PilotPst::CollectPilots(const TRef& t, std::vector<Point>* out) const {
  TNodeRec rec = LoadTNode(t);
  std::vector<Point> pts = PilotRead(rec);
  out->insert(out->end(), pts.begin(), pts.end());
  if (rec.is_slab()) {
    TRef c = SlabChild(rec);
    if (c.valid()) CollectPilots(c, out);
    return;
  }
  CollectPilots(TRef{t.base, static_cast<TIndex>(rec.left)}, out);
  CollectPilots(TRef{t.base, static_cast<TIndex>(rec.right)}, out);
}

void PilotPst::FreeSubtree(em::BlockId base) {
  em::PageRef h = pager_->Fetch(base);
  if (h.Get(kHKind) == 1) {
    std::uint32_t nx = static_cast<std::uint32_t>(h.Get(kHLeafNX));
    std::vector<em::BlockId> xb(nx);
    for (std::uint32_t i = 0; i < nx; ++i) xb[i] = h.Get(kHLeafXIds + i);
    h = em::PageRef();
    for (em::BlockId b : xb) pager_->Free(b);
    pager_->Free(base);
    return;
  }
  std::uint32_t ntb = static_cast<std::uint32_t>(h.Get(kHIntNTB));
  std::vector<em::BlockId> tb(ntb);
  for (std::uint32_t i = 0; i < ntb; ++i) tb[i] = h.Get(kHIntTIds + i);
  h = em::PageRef();
  std::vector<TNodeRec> recs;
  {
    em::PagedArray<TNodeRec> arr(pager_, tb);
    std::uint32_t n = 0;
    {
      em::PageRef hh = pager_->Fetch(base);
      n = static_cast<std::uint32_t>(hh.Get(kHIntNT));
    }
    arr.ReadRange(0, n, &recs);
  }
  for (const TNodeRec& r : recs) {
    for (std::uint32_t i = 0; i < kPilotBlocks; ++i) {
      pager_->Free(r.pilot_blocks[i]);
    }
    if (r.is_slab()) FreeSubtree(r.base_child);
  }
  for (em::BlockId b : tb) pager_->Free(b);
  pager_->Free(base);
}

// --- public construction ----------------------------------------------

PilotPst PilotPst::Create(em::Pager* pager, Options options) {
  return Build(pager, {}, options);
}

PilotPst PilotPst::Open(em::Pager* pager, em::BlockId meta) {
  return PilotPst(pager, meta);
}

PilotPst PilotPst::Build(em::Pager* pager, std::vector<Point> points,
                         Options options) {
  const std::uint64_t n = points.size();
  return BuildWithRoom(pager, std::move(points), options, n);
}

PilotPst PilotPst::BuildWithRoom(em::Pager* pager, std::vector<Point> points,
                                 Options options, std::uint64_t room) {
  TOKRA_CHECK(pager->B() >= 32);
  std::uint32_t a = options.branch != 0 ? options.branch
                                        : std::max<std::uint32_t>(4, pager->B() / 16);
  std::uint32_t b = options.leaf_cap != 0 ? options.leaf_cap : pager->B();

  em::BlockId meta = pager->Allocate();
  {
    em::PageRef mp = pager->Create(meta);
    mp.Set(kMBranch, a);
    mp.Set(kMLeafCap, b);
  }
  PilotPst pst(pager, meta);

  // Height: smallest h >= 1 with b * a^h >= room.
  std::uint64_t n = points.size();
  std::uint32_t h = 1;
  {
    std::uint64_t cap = static_cast<std::uint64_t>(b) * a;
    while (cap < room) {
      cap *= a;
      ++h;
    }
  }
  std::sort(points.begin(), points.end(), ByXAsc{});
  em::BlockId root = pst.BuildSubtree(points, h, em::kNullBlock, 0, -kInf,
                                      kInf);
  {
    em::PageRef mp = pager->Fetch(meta);
    mp.Set(kMRoot, root);
    mp.Set(kMLive, n);
    mp.Set(kMKeys, n);
    mp.Set(kMHeight, h);
  }
  std::sort(points.begin(), points.end(), ByScoreDesc{});
  pst.FillPilots(pst.RootTRef(), std::move(points));
  return pst;
}

void PilotPst::DestroyAll() {
  FreeSubtree(MetaGet(kMRoot));
  pager_->Free(meta_);
  meta_ = em::kNullBlock;
}

// --- rebalancing ----------------------------------------------------

void PilotPst::Rebalance(const std::vector<em::BlockId>& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    std::uint64_t w, level;
    {
      em::PageRef h = pager_->Fetch(path[i]);
      w = h.Get(kHWeight);
      level = h.Get(kHLevel);
    }
    if (w > WeightCap(static_cast<std::uint32_t>(level))) {
      // A subtree rebuild copies the dead keys below it into fresh nodes,
      // each with its own pilot blocks. Once dead keys are a third of all
      // keys, rebuild the whole tree over the live points instead, so the
      // space stays O(live / B) and does not swell toward the 2x rule in
      // Delete (at least live / 3 deletions pay for it).
      const std::uint64_t keys = MetaGet(kMKeys);
      const std::uint64_t live = MetaGet(kMLive);
      if (i == 0 || 2 * keys >= 3 * live) {
        GlobalRebuild();
      } else {
        RebuildSubtree(path[i - 1]);
      }
      return;
    }
  }
}

void PilotPst::RebuildSubtree(em::BlockId base) {
  std::uint64_t level, parent, parent_slab;
  std::uint32_t f;
  std::vector<em::BlockId> tb;
  {
    em::PageRef h = pager_->Fetch(base);
    TOKRA_CHECK(h.Get(kHKind) == 0);
    level = h.Get(kHLevel);
    parent = h.Get(kHParent);
    parent_slab = h.Get(kHParentSlab);
    f = static_cast<std::uint32_t>(h.Get(kHIntF));
    std::uint32_t ntb = static_cast<std::uint32_t>(h.Get(kHIntNTB));
    tb.resize(ntb);
    for (std::uint32_t i = 0; i < ntb; ++i) tb[i] = h.Get(kHIntTIds + i);
  }
  // Slab bounds of the subtree (from the root T-node record).
  TRef root_t{base, 0};
  {
    em::PageRef h = pager_->Fetch(base);
    root_t.idx = static_cast<TIndex>(h.Get(kHIntRoot));
  }
  TNodeRec root_rec = LoadTNode(root_t);
  double lo = root_rec.lo_x(), hi = root_rec.hi_x();

  // Live points (from pilot sets) and x keys (live + dead, from leaves).
  std::vector<Point> live;
  CollectPilots(root_t, &live);
  std::vector<Point> xs;
  {
    // DFS for leaf x keys.
    std::vector<em::BlockId> stack{base};
    while (!stack.empty()) {
      em::BlockId cur = stack.back();
      stack.pop_back();
      em::PageRef h = pager_->Fetch(cur);
      if (h.Get(kHKind) == 1) {
        std::uint32_t m = static_cast<std::uint32_t>(h.Get(kHLeafM));
        std::uint32_t nx = static_cast<std::uint32_t>(h.Get(kHLeafNX));
        std::vector<em::BlockId> xb(nx);
        for (std::uint32_t i = 0; i < nx; ++i) xb[i] = h.Get(kHLeafXIds + i);
        h = em::PageRef();
        em::PagedArray<double> arr(pager_, xb);
        std::vector<double> vals;
        arr.ReadRange(0, m, &vals);
        for (double x : vals) xs.push_back(Point{x, 0});
        continue;
      }
      std::uint32_t nt = static_cast<std::uint32_t>(h.Get(kHIntNT));
      std::uint32_t ntb2 = static_cast<std::uint32_t>(h.Get(kHIntNTB));
      std::vector<em::BlockId> tb2(ntb2);
      for (std::uint32_t i = 0; i < ntb2; ++i) tb2[i] = h.Get(kHIntTIds + i);
      h = em::PageRef();
      em::PagedArray<TNodeRec> arr(pager_, tb2);
      std::vector<TNodeRec> recs;
      arr.ReadRange(0, nt, &recs);
      for (const TNodeRec& r : recs) {
        if (r.is_slab()) stack.push_back(r.base_child);
      }
    }
  }

  // Free the old subtree (children subtrees + this node's T machinery), but
  // keep `base`'s header block so the parent's slab pointer stays valid.
  {
    std::vector<TNodeRec> recs;
    em::PagedArray<TNodeRec> arr(pager_, tb);
    std::uint32_t nt;
    {
      em::PageRef h = pager_->Fetch(base);
      nt = static_cast<std::uint32_t>(h.Get(kHIntNT));
    }
    arr.ReadRange(0, nt, &recs);
    for (const TNodeRec& r : recs) {
      for (std::uint32_t i = 0; i < kPilotBlocks; ++i) {
        pager_->Free(r.pilot_blocks[i]);
      }
      if (r.is_slab()) FreeSubtree(r.base_child);
    }
    for (em::BlockId bl : tb) pager_->Free(bl);
  }
  (void)f;

  // Rebuild: fresh children over the x keys, a fresh T(u), refilled pilots.
  std::sort(xs.begin(), xs.end(), ByXAsc{});
  std::uint64_t child_target =
      std::max<std::uint64_t>(1, WeightCap(static_cast<std::uint32_t>(level) - 1) / 2);
  std::size_t n = xs.size();
  std::size_t nf = std::max<std::size_t>(1, CeilDiv(n, child_target));
  nf = std::min<std::size_t>(nf, 2 * branch() + 1);
  std::vector<em::BlockId> kids;
  std::vector<double> klo, khi;
  std::vector<std::uint64_t> kw;
  std::size_t pos = 0;
  for (std::size_t c = 0; c < nf; ++c) {
    std::size_t remaining = n - pos;
    std::size_t chunks_left = nf - c;
    std::size_t take = CeilDiv(remaining, chunks_left);
    double clo = (c == 0) ? lo : xs[pos].x;
    double chi = (c == nf - 1) ? hi : xs[pos + take].x;
    std::vector<Point> chunk(xs.begin() + pos, xs.begin() + pos + take);
    kids.push_back(BuildSubtree(chunk, static_cast<std::uint32_t>(level) - 1,
                                em::kNullBlock, 0, clo, chi));
    klo.push_back(clo);
    khi.push_back(chi);
    kw.push_back(take);
    pos += take;
  }
  // Rewrite base's header in place (NewInternal allocates a new id; instead
  // we inline its logic against the existing id).
  em::BlockId rebuilt =
      NewInternal(parent, parent_slab, static_cast<std::uint32_t>(level), kids,
                  klo, khi, kw);
  // Swap rebuilt's header content into `base` and free the temp header.
  {
    em::PageRef src = pager_->Fetch(rebuilt);
    em::PageRef dst = pager_->Fetch(base);
    for (std::uint32_t i = 0; i < B(); ++i) dst.Set(i, src.Get(i));
    dst.Set(kHParent, parent);
    dst.Set(kHParentSlab, parent_slab);
  }
  pager_->Free(rebuilt);
  // Children must point at `base`, not the temp header.
  for (em::BlockId kid : kids) {
    em::PageRef ch = pager_->Fetch(kid);
    ch.Set(kHParent, base);
  }

  std::sort(live.begin(), live.end(), ByScoreDesc{});
  TRef new_root{base, 0};
  {
    em::PageRef h = pager_->Fetch(base);
    new_root.idx = static_cast<TIndex>(h.Get(kHIntRoot));
  }
  FillPilots(new_root, std::move(live));
}

void PilotPst::GlobalRebuild() {
  std::vector<Point> live;
  CollectPilots(RootTRef(), &live);
  FreeSubtree(MetaGet(kMRoot));
  Options options;
  options.branch = branch();
  options.leaf_cap = leaf_cap();
  em::BlockId old_meta = meta_;
  const std::uint64_t room = live.size() + live.size() / 2;
  PilotPst fresh = BuildWithRoom(pager_, std::move(live), options, room);
  // Move the fresh tree under the existing meta block id.
  {
    em::PageRef src = pager_->Fetch(fresh.meta_);
    em::PageRef dst = pager_->Fetch(old_meta);
    for (std::uint32_t i = 0; i < B(); ++i) dst.Set(i, src.Get(i));
  }
  pager_->Free(fresh.meta_);
  meta_ = old_meta;
}

// --- validation ---------------------------------------------------------

void PilotPst::CheckBase(em::BlockId base, std::uint32_t expect_level,
                         double lo, double hi, std::uint64_t* weight,
                         std::uint64_t* live) const {
  em::PageRef h = pager_->Fetch(base);
  TOKRA_CHECK_EQ(h.Get(kHLevel), expect_level);
  std::uint64_t w = h.Get(kHWeight);
  if (h.Get(kHKind) == 1) {
    TOKRA_CHECK_EQ(expect_level, 0u);
    TOKRA_CHECK_EQ(h.Get(kHLeafM), w);
    *weight = w;
    return;
  }
  std::uint32_t f = static_cast<std::uint32_t>(h.Get(kHIntF));
  std::uint32_t nt = static_cast<std::uint32_t>(h.Get(kHIntNT));
  TIndex root = static_cast<TIndex>(h.Get(kHIntRoot));
  h = em::PageRef();
  TOKRA_CHECK_EQ(nt, 2 * f - 1);
  std::vector<TNodeRec> recs = LoadTNodes(base);

  // Slab records partition [lo, hi) in order.
  double prev = lo;
  for (std::uint32_t i = 0; i < f; ++i) {
    TOKRA_CHECK(recs[i].is_slab());
    TOKRA_CHECK(recs[i].lo_x() == prev);
    prev = recs[i].hi_x();
  }
  TOKRA_CHECK(prev == hi);
  // Root T-node spans the whole slab.
  TOKRA_CHECK(recs[root].lo_x() == lo && recs[root].hi_x() == hi);

  // Base children.
  std::uint64_t wsum = 0;
  for (std::uint32_t i = 0; i < f; ++i) {
    std::uint64_t cw = 0;
    CheckBase(recs[i].base_child, expect_level - 1, recs[i].lo_x(),
              recs[i].hi_x(), &cw, live);
    {
      em::PageRef ch = pager_->Fetch(recs[i].base_child);
      TOKRA_CHECK_EQ(ch.Get(kHParent), base);
      TOKRA_CHECK_EQ(ch.Get(kHParentSlab), i);
    }
    wsum += cw;
  }
  std::uint64_t wh;
  {
    em::PageRef hh = pager_->Fetch(base);
    wh = hh.Get(kHWeight);
  }
  TOKRA_CHECK_EQ(wsum, wh);
  *weight = wsum;
}

void PilotPst::CheckT(const TRef& t, double bound, double lo, double hi,
                      std::uint64_t* live) const {
  TNodeRec rec = LoadTNode(t);
  TOKRA_CHECK(rec.lo_x() >= lo && rec.hi_x() <= hi);
  std::vector<Point> pts = PilotRead(rec);
  TOKRA_CHECK_EQ(pts.size(), rec.pilot_count);
  TOKRA_CHECK(pts.size() <= PilotMax());
  double min_score = kInf;
  for (const Point& p : pts) {
    TOKRA_CHECK(p.x >= rec.lo_x() && p.x < rec.hi_x());
    TOKRA_CHECK(p.score < bound);
    min_score = std::min(min_score, p.score);
  }
  if (!pts.empty()) TOKRA_CHECK(rec.rep() == min_score);
  *live += pts.size();

  double child_bound = pts.empty() ? bound : rec.rep();
  std::uint64_t below = 0;
  if (rec.is_slab()) {
    TRef c = SlabChild(rec);
    if (c.valid()) CheckT(c, child_bound, rec.lo_x(), rec.hi_x(), &below);
  } else {
    CheckT(TRef{t.base, static_cast<TIndex>(rec.left)}, child_bound,
           rec.lo_x(), rec.hi_x(), &below);
    CheckT(TRef{t.base, static_cast<TIndex>(rec.right)}, child_bound,
           rec.lo_x(), rec.hi_x(), &below);
  }
  if (pts.size() < PilotMin()) {
    // Size rule: an unsaturated pilot set implies an empty proper subtree.
    TOKRA_CHECK_EQ(below, 0u);
  }
  *live += below;
}

void PilotPst::CheckInvariants() const {
  std::uint64_t w = 0, live = 0;
  CheckBase(MetaGet(kMRoot), static_cast<std::uint32_t>(MetaGet(kMHeight)),
            -kInf, kInf, &w, &live);
  TOKRA_CHECK_EQ(w, MetaGet(kMKeys));
  live = 0;
  CheckT(RootTRef(), kInf, -kInf, kInf, &live);
  TOKRA_CHECK_EQ(live, MetaGet(kMLive));
}

}  // namespace tokra::pilot
