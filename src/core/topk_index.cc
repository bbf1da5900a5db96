#include "core/topk_index.h"

#include <set>

namespace tokra::core {
namespace {
// Meta block layout. Words 1 and 3-7 are reserved and unread: files written
// by older builds hold the selector kind, the selector's meta block and the
// build-time selector options there. Those selector blocks stay allocated
// and unreachable (DESIGN.md §5.2).
constexpr em::word_t kMetaMagic = 0x544F4B52544F504BULL;  // "TOKRTOPK"
constexpr std::size_t kWMagic = 0;
constexpr std::size_t kWPilotMeta = 2;
}  // namespace

StatusOr<std::unique_ptr<TopkIndex>> TopkIndex::Build(
    em::Pager* pager, std::vector<Point> points) {
  // Enforce the distinctness assumption up front.
  {
    std::set<double> xs, ss;
    for (const Point& p : points) {
      if (!xs.insert(p.x).second) {
        return Status::InvalidArgument("duplicate x coordinate");
      }
      if (!ss.insert(p.score).second) {
        return Status::InvalidArgument("duplicate score");
      }
    }
  }
  auto idx = std::unique_ptr<TopkIndex>(new TopkIndex(pager));
  idx->pilot_ = std::make_unique<pilot::PilotPst>(
      pilot::PilotPst::Build(pager, std::move(points)));
  idx->meta_ = pager->Allocate();
  idx->WriteMeta();
  return idx;
}

void TopkIndex::WriteMeta() {
  em::PageRef mp = pager_->Create(meta_);
  mp.Set(kWMagic, kMetaMagic);
  mp.Set(kWPilotMeta, pilot_->meta_block());
}

Status TopkIndex::Checkpoint(std::span<const std::uint64_t> extra_roots) {
  // The pilot meta-block id is stable across updates and rebuilds, but
  // rewrite ours anyway: it is one pool write and guards against drift.
  WriteMeta();
  std::vector<std::uint64_t> roots;
  roots.reserve(1 + extra_roots.size());
  roots.push_back(meta_);
  roots.insert(roots.end(), extra_roots.begin(), extra_roots.end());
  return pager_->Checkpoint(roots);
}

StatusOr<std::unique_ptr<TopkIndex>> TopkIndex::Open(em::Pager* pager) {
  if (pager->roots().empty()) {
    return Status::FailedPrecondition("pager has no checkpoint roots");
  }
  auto idx = std::unique_ptr<TopkIndex>(new TopkIndex(pager));
  idx->meta_ = pager->roots()[0];
  em::BlockId pilot_meta;
  {
    em::PageRef mp = pager->Fetch(idx->meta_);
    if (mp.Get(kWMagic) != kMetaMagic) {
      return Status::FailedPrecondition("bad TopkIndex meta block");
    }
    pilot_meta = mp.Get(kWPilotMeta);
  }
  idx->pilot_ = std::make_unique<pilot::PilotPst>(
      pilot::PilotPst::Open(pager, pilot_meta));
  return idx;
}

StatusOr<std::vector<Point>> TopkIndex::TopK(double x1, double x2,
                                             std::uint64_t k,
                                             TopkQueryStats* stats) const {
  if (stats != nullptr) *stats = TopkQueryStats{};
  return pilot_->TopK(x1, x2, k);
}

void TopkIndex::DestroyAll() {
  pilot_->DestroyAll();
  if (meta_ != em::kNullBlock) {
    pager_->Free(meta_);
    meta_ = em::kNullBlock;
  }
}

}  // namespace tokra::core
