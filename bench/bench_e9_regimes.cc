// E9 — Section 1.2 regime decomposition, kept as the control leg: per
// (B, k), the pilot PST's best-first descent (what TopkIndex answers with
// for every k) next to the paper's threshold pipeline — approximate range
// k-selection, 3-sided reporting above the threshold, final selection —
// composed here by hand from the same components. Gated: the descent reads
// no more blocks than the pipeline on any row, and both return the same
// answer.

#include <algorithm>
#include <cmath>
#include <limits>

#include "bench/common.h"
#include "lemma4/structure.h"
#include "pilot/pilot_pst.h"
#include "st12/selector.h"
#include "util/bits.h"

using namespace tokra;
using namespace tokra::bench;

namespace {

/// The Section 1.2 threshold path for k < `cutoff`: ask the selector for a
/// rank, report every point above the returned score, keep the top k. The
/// ask starts at k/4 and doubles while the report under-delivers, falling
/// back to the descent once it reaches the cutoff.
template <typename Selector>
std::vector<Point> ThresholdTopK(const Selector& sel,
                                 const pilot::PilotPst& pst, double x1,
                                 double x2, std::uint64_t k,
                                 std::uint64_t cutoff,
                                 std::uint64_t* retries) {
  std::uint64_t ask = std::max<std::uint64_t>(1, k / 4);
  for (*retries = 0; ask < cutoff; ++*retries, ask *= 2) {
    StatusOr<double> thr = sel.SelectApprox(x1, x2, ask);
    TOKRA_CHECK(thr.ok() || thr.status().code() == StatusCode::kOutOfRange);
    const double y =
        thr.ok() ? *thr : -std::numeric_limits<double>::infinity();
    std::vector<Point> cand;
    Must(pst.Report3Sided(x1, x2, y, &cand));
    if (cand.size() >= k || std::isinf(y)) {
      const std::size_t take = std::min<std::size_t>(k, cand.size());
      std::partial_sort(cand.begin(), cand.begin() + take, cand.end(),
                        ByScoreDesc{});
      cand.resize(take);
      return cand;
    }
  }
  return pst.TopK(x1, x2, k).value();
}

}  // namespace

int main() {
  tokra::bench::InitJson("e9_regimes");
  std::printf("# E9: descent vs the Section 1.2 threshold pipeline "
              "(n=2^16)\n");
  Header("cold query I/Os vs (B, k)",
         {"B", "k", "B lg n", "descent I/Os", "lemma4 pipeline I/Os",
          "lemma4 retries", "st12 pipeline I/Os", "st12 retries"});
  const std::size_t n = 1u << 16;
  for (std::uint32_t Bw : {64u, 256u, 1024u}) {
    em::Pager pager(em::EmOptions{.block_words = Bw, .pool_frames = 64});
    Rng rng(11);
    const auto pts = RandomPoints(&rng, n);
    auto pst = pilot::PilotPst::Build(&pager, pts);
    auto l4 = lemma4::Lemma4Selector::Build(&pager, pts);
    auto st = st12::ShengTaoSelector::Build(&pager, pts);
    const std::uint64_t cutoff = static_cast<std::uint64_t>(Bw) * Lg(n);
    for (std::uint64_t k : {4u, 256u, 4096u, 32768u}) {
      const double x1 = 1e5, x2 = 9e5;
      std::vector<Point> want;
      const std::uint64_t ios =
          ColdIos(&pager, [&] { want = pst.TopK(x1, x2, k).value(); });
      std::vector<std::string> row = {U(Bw), U(k), U(cutoff), U(ios)};
      // At and above B lg n (capped by Lemma 4's l) the composition itself
      // answers with the descent: there is no pipeline to compare.
      auto pipeline = [&](const auto& sel, std::uint64_t sel_cutoff) {
        if (k >= sel_cutoff) {
          row.insert(row.end(), {"descent", "-"});
          return;
        }
        std::vector<Point> got;
        std::uint64_t retries = 0;
        const std::uint64_t pios = ColdIos(&pager, [&] {
          got = ThresholdTopK(sel, pst, x1, x2, k, sel_cutoff, &retries);
        });
        TOKRA_CHECK(got == want);
        TOKRA_CHECK(ios <= pios);
        row.insert(row.end(), {U(pios), U(retries)});
      };
      pipeline(l4, std::min<std::uint64_t>(cutoff, l4.l()));
      pipeline(st, cutoff);
      Row(row);
    }
    RecordIoStats("B=" + U(Bw), pager.stats());
  }
  std::printf("\nShape check (gated): the descent's cold I/Os are at most "
              "the threshold pipeline's on every row below B lg n, with "
              "identical answers.\n");
  return 0;
}
