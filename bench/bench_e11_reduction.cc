// E11 — the threshold reduction pipeline as a control leg: selector query
// O(lg_B n) + 3-sided reporting + O(k'/B) selection, next to the pilot
// PST's best-first descent that TopkIndex answers with. Reported candidate
// volume stays O(k) thanks to the approximate threshold; the descent reads
// no more blocks than threshold + report on any row (gated).

#include "bench/common.h"
#include "pilot/pilot_pst.h"
#include "st12/selector.h"

using namespace tokra;
using namespace tokra::bench;

int main() {
  tokra::bench::InitJson("e11_reduction");
  std::printf("# E11: the reduction — threshold + 3-sided report + select\n");
  Header("pipeline breakdown vs k (n=2^16, B=256, st12 selector)",
         {"k", "threshold I/Os", "report I/Os", "candidates k'", "k'/k",
          "end-to-end (descent) I/Os"});
  em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 64});
  Rng rng(13);
  const std::size_t n = 1u << 16;
  auto pts = RandomPoints(&rng, n);
  auto pst = pilot::PilotPst::Build(&pager, pts);
  auto sel = st12::ShengTaoSelector::Build(&pager, pts);

  for (std::uint64_t k : {4u, 64u, 512u, 2048u}) {
    double x1 = 1e5, x2 = 9e5;
    double thr = 0;
    std::uint64_t thr_ios = ColdIos(&pager, [&] {
      thr = sel.SelectApprox(x1, x2, k).value();
    });
    std::vector<Point> cand;
    std::uint64_t rep_ios = ColdIos(&pager, [&] {
      Must(pst.Report3Sided(x1, x2, thr, &cand));
    });
    std::uint64_t full_ios = ColdIos(&pager, [&] {
      pst.TopK(x1, x2, k).value();
    });
    TOKRA_CHECK(full_ios <= thr_ios + rep_ios);
    Row({U(k), U(thr_ios), U(rep_ios), U(cand.size()),
         D(static_cast<double>(cand.size()) / k), U(full_ios)});
  }
  std::printf("\nShape check: threshold cost is flat (O(lg_B n)); reported "
              "candidates stay within the selector's constant factor of k; "
              "report I/Os track k'/B plus a logarithmic base; the descent "
              "costs at most threshold + report (gated).\n");
  return 0;
}
