// E3 — Lemma 1: the pilot PST answers top-k in O(lg n + k/B) I/Os (log base
// TWO) and updates in O(lg_B n) amortized; once k >= B lg n its query is
// dominated by the optimal k/B term, which is checked: I/Os per k/B unit
// stay at most kPerUnit there.

#include "bench/common.h"
#include "pilot/pilot_pst.h"
#include "util/bits.h"
#include "util/check.h"

using namespace tokra;
using namespace tokra::bench;

int main() {
  tokra::bench::InitJson("e3_pilot");
  std::printf("# E3: Lemma 1 pilot PST — query and update shapes\n");

  Header("query I/Os vs k around the B*lg n crossover (n=2^16, B=128)",
         {"k", "B lg n", "query I/Os", "k/B", "I/Os per k/B unit"});
  {
    em::Pager pager(em::EmOptions{.block_words = 128, .pool_frames = 64});
    Rng rng(4);
    const std::size_t n = 1u << 16;
    auto pst = pilot::PilotPst::Build(&pager, RandomPoints(&rng, n));
    std::uint64_t blgn = 128 * Lg(n);
    for (std::uint64_t k : {64u, 512u, 2048u, 8192u, 32768u}) {
      std::uint64_t ios = ColdIos(&pager, [&] {
        pst.TopK(1e5, 9e5, k).value();
      });
      double kb = static_cast<double>(k) / 128.0;
      double per_unit = ios / std::max(kb, 1.0);
      Row({U(k), U(blgn), U(ios), D(kb), D(per_unit)});
      constexpr double kPerUnit = 8;
      if (k >= blgn) TOKRA_CHECK(per_unit <= kPerUnit);
    }
  }

  Header("amortized insert+delete I/Os vs n (B=256)",
         {"n", "lg_B n", "I/Os per update (1000 pairs)"});
  for (std::size_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 64});
    Rng rng(5);
    auto pst = pilot::PilotPst::Build(&pager, RandomPoints(&rng, n));
    auto fresh = RandomPoints(&rng, 1000, 1e6 - 1);
    std::uint64_t ios = BatchIos(&pager, [&] {
      for (const Point& q : fresh) {
        Must(pst.Insert(q));
        Must(pst.Delete(q));
      }
    });
    Row({U(n), U(LogB(256, n)),
         D(static_cast<double>(ios) / (2 * fresh.size()))});
  }
  std::printf("\nShape check: query I/Os/(k/B) flatten to a small constant "
              "for k >= B lg n (checked); update I/Os grow ~lg_B n.\n");
  return 0;
}
