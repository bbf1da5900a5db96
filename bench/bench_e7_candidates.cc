// E7 — candidate volume of the pilot PST's best-first top-k descent: the
// points it keeps and the pilot sets it reads stay O(B lg n + k) and
// O(lg n + k/B) (exactness is validated against the oracle by the test
// suite).

#include "bench/common.h"
#include "pilot/pilot_pst.h"
#include "util/bits.h"
#include "util/check.h"

using namespace tokra;
using namespace tokra::bench;

int main() {
  tokra::bench::InitJson("e7_candidates");
  std::printf("# E7: query candidate volume (O(B lg n + k))\n");
  Header("n=2^16, B=128; candidates and pilots read vs k",
         {"k", "candidates", "pilots read", "B lg n + k",
          "candidates/(B lg n + k)", "pilots read/(lg n + k/B)"});
  em::Pager pager(em::EmOptions{.block_words = 128, .pool_frames = 64});
  Rng rng(9);
  const std::size_t n = 1u << 16;
  auto pst = pilot::PilotPst::Build(&pager, RandomPoints(&rng, n));
  for (std::uint64_t k : {1u, 64u, 1024u, 8192u, 32768u}) {
    pilot::QueryStats stats;
    pst.TopK(2e5, 8e5, k, &stats).value();
    std::uint64_t bound = 128ull * Lg(n) + k;
    double units = static_cast<double>(Lg(n)) + static_cast<double>(k) / 128;
    Row({U(k), U(stats.candidates), U(stats.pilots_read), U(bound),
         D(static_cast<double>(stats.candidates) /
           static_cast<double>(bound)),
         D(static_cast<double>(stats.pilots_read) / units)});
    TOKRA_CHECK(stats.candidates <= 2 * bound);
    TOKRA_CHECK(stats.pilots_read <= 3 * units);
  }
  std::printf("\nShape check: the last two columns stay at most 2 and 3 "
              "across five orders of k (checked).\n");
  return 0;
}
