// E10 — what the pilot PST's best-first top-k descent touches, and the
// internal-memory baseline. Node visits and pilot reads are what the query
// bound spends: every pilot read loads at most two child records, so
// visited <= 2 * read + 1 and both grow as O(lg n + k/B). The
// internal-memory treap PST is included as the RAM baseline the paper's
// intro describes.

#include "bench/common.h"
#include "internal/pst.h"
#include "pilot/pilot_pst.h"
#include "util/check.h"

using namespace tokra;
using namespace tokra::bench;

int main() {
  tokra::bench::InitJson("e10_select");
  std::printf("# E10: best-first descent internals + internal-memory "
              "baseline\n");
  Header("pilot PST query internals vs k (n=2^16, B=128)",
         {"k", "nodes visited", "pilots read", "visited / read"});
  em::Pager pager(em::EmOptions{.block_words = 128, .pool_frames = 64});
  Rng rng(12);
  const std::size_t n = 1u << 16;
  auto pts = RandomPoints(&rng, n);
  auto pst = pilot::PilotPst::Build(&pager, pts);
  for (std::uint64_t k : {16u, 256u, 4096u, 65536u}) {
    pilot::QueryStats stats;
    pst.TopK(1e5, 9e5, k, &stats).value();
    double ratio = stats.pilots_read == 0
                       ? 0
                       : static_cast<double>(stats.nodes_visited) /
                             static_cast<double>(stats.pilots_read);
    Row({U(k), U(stats.nodes_visited), U(stats.pilots_read), D(ratio)});
    TOKRA_CHECK(stats.nodes_visited <= 2 * stats.pilots_read + 1);
  }

  Header("internal-memory treap PST (RAM baseline, no I/O model)",
         {"k", "comparisons (best-first)", "comparisons/k"});
  internal::TreapPst ram;
  for (const Point& p : pts) Must(ram.Insert(p));
  for (std::uint64_t k : {16u, 256u, 4096u}) {
    select::SelectStats st;
    ram.TopK(1e5, 9e5, k, &st);
    Row({U(k), U(st.comparisons),
         D(static_cast<double>(st.comparisons) / k)});
  }
  std::printf(
      "\nShape check: visited <= 2 * read + 1 (checked; each pilot read "
      "loads at most two child records); the RAM baseline's comparisons "
      "grow O(k lg k) — CPU-free in the EM model.\n");
  return 0;
}
