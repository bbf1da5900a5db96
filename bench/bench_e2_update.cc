// E2 — update I/Os, in two tables.
//
// E2 is the paper's separation: amortized update I/Os of its approximate
// range k-selection component (Lemma 4, O(lg_B n)) against the
// Sheng-Tao'12 one (O(lg^2_B n)), compared directly. In the Section 1.2
// composition both sit on top of the same pilot PST, so the selector delta
// is the paper's improvement. No serving path runs either selector
// (TopkIndex answers every k from the pilot PST; DESIGN §2).
//
// E2b gates the structure that does serve: TopkIndex amortized update I/Os
// over a long churn run at M = 8B, checked against lg_B n. Its cold
// per-operation column shows why a cold figure overstates the amortized one
// (see the note printed under the table).

#include <algorithm>
#include <cmath>

#include "bench/common.h"
#include "core/topk_index.h"
#include "lemma4/structure.h"
#include "st12/selector.h"
#include "util/bits.h"

using namespace tokra;
using namespace tokra::bench;

int main() {
  tokra::bench::InitJson("e2_update");
  std::printf("# E2: amortized update I/Os — tokra (Lemma 4) vs [14]-style"
              " baseline\n");
  // Cold per-operation measurement with a minimal pool (M = 8B): the model
  // only guarantees M = Omega(B), and a warm cache would hide the baseline's
  // extra log factor (its repairs re-descend paths that an ample cache keeps
  // resident).
  Header("selector update cost vs n (B=64, cold cache per op)",
         {"n", "lg_B n", "lemma4 I/Os/update", "st12 I/Os/update",
          "ratio st12/lemma4"});
  for (std::size_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    em::Pager pager(em::EmOptions{.block_words = 64, .pool_frames = 8});
    Rng rng(3);
    auto pts = RandomPoints(&rng, n);
    lemma4::Lemma4Selector::Params p4{.fanout = 8, .l = 32,
                                      .leaf_cap = 1024};
    auto l4 = lemma4::Lemma4Selector::Build(&pager, pts, p4);
    auto st = st12::ShengTaoSelector::Build(&pager, pts);

    const int rounds = 150;
    auto fresh = RandomPoints(&rng, rounds, 1e6 - 1);
    std::uint64_t l4_ios = 0, st_ios = 0;
    for (const Point& q : fresh) {
      l4_ios += ColdIos(&pager, [&] { Must(l4.Insert(q)); });
      l4_ios += ColdIos(&pager, [&] { Must(l4.Delete(q)); });
    }
    for (const Point& q : fresh) {
      st_ios += ColdIos(&pager, [&] { Must(st.Insert(q)); });
      st_ios += ColdIos(&pager, [&] { Must(st.Delete(q)); });
    }
    double a = static_cast<double>(l4_ios) / (2 * rounds);
    double b = static_cast<double>(st_ios) / (2 * rounds);
    Row({U(n), U(LogB(64, n)), D(a), D(b), D(b / a)});
    RecordIoStats("n=" + U(n), pager.stats());
  }
  std::printf(
      "\nShape check: the ratio grows with lg_B n (the baseline pays an "
      "extra log factor per update), i.e. the Theorem 1 improvement.\n");

  // E2b. Churn keeps n fixed: each pair deletes a live point and inserts a
  // fresh one. The run is flushed at its end, so every dirtied block's
  // write-back is counted.
  constexpr int kPairs = 8192;
  constexpr int kColdOps = 64;
  // Bound on amortized I/Os per update / lg_B n (real-valued logarithm).
  // Measured 7.4-16.3 over this table (counts repeat exactly); 20 leaves a
  // fifth of headroom. A global rebuild per insert reads ~890 here.
  constexpr double kPerLgBn = 20.0;
  double worst = 0.0;
  Header("E2b: TopkIndex update I/Os vs n (M = 8B, amortized over " +
             U(2 * kPairs) + " updates)",
         {"B", "n", "lg_B n", "I/Os/update", "per lg_B n",
          "cold I/Os/op", "cold reads/op", "cold writes/op", "pins/op"});
  for (std::uint32_t b : {64u, 256u}) {
    for (std::size_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
      em::Pager pager(em::EmOptions{.block_words = b, .pool_frames = 8});
      Rng rng(5);
      std::vector<Point> live = RandomPoints(&rng, n);
      auto index = core::TopkIndex::Build(&pager, live).value();
      std::vector<Point> fresh = RandomPoints(&rng, kPairs + kColdOps);
      pager.FlushAll();
      std::size_t next = 0;
      auto churn_pair = [&] {
        const std::size_t victim = rng.Uniform(live.size());
        Must(index->Delete(live[victim]));
        Must(index->Insert(fresh[next]));
        live[victim] = fresh[next++];
      };
      const std::uint64_t ios = BatchIos(&pager, [&] {
        for (int i = 0; i < kPairs; ++i) churn_pair();
        pager.FlushAll();
      });
      const double per_update = static_cast<double>(ios) / (2 * kPairs);
      const double lg = std::log(static_cast<double>(n)) / std::log(b);
      // Cold: every op starts from an empty pool (DropCache also writes
      // back the previous op's dirty blocks, which ColdIos leaves out).
      em::IoStats cold;
      for (int i = 0; i < kColdOps / 2; ++i) {
        pager.DropCache();
        const em::IoStats before = pager.stats();
        churn_pair();
        pager.FlushAll();
        cold += pager.stats() - before;
      }
      const double ops = kColdOps;
      Row({U(b), U(n), D(lg), D(per_update), D(per_update / lg),
           D(cold.TotalIos() / ops), D(cold.reads / ops), D(cold.writes / ops),
           D((cold.pool_hits + cold.pool_misses) / ops)});
      RecordIoStats("E2b B=" + U(b) + " n=" + U(n), pager.stats());
      worst = std::max(worst, per_update / lg);
    }
  }
  std::printf("\nE2b worst I/Os per update per lg_B n: %.2f (bound %.1f)\n",
              worst, kPerLgBn);
  std::fflush(stdout);
  TOKRA_CHECK(worst <= kPerLgBn);
  std::printf(
      "\nCold vs amortized: a cold op reads each block it touches and "
      "writes back each one it dirties. The amortized run also pays for "
      "subtree rebuilds, and for one global rebuild wherever n = b a^h "
      "(every n here at B=64) builds a root at exactly its weight cap, so "
      "that the first insert overflows it.\n");
  return 0;
}
