// E1 — Theorem 1 query cost: O(lg n + k/B) I/Os.
//   (a) fixed k, growing n: the additive term grows logarithmically;
//   (b) fixed n, growing k: cost tracks k/B linearly past the base. Gated:
//       every row stays within kC * (lg n + k/B), the row at B lg n (the
//       Section 1.2 pilot cutoff) costs at most 1.5x the row just below it,
//       and k=1 costs at most kK1 cold I/Os.

#include "bench/common.h"
#include "core/topk_index.h"
#include "util/bits.h"
#include "util/check.h"

using namespace tokra;
using namespace tokra::bench;

int main() {
  tokra::bench::InitJson("e1_query");
  std::printf("# E1: Theorem 1 query I/Os vs n and k\n");

  Header("E1a: query I/Os vs n (k=16, B=256)",
         {"n", "lg n", "query I/Os (avg of 20)", "I/Os / lg n"});
  for (std::size_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 64});
    Rng rng(1);
    auto built = core::TopkIndex::Build(&pager, RandomPoints(&rng, n));
    auto& idx = *built;
    std::uint64_t total = 0;
    const int probes = 20;
    // Per-probe wall-time distribution, split into the cache-drop cost and
    // the cold probe itself (the part Theorem 1 bounds).
    obs::Histogram lat, drop_h, probe_h;
    for (int i = 0; i < probes; ++i) {
      double a = rng.UniformDouble(0, 1e6), b = rng.UniformDouble(0, 1e6);
      double x1 = std::min(a, b), x2 = std::max(a, b);
      const std::uint64_t t0 = obs::NowUs();
      pager.DropCache();
      const std::uint64_t t1 = obs::NowUs();
      em::IoStats before = pager.stats();
      idx->TopK(x1, x2, 16).value();
      const std::uint64_t t2 = obs::NowUs();
      total += (pager.stats() - before).TotalIos();
      drop_h.Record(t1 - t0);
      probe_h.Record(t2 - t1);
      lat.Record(t2 - t0);
    }
    double avg = static_cast<double>(total) / probes;
    Row({U(n), U(Lg(n)), D(avg), D(avg / Lg(n))});
    RecordIoStats("E1a n=" + U(n), pager.stats());
    RecordLatency("E1a n=" + U(n), lat.Snapshot());
    RecordStages("E1a n=" + U(n), {{"drop_cache", drop_h.Snapshot()},
                                   {"cold_probe", probe_h.Snapshot()}});
  }

  Header("E1b: query I/Os vs k (n=2^17, B=256)",
         {"k", "k/B", "query I/Os (avg of 12)", "I/Os - base",
          "I/Os / (lg n + k/B)"});
  {
    em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 64});
    Rng rng(2);
    const std::size_t n = 1u << 17;
    auto built = core::TopkIndex::Build(&pager, RandomPoints(&rng, n));
    auto& idx = *built;
    const std::uint64_t cutoff = std::uint64_t{256} * Lg(n);
    // I/Os per (lg n + k/B) unit that no row may exceed.
    constexpr double kC = 6;
    // Cold I/Os a k=1 query may take: the boundary paths' top levels.
    constexpr double kK1 = 8;
    double base = 0, below_cutoff = 0;
    for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{16},
                            std::uint64_t{128}, std::uint64_t{1024},
                            cutoff - 1, cutoff, std::uint64_t{16384}}) {
      std::uint64_t total = 0;
      const int probes = 12;
      obs::Histogram lat;
      for (int i = 0; i < probes; ++i) {
        double x1 = rng.UniformDouble(0, 4e5);
        double x2 = x1 + 5e5;  // wide range so k points exist
        obs::ScopedTimer probe_timer(&lat);
        total += ColdIos(&pager, [&] { idx->TopK(x1, x2, k).value(); });
      }
      double avg = static_cast<double>(total) / probes;
      if (k == 1) base = avg;
      double units = static_cast<double>(Lg(n)) + static_cast<double>(k) / 256;
      Row({U(k), D(static_cast<double>(k) / 256.0), D(avg), D(avg - base),
           D(avg / units)});
      RecordLatency("E1b k=" + U(k), lat.Snapshot());
      TOKRA_CHECK(avg <= kC * units);
      if (k == 1) TOKRA_CHECK(avg <= kK1);
      if (k == cutoff - 1) below_cutoff = avg;
      if (k == cutoff) TOKRA_CHECK(avg <= 1.5 * below_cutoff);
    }
    RecordIoStats("E1b total", pager.stats());
  }
  std::printf(
      "\nShape check: E1a column 4 roughly constant; E1b column 4 tracks "
      "k/B (E1b's per-k bound, cutoff step and k=1 cost are checked).\n");
  return 0;
}
