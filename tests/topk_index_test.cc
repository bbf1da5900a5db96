// Integration tests for the Theorem 1 TopkIndex: the pilot PST's descent
// across the whole k range, random workloads against the naive oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/topk_index.h"
#include "em/pager.h"
#include "internal/naive.h"
#include "util/bits.h"
#include "util/random.h"

namespace tokra::core {
namespace {

em::EmOptions Opts(std::uint32_t bw = 128) {
  return em::EmOptions{.block_words = bw, .pool_frames = 64};
}

std::vector<Point> RandomPoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, 1000.0);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

void ExpectTopKEqual(const std::vector<Point>& got,
                     const std::vector<Point>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

TEST(TopkIndexTest, RejectsDuplicates) {
  em::Pager pager(Opts());
  EXPECT_FALSE(TopkIndex::Build(&pager, {{1, 0.5}, {1, 0.7}}).ok());
  EXPECT_FALSE(TopkIndex::Build(&pager, {{1, 0.5}, {2, 0.5}}).ok());
}

TEST(TopkIndexTest, EmptyIndex) {
  em::Pager pager(Opts());
  auto idx = TopkIndex::Build(&pager, {});
  ASSERT_TRUE(idx.ok());
  auto res = (*idx)->TopK(0, 10, 5);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->empty());
  (*idx)->CheckInvariants();
}

// Inserts or deletes `ops` random points, keeping `live` and the used
// coordinate sets in step with the index.
void RandomUpdates(TopkIndex* idx, Rng* rng, int ops, double insert_p,
                   std::vector<Point>* live, std::set<double>* used_x,
                   std::set<double>* used_s) {
  for (int op = 0; op < ops; ++op) {
    if (live->empty() || rng->Bernoulli(insert_p)) {
      double x, sc;
      do {
        x = rng->UniformDouble(0, 1000);
      } while (!used_x->insert(x).second);
      do {
        sc = rng->UniformDouble(0, 1);
      } while (!used_s->insert(sc).second);
      ASSERT_TRUE(idx->Insert({x, sc}).ok());
      live->push_back({x, sc});
    } else {
      std::size_t pick = rng->Uniform(live->size());
      ASSERT_TRUE(idx->Delete((*live)[pick]).ok());
      live->erase(live->begin() + pick);
    }
  }
}

struct IdxCase {
  std::size_t n;
  int updates;
  std::uint64_t seed;
};

class TopkIndexPropertyTest : public ::testing::TestWithParam<IdxCase> {};

TEST_P(TopkIndexPropertyTest, MatchesOracleAcrossRegimes) {
  const auto& c = GetParam();
  em::Pager pager(Opts());
  Rng rng(c.seed);
  std::vector<Point> live = RandomPoints(&rng, c.n);
  auto built = TopkIndex::Build(&pager, live);
  ASSERT_TRUE(built.ok());
  auto& idx = *built;
  idx->CheckInvariants();

  std::set<double> used_x, used_s;
  for (const Point& p : live) {
    used_x.insert(p.x);
    used_s.insert(p.score);
  }
  RandomUpdates(idx.get(), &rng, c.updates, 0.6, &live, &used_x, &used_s);
  if (HasFatalFailure()) return;
  idx->CheckInvariants();
  EXPECT_EQ(idx->size(), live.size());

  // Queries across the k spectrum: tiny, middling, and beyond B lg n.
  for (int probe = 0; probe < 40; ++probe) {
    double a = rng.UniformDouble(-10, 1010), b = rng.UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{7},
                            std::uint64_t{50}, std::uint64_t{5000}}) {
      TopkQueryStats stats;
      auto got = idx->TopK(x1, x2, k, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectTopKEqual(*got, internal::NaiveTopK(live, x1, x2, k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopkIndexPropertyTest,
    ::testing::Values(IdxCase{500, 300, 1}, IdxCase{500, 300, 2},
                      IdxCase{5000, 500, 3}, IdxCase{5000, 500, 4},
                      IdxCase{2000, 200, 5}),
    [](const ::testing::TestParamInfo<IdxCase>& info) {
      return "n" + std::to_string(info.param.n) + "seed" +
             std::to_string(info.param.seed);
    });

TEST(TopkIndexTest, DispatchPaths) {
  // Every k, from 1 to n, answers on the pilot PST's descent.
  em::Pager pager(Opts());
  Rng rng(9);
  const std::size_t n = 3000;
  auto pts = RandomPoints(&rng, n);
  auto idx = TopkIndex::Build(&pager, pts);
  ASSERT_TRUE(idx.ok());
  for (std::uint64_t k = 1; k <= n; ++k) {
    TopkQueryStats stats;
    stats.path = QueryPath::kLemma4Threshold;
    stats.threshold_retries = 1;
    auto got = (*idx)->TopK(-10, 1010, k, &stats);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), k);
    EXPECT_EQ(stats.path, QueryPath::kPilotDirect) << "k=" << k;
    EXPECT_EQ(stats.threshold_retries, 0u) << "k=" << k;
  }
}

TEST(TopkIndexTest, CutoffBoundaryMatchesOracle) {
  // k = B lg n - 1, B lg n and B lg n + 1 straddle the Section 1.2 switch
  // from the threshold path to the pilot PST's own top-k; updates between
  // rounds move n and with it the boundary.
  for (std::uint64_t seed : {13u, 14u}) {
    em::Pager pager(Opts());
    Rng rng(seed);
    std::vector<Point> live = RandomPoints(&rng, 3000);
    auto built = TopkIndex::Build(&pager, live);
    ASSERT_TRUE(built.ok());
    auto& idx = *built;
    std::set<double> used_x, used_s;
    for (const Point& p : live) {
      used_x.insert(p.x);
      used_s.insert(p.score);
    }
    for (int round = 0; round < 6; ++round) {
      RandomUpdates(idx.get(), &rng, 150, round % 2 == 0 ? 0.8 : 0.2, &live,
                    &used_x, &used_s);
      if (HasFatalFailure()) return;
      const std::uint64_t cutoff =
          std::uint64_t{pager.B()} * Lg(std::max<std::size_t>(live.size(), 2));
      ASSERT_GT(cutoff, 1u);
      for (int probe = 0; probe < 4; ++probe) {
        double a = rng.UniformDouble(-10, 1010);
        double b = rng.UniformDouble(-10, 1010);
        double x1 = probe == 0 ? -10 : std::min(a, b);
        double x2 = probe == 0 ? 1010 : std::max(a, b);
        for (std::uint64_t k : {cutoff - 1, cutoff, cutoff + 1}) {
          TopkQueryStats stats;
          auto got = idx->TopK(x1, x2, k, &stats);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectTopKEqual(*got, internal::NaiveTopK(live, x1, x2, k));
          EXPECT_EQ(stats.path, QueryPath::kPilotDirect);
        }
      }
    }
    idx->CheckInvariants();
  }
}

TEST(TopkIndexTest, SmallKBoundaryHeavyMatchesOracle) {
  // The highest scores sit just outside [x1, x2] on both sides and fall off
  // with distance from the range; every in-range point scores below every
  // out-of-range one. The boundary paths' pilots are then full of
  // out-of-range points that beat the whole answer, the input where the two
  // boundary paths dominate the descent.
  em::Pager pager(Opts());
  const std::size_t n = 8192;
  const double x1 = 400, x2 = 600;
  Rng rng(21);
  std::vector<Point> pts = RandomPoints(&rng, n);
  for (Point& p : pts) {
    const double dist = p.x < x1 ? x1 - p.x : p.x > x2 ? p.x - x2 : -1;
    // Distinct x give distinct scores: 1 + (1 - dist/1000) outside, the
    // original score in [0, 1) inside.
    if (dist >= 0) p.score = 2.0 - dist / 1000.0;
  }
  std::set<double> scores;
  for (const Point& p : pts) ASSERT_TRUE(scores.insert(p.score).second);
  auto built = TopkIndex::Build(&pager, pts);
  ASSERT_TRUE(built.ok());
  auto& idx = *built;
  constexpr double kC = 6;  // I/Os per (lg n + k/B) unit, as E1b gates
  for (std::uint64_t k : {1u, 4u, 16u, 64u}) {
    pager.DropCache();
    const em::IoStats before = pager.stats();
    auto got = idx->TopK(x1, x2, k);
    const std::uint64_t ios = (pager.stats() - before).TotalIos();
    ASSERT_TRUE(got.ok());
    ExpectTopKEqual(*got, internal::NaiveTopK(pts, x1, x2, k));
    const double units = static_cast<double>(Lg(n)) +
                         static_cast<double>(k) / pager.B();
    EXPECT_LE(static_cast<double>(ios), kC * units) << "k=" << k;
  }
}

TEST(TopkIndexTest, DestroyReleasesBlocks) {
  em::Pager pager(Opts());
  std::uint64_t base = pager.BlocksInUse();
  Rng rng(11);
  auto idx = TopkIndex::Build(&pager, RandomPoints(&rng, 1000));
  ASSERT_TRUE(idx.ok());
  (*idx)->DestroyAll();
  EXPECT_EQ(pager.BlocksInUse(), base);
}

}  // namespace
}  // namespace tokra::core
