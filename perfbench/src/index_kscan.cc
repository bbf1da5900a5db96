// Workload index_kscan: one core::TopkIndex on one em::Pager, one client.
//
// kMem device, B = 256 words, 256 pool frames, n = 2^18 points (~43.6k
// blocks, ~170x the pool). 80% TopK with k log-uniform in [1, 2^14] and the
// range width log-uniform over 0.1%..100% of the key space (both stratified,
// see QueryGen), so k straddles
// the pilot cutoff (B lg n); 20% update pairs (delete a live point, insert
// a fresh one), so n stays constant. No engine, threads or WAL: every count
// is a function of the seed alone.

#include <array>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "core/topk_index.h"
#include "em/pager.h"

namespace perfbench {
namespace {

constexpr std::size_t kPoints = std::size_t{1} << 18;
constexpr std::uint32_t kBlockWords = 256;
constexpr std::uint32_t kPoolFrames = 256;
constexpr double kXHi = 1e9;
constexpr double kMaxK = 16384;
constexpr int kSetupReps = 5;
constexpr int kWarmupQueries = 256;
// The host gauge samples this many times after each set-up and once every
// kGaugeEvery ops of the timed phase (about 1.5% of its time).
constexpr int kGaugeSetupSamples = 4;
constexpr std::uint64_t kGaugeEvery = 256;
// Counts (I/Os, pins, retries, ...) are taken over this fixed prefix of the
// op sequence, so they repeat exactly for a seed however fast the host is.
// The run continues past it until --seconds have been measured.
constexpr std::uint64_t kCountedOps = 16000;
// One query in this many is checked against the brute-force oracle, with
// the clock stopped.
constexpr std::uint64_t kOracleEvery = 16;

struct Query {
  double x1, x2;
  std::uint64_t k;
};

// Draws k and the range width by stratified sampling: each block of
// kStrata queries takes one value from each of kStrata equal slices of the
// log scale, in shuffled order. Every seed then runs the same k mix, and
// the seed moves only the order, the jitter inside a slice and the
// positions, so mean costs (dominated by the rare large-k queries) do not
// swing with the seed.
class QueryGen {
 public:
  explicit QueryGen(std::uint64_t seed) : rng_(seed) {}
  Query Next() {
    if (next_ == kStrata) Refill();
    const auto [uk, uw] = strata_[next_++];
    Query q;
    q.k = static_cast<std::uint64_t>(std::exp(uk * std::log(kMaxK + 1.0)));
    q.k = std::clamp<std::uint64_t>(q.k, 1, static_cast<std::uint64_t>(kMaxK));
    const double w = kXHi * std::exp(std::log(1e-3) * (1.0 - uw));
    q.x1 = rng_.UniformDouble(0, kXHi - w);
    q.x2 = q.x1 + w;
    return q;
  }
  Rng* rng() { return &rng_; }

 private:
  static constexpr std::size_t kStrata = 64;
  void Refill() {
    std::vector<double> k(kStrata), w(kStrata);
    for (std::size_t i = 0; i < kStrata; ++i) {
      k[i] = (static_cast<double>(i) + rng_.UniformDouble()) / kStrata;
      w[i] = (static_cast<double>(i) + rng_.UniformDouble()) / kStrata;
    }
    rng_.Shuffle(&k);
    rng_.Shuffle(&w);
    for (std::size_t i = 0; i < kStrata; ++i) strata_[i] = {k[i], w[i]};
    next_ = 0;
  }
  Rng rng_;
  std::array<std::pair<double, double>, kStrata> strata_{};
  std::size_t next_ = kStrata;
};

// The op mix, exact per block of 10: 8 queries and 2 update pairs.
class OpMix {
 public:
  bool NextIsQuery(Rng* rng) {
    if (next_ == slots_.size()) {
      slots_ = {true, true, true, true, true, true, true, true, false, false};
      rng->Shuffle(&slots_);
      next_ = 0;
    }
    return slots_[next_++];
  }

 private:
  std::vector<char> slots_;
  std::size_t next_ = 0;
};

// Counters over the counted prefix.
struct Counts {
  std::uint64_t queries = 0, updates = 0;
  std::uint64_t query_ios = 0, update_ios = 0;
  std::uint64_t pilot_queries = 0, pilot_ios = 0;
  std::uint64_t thresh_queries = 0, thresh_ios = 0;
  std::uint64_t pins = 0, retries = 0, candidates = 0, results = 0;
  tokra::em::IoStats io;  // all ops
};

}  // namespace

WorkloadResult RunIndexKscan(const Args& args) {
  using tokra::core::QueryPath;
  using tokra::core::TopkIndex;
  using tokra::core::TopkQueryStats;
  using tokra::em::IoStats;
  using tokra::em::Pager;

  WorkloadResult res;
  Rng gen(args.seed);
  const std::vector<Point> base = RandomPoints(&gen, kPoints, kXHi);

  tokra::em::EmOptions eo;
  eo.block_words = kBlockWords;
  eo.pool_frames = kPoolFrames;
  eo.backend = tokra::em::Backend::kMem;

  SpanRecorder rec(0, args.trace);
  HostGauge gauge;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<TopkIndex> index;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    index.reset();
    pager.reset();
    const std::uint64_t t0 = ProcessCpuNs();
    {
      ScopedSpan s(&rec, "em.Pager.Pager", 0);
      pager = std::make_unique<Pager>(eo);
    }
    {
      ScopedSpan s(&rec, "core.TopkIndex.Build", 0);
      auto built = TopkIndex::Build(pager.get(), base);
      if (!built.ok()) {
        res.Fail("Build: " + built.status().ToString());
        return res;
      }
      index = std::move(*built);
    }
    QueryGen warm(args.seed ^ 0x5741524dULL);
    for (int i = 0; i < kWarmupQueries; ++i) {
      const Query q = warm.Next();
      ScopedSpan s(&rec, "core.TopkIndex.TopK", 0);
      if (!index->TopK(q.x1, q.x2, q.k).ok()) {
        res.Fail("warm-up TopK failed");
        return res;
      }
    }
    setup.push_back(static_cast<double>(ProcessCpuNs() - t0) * 1e-9);
    for (int i = 0; i < kGaugeSetupSamples; ++i) gauge.Sample();
  }
  // Set-up is scaled by the passes taken between set-ups, the timed phase
  // by its own: the host's speed can change between the two.
  const double setup_scale = gauge.Scale();
  gauge.Restart();
  const std::uint64_t blocks_at_start = pager->BlocksInUse();

  LiveSet live;
  live.Reset(base);
  QueryGen qgen(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  Rng& ops = *qgen.rng();
  OpMix mix;
  Counts c;
  Samples q_lat(kSampleCap), u_lat(kSampleCap);
  Samples q_cpu(kSampleCap), u_cpu(kSampleCap);
  std::uint64_t q_cpu_ns = 0, u_cpu_ns = 0;
  SliceLog slices;
  std::uint64_t queries_total = 0, request = 0;

  const double t_start = NowS();
  double oracle_s = 0;
  auto elapsed = [&] { return NowS() - t_start - oracle_s; };
  double slice_start = 0;
  std::uint64_t slice_qn = 0, slice_un = 0;
  std::uint64_t slice_no = 0;
  rec.set_enabled(false);  // the traced run traces every other slice

  for (std::uint64_t op = 0;; ++op) {
    if (op % kGaugeEvery == 0) gauge.Sample();
    const double now = elapsed();
    if (now - slice_start >= kSliceS) {
      slices.Add(now - slice_start, slice_qn, slice_un, rec.enabled());
      slice_start = now;
      slice_qn = slice_un = 0;
      ++slice_no;
      rec.set_enabled(args.trace && slice_no % 2 == 1);
      if (now >= args.seconds && op >= kCountedOps) break;
    }
    const bool counted = op < kCountedOps;
    ++request;
    if (mix.NextIsQuery(&ops)) {
      const Query q = qgen.Next();
      TopkQueryStats qs;
      const IoStats before = pager->stats();
      const std::uint64_t t0 = NowNs();
      const std::uint64_t c0 = ThreadCpuNs();
      tokra::StatusOr<std::vector<Point>> ans = std::vector<Point>{};
      {
        ScopedSpan req(&rec, "bench.query", request);
        ScopedSpan s(&rec, "core.TopkIndex.TopK", request);
        ans = index->TopK(q.x1, q.x2, q.k, &qs);
        s.Rename(qs.path == QueryPath::kPilotDirect
                     ? "core.TopkIndex.TopK[pilot_direct]"
                 : qs.path == QueryPath::kLemma4Threshold
                     ? "core.TopkIndex.TopK[lemma4]"
                     : "core.TopkIndex.TopK[st12]");
      }
      const std::uint64_t cpu = ThreadCpuNs() - c0;
      q_lat.Add(static_cast<double>(NowNs() - t0) * 1e-3);
      q_cpu.Add(static_cast<double>(cpu) * 1e-3);
      q_cpu_ns += cpu;
      ++slice_qn;
      ++res.attempted;
      if (!ans.ok()) {
        ++res.failed;
        continue;
      }
      const IoStats d = pager->stats() - before;
      if (counted) {
        ++c.queries;
        c.query_ios += d.TotalIos();
        if (qs.path == QueryPath::kPilotDirect) {
          ++c.pilot_queries;
          c.pilot_ios += d.TotalIos();
        } else {
          // Candidates are reported by the threshold paths only.
          ++c.thresh_queries;
          c.thresh_ios += d.TotalIos();
          c.candidates += qs.reported_candidates;
          c.results += ans->size();
        }
        c.pins += d.pool_hits + d.pool_misses;
        c.retries += qs.threshold_retries;
        c.io += d;
      }
      if (queries_total++ % kOracleEvery == 0) {
        const double o0 = NowS();
        if (BruteTopK(live.points(), q.x1, q.x2, q.k) != *ans) {
          res.Fail("TopK answer differs from the brute-force oracle");
          return res;
        }
        oracle_s += NowS() - o0;
      }
      continue;
    }
    // Update pair: delete a live point, insert a fresh one.
    const Point victim = live.Pick(&ops);
    Point fresh;
    do {
      fresh = Point{ops.UniformDouble(0, kXHi), ops.UniformDouble()};
    } while (!live.Fresh(fresh));
    for (int half = 0; half < 2; ++half) {
      const bool del = half == 0;
      const IoStats before = pager->stats();
      const std::uint64_t t0 = NowNs();
      const std::uint64_t c0 = ThreadCpuNs();
      tokra::Status st;
      {
        ScopedSpan req(&rec, del ? "bench.delete" : "bench.insert", request);
        ScopedSpan s(&rec,
                     del ? "core.TopkIndex.Delete" : "core.TopkIndex.Insert",
                     request);
        st = del ? index->Delete(victim) : index->Insert(fresh);
      }
      const std::uint64_t cpu = ThreadCpuNs() - c0;
      u_lat.Add(static_cast<double>(NowNs() - t0) * 1e-3);
      u_cpu.Add(static_cast<double>(cpu) * 1e-3);
      u_cpu_ns += cpu;
      ++slice_un;
      ++res.attempted;
      if (!st.ok()) {
        ++res.failed;
        continue;
      }
      if (del) {
        live.Remove(victim);
      } else {
        live.Add(fresh);
      }
      if (counted) {
        const IoStats d = pager->stats() - before;
        ++c.updates;
        c.update_ios += d.TotalIos();
        c.io += d;
      }
    }
  }
  const double run_s = elapsed();

  // Final whole-structure check, outside the timed section.
  if (index->size() != live.size()) {
    res.Fail("index size " + std::to_string(index->size()) +
             " != live set " + std::to_string(live.size()));
    return res;
  }

  const double blocks = static_cast<double>(pager->BlocksInUse());
  const double n_live = static_cast<double>(index->size());
  const double scale = gauge.Scale();
  res.metrics["setup_s"] = MedianOf(setup) * setup_scale;
  res.metrics["cpu.query_us.p50"] = q_cpu.Percentile(50) * scale;
  res.metrics["query_per_cpu_s"] =
      Ratio(static_cast<double>(q_cpu.count()),
            static_cast<double>(q_cpu_ns) * 1e-9 * scale);
  res.metrics["cpu.update_us.p50"] = u_cpu.Percentile(50) * scale;
  res.metrics["update_per_cpu_s"] =
      Ratio(static_cast<double>(u_cpu.count()),
            static_cast<double>(u_cpu_ns) * 1e-9 * scale);
  res.metrics["cpu.query_us.p99"] = q_cpu.Percentile(99) * scale;
  res.metrics["cpu.update_us.p99"] = u_cpu.Percentile(99) * scale;
  res.metrics["cpu.gauge_us"] = gauge.MedianNs() * 1e-3;
  res.metrics["wall.query_per_s"] = MedianOf(slices.query_rate);
  res.metrics["wall.update_per_s"] = MedianOf(slices.update_rate);
  res.metrics["wall.query_p50_us"] = q_lat.Percentile(50);
  res.metrics["wall.query_p99_us"] = q_lat.Percentile(99);
  res.metrics["wall.update_p50_us"] = u_lat.Percentile(50);
  res.metrics["wall.update_p99_us"] = u_lat.Percentile(99);
  const double cq = static_cast<double>(c.queries);
  const double cu = static_cast<double>(c.updates);
  res.metrics["ios_per_query"] = Ratio(static_cast<double>(c.query_ios), cq);
  res.metrics["ios_per_update"] = Ratio(static_cast<double>(c.update_ios), cu);
  res.metrics["space_blocks_per_kpoint"] = blocks * 1000.0 / n_live;

  res.metrics["core.ios_per_query.k_ge_cutoff"] =
      Ratio(static_cast<double>(c.pilot_ios),
            static_cast<double>(c.pilot_queries));
  res.metrics["core.ios_per_query.k_lt_cutoff"] =
      Ratio(static_cast<double>(c.thresh_ios),
            static_cast<double>(c.thresh_queries));
  res.metrics["core.pins_per_query"] = Ratio(static_cast<double>(c.pins), cq);
  res.metrics["core.retries_per_query"] =
      Ratio(static_cast<double>(c.retries), cq);
  res.metrics["core.candidates_per_result"] =
      Ratio(static_cast<double>(c.candidates), static_cast<double>(c.results));
  res.metrics["core.ios_per_update"] = res.metrics["ios_per_update"];
  const double all_ops = cq + cu;
  res.metrics["em.pool.hit_rate"] =
      Ratio(static_cast<double>(c.io.pool_hits),
            static_cast<double>(c.io.pool_hits + c.io.pool_misses));
  res.metrics["em.pool.evictions_per_op"] =
      Ratio(static_cast<double>(c.io.evictions), all_ops);
  res.metrics["em.device.reads_per_op"] =
      Ratio(static_cast<double>(c.io.reads), all_ops);
  res.metrics["em.device.writes_per_op"] =
      Ratio(static_cast<double>(c.io.writes), all_ops);
  res.metrics["em.pager.file_blocks_per_kpoint"] =
      static_cast<double>(pager->Space().file_blocks) * 1000.0 / n_live;

  std::printf(
      "index_kscan: n=%zu B=%u pool_frames=%u blocks_in_use=%llu at start, "
      "%.0f at end (%.0fx the pool); timed %.2f s\n",
      kPoints, kBlockWords, kPoolFrames,
      static_cast<unsigned long long>(blocks_at_start), blocks,
      blocks / kPoolFrames, run_s);
  std::printf(
      "  queries=%llu (percentiles over %zu samples) updates=%llu "
      "(percentiles over %zu samples); counted prefix: %llu queries (%llu k>=cutoff), %llu "
      "updates; oracle checked %llu queries\n",
      static_cast<unsigned long long>(q_cpu.count()), q_cpu.size(),
      static_cast<unsigned long long>(u_cpu.count()), u_cpu.size(),
      static_cast<unsigned long long>(c.queries),
      static_cast<unsigned long long>(c.pilot_queries),
      static_cast<unsigned long long>(c.updates),
      static_cast<unsigned long long>((queries_total + kOracleEvery - 1) /
                                      kOracleEvery));

  if (args.trace) {
    const SpanSummary ss = ReportTrace(args, {&rec}, slices, &res);
    res.metrics["core.topk_us.pilot_direct.p50"] =
        ss.Durations("core.TopkIndex.TopK[pilot_direct]").Median();
    res.metrics["core.topk_us.lemma4.p50"] =
        ss.Durations("core.TopkIndex.TopK[lemma4]").Median();
    Samples upd = ss.Durations("core.TopkIndex.Insert");
    upd.Append(ss.Durations("core.TopkIndex.Delete"));
    res.metrics["core.update_us.p50"] = upd.Median();
  }
  index.reset();
  pager.reset();
  return res;
}

}  // namespace perfbench
