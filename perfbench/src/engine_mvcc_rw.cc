// Workload engine_mvcc_rw: a reader beside a writer on the MVCC view path.
//
// ShardedTopkEngine with mvcc on: kMem, 4 shards, n = 50k, 4096 pool frames
// per shard (every shard fits), 1 engine thread, so a query's shard probes
// run on the reader's own thread. One reader thread runs TopK closed-loop
// (k = 10, uniform ranges 1% of the key space wide). One writer thread runs
// Insert/Delete beside it, open-loop on the reader's clock: every
// kQueriesPerUpdate reader queries release one writer op, whether or not
// the writer has finished the last one. Writer latency is timed from the
// release, so a stall also charges the ops queued behind it, and how late
// the writer started is reported. Pacing by queries rather than by wall
// time keeps the number of queries per published epoch, and with it the
// reader's I/O, the same however fast the host runs.
//
// The writer never touches keys below kWindowHi. Reader answers on ranges
// inside that window must equal a serialized oracle over the base points,
// whichever epoch served them.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_util.h"
#include "engine/sharded_engine.h"

namespace perfbench {
namespace {

using tokra::engine::EngineOptions;
using tokra::engine::EngineQueryStats;
using tokra::engine::ShardedTopkEngine;
using tokra::em::IoStats;

constexpr std::size_t kPoints = 50'000;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kEngineThreads = 1;
constexpr std::uint32_t kPoolFrames = 4096;
constexpr std::uint64_t kQueriesPerUpdate = 64;
constexpr std::uint64_t kK = 10;
// A set-up takes under 0.1 s of CPU here, so more of them are timed.
constexpr int kSetupReps = 9;
constexpr int kWarmupQueries = 256;
constexpr int kProbeQueries = 64;
// Window answers kept for the oracle check after the run.
constexpr std::size_t kWindowChecks = std::size_t{1} << 15;
// Host gauge samples after each set-up, and one per kGaugeEvery queries.
constexpr int kGaugeSetupSamples = 4;
constexpr std::uint64_t kGaugeEvery = 2048;

constexpr double kXHi = kGridXHi;
constexpr double kRangeW = 0.01 * kXHi;
constexpr double kWindowHi = 0.10 * kXHi;

std::pair<double, double> NextRange(Rng* rng) {
  const double lo = rng->UniformDouble(0, kXHi - kRangeW);
  return {lo, lo + kRangeW};
}

EngineOptions Options() {
  EngineOptions o;
  o.num_shards = kShards;
  o.threads = kEngineThreads;
  o.em.block_words = 256;
  o.em.pool_frames = kPoolFrames;
  o.mvcc = true;
  return o;
}

// An answer on a window range, checked against the oracle after the run.
struct Seen {
  double x1, x2;
  std::uint64_t hash;
};

}  // namespace

WorkloadResult RunEngineMvccRw(const Args& args) {
  WorkloadResult res;
  Rng gen(args.seed);
  const std::vector<Point> base = GridBase(&gen, kPoints);

  SpanRecorder main_rec(0, args.trace);
  HostGauge gauge;
  std::unique_ptr<ShardedTopkEngine> engine;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    const std::uint64_t t0 = ProcessCpuNs();
    {
      ScopedSpan s(&main_rec, "engine.ShardedTopkEngine.Build", 0);
      auto built = ShardedTopkEngine::Build(base, Options());
      if (!built.ok()) {
        res.Fail("Build: " + built.status().ToString());
        return res;
      }
      engine = std::move(*built);
    }
    Rng warm(args.seed ^ 0x5741524dULL);
    for (int i = 0; i < kWarmupQueries; ++i) {
      const auto [x1, x2] = NextRange(&warm);
      ScopedSpan s(&main_rec, "engine.ShardedTopkEngine.TopK", 0);
      if (!engine->TopK(x1, x2, kK).ok()) {
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
  const std::uint64_t blocks_at_start = engine->BlocksInUse();

  // The writer's universe: every point outside the window.
  std::vector<Point> window_pts;
  LiveSet writable;
  for (const Point& p : base) {
    if (p.x < kWindowHi) {
      window_pts.push_back(p);
    } else {
      writable.Add(p);
    }
  }

  // Reader state.
  Rng rrng(args.seed * 1000003ULL + 1);
  SpanRecorder reader_rec(1, false);
  Samples q_lat(kSampleCap), q_cpu(kSampleCap);
  std::uint64_t q_cpu_ns = 0, q_attempted = 0, q_failed = 0, results = 0;
  IoStats query_io;
  std::uint64_t shards_queried = 0, shards_pruned = 0, waves = 0;
  std::uint64_t candidates = 0, merge_nodes = 0;
  std::vector<Seen> window;
  // Writer state.
  Rng wrng(args.seed * 1000003ULL + 104729);
  SpanRecorder writer_rec(2, false);
  Samples w_lat(kSampleCap), w_cpu(kSampleCap), w_late(kSampleCap);
  std::uint64_t w_cpu_ns = 0, w_attempted = 0, w_failed = 0;
  std::uint64_t w_checked = 0;
  bool w_stale = false;  // an op was not visible when it returned
  // Releases: when each writer op fell due, oldest first.
  std::mutex release_mu;
  std::condition_variable release_cv;
  std::deque<std::uint64_t> due_ns;

  std::atomic<bool> stop{false}, tracing{false};
  std::atomic<std::uint64_t> queries_done{0}, updates_done{0};
  const IoStats io0 = engine->AggregatedIoStats();
  const auto counters0 = engine->counters();

  auto reader_main = [&] {
    std::uint64_t request = std::uint64_t{1} << 40;
    for (std::uint64_t q = 0; !stop.load(std::memory_order_relaxed); ++q) {
      if (q % kGaugeEvery == 0) gauge.Sample();
      if (q % kQueriesPerUpdate == kQueriesPerUpdate - 1) {
        {
          std::lock_guard<std::mutex> g(release_mu);
          due_ns.push_back(NowNs());
        }
        release_cv.notify_one();
      }
      reader_rec.set_enabled(args.trace &&
                             tracing.load(std::memory_order_relaxed));
      const auto [x1, x2] = NextRange(&rrng);
      EngineQueryStats qs;
      const std::uint64_t t0 = NowNs();
      const std::uint64_t c0 = ThreadCpuNs();
      tokra::StatusOr<std::vector<Point>> ans = std::vector<Point>{};
      {
        ScopedSpan s(&reader_rec, "engine.ShardedTopkEngine.TopK", ++request);
        ans = engine->TopK(x1, x2, kK, &qs);
      }
      const std::uint64_t cpu = ThreadCpuNs() - c0;
      q_lat.Add(static_cast<double>(NowNs() - t0) * 1e-3);
      q_cpu.Add(static_cast<double>(cpu) * 1e-3);
      q_cpu_ns += cpu;
      ++q_attempted;
      queries_done.fetch_add(1, std::memory_order_relaxed);
      if (!ans.ok()) {
        ++q_failed;
        continue;
      }
      results += ans->size();
      query_io += qs.io;
      shards_queried += qs.shards_queried;
      shards_pruned += qs.shards_pruned;
      waves += qs.waves;
      candidates += qs.shard_candidates;
      merge_nodes += qs.merge_nodes_visited;
      if (x2 < kWindowHi && window.size() < kWindowChecks) {
        window.push_back({x1, x2, AnswerHash(*ans)});
      }
    }
  };

  auto writer_main = [&] {
    std::uint64_t request = 0;
    for (std::uint64_t i = 0;; ++i) {
      std::uint64_t due;
      {
        std::unique_lock<std::mutex> g(release_mu);
        release_cv.wait(g, [&] { return stop.load() || !due_ns.empty(); });
        if (stop.load()) return;
        due = due_ns.front();
        due_ns.pop_front();
      }
      writer_rec.set_enabled(args.trace &&
                             tracing.load(std::memory_order_relaxed));
      const std::uint64_t start = NowNs();
      const bool del = i % 2 == 1;
      Point p;
      if (del) {
        p = writable.Pick(&wrng);
      } else {
        do {
          p = GridPoint(&wrng, 1);
        } while (p.x < kWindowHi || !writable.Fresh(p));
      }
      const std::uint64_t c0 = ThreadCpuNs();
      tokra::Status st;
      {
        ScopedSpan s(&writer_rec,
                     del ? "engine.ShardedTopkEngine.Delete"
                         : "engine.ShardedTopkEngine.Insert",
                     ++request);
        st = del ? engine->Delete(p) : engine->Insert(p);
      }
      const std::uint64_t cpu = ThreadCpuNs() - c0;
      const std::uint64_t end = NowNs();
      w_late.Add(static_cast<double>(start - due) * 1e-3);
      w_lat.Add(static_cast<double>(end - due) * 1e-3);
      w_cpu.Add(static_cast<double>(cpu) * 1e-3);
      w_cpu_ns += cpu;
      ++w_attempted;
      if (!st.ok()) {
        ++w_failed;
        continue;
      }
      if (del) {
        writable.Remove(p);
      } else {
        writable.Add(p);
      }
      updates_done.fetch_add(1, std::memory_order_relaxed);
      // Read-your-writes, outside the timed op: the op's epoch must be
      // published by the time it returns.
      auto seen = engine->TopK(p.x, p.x, 1);
      const bool present = seen.ok() && seen->size() == 1 && (*seen)[0] == p;
      if (!seen.ok() || present == del) w_stale = true;
      ++w_checked;
    }
  };

  const double t_start = NowS();
  std::thread reader(reader_main);
  std::thread writer(writer_main);
  const SliceLog slices = SampleSlices(t_start, args.seconds, args.trace,
                                       queries_done, updates_done, &tracing);
  {
    std::lock_guard<std::mutex> g(release_mu);
    stop.store(true);
  }
  release_cv.notify_one();
  reader.join();
  writer.join();
  const double run_s = NowS() - t_start;

  const IoStats wio = engine->AggregatedIoStats() - io0;
  const auto counters = engine->counters();
  const std::vector<const SpanRecorder*> recs = {&main_rec, &reader_rec,
                                                 &writer_rec};
  res.attempted = q_attempted + w_attempted;
  res.failed = q_failed + w_failed;

  // ---- Correctness.
  // 1. Every writer op was visible to a query when it returned.
  if (w_stale) {
    res.Fail("a writer op was not visible to a query after it returned");
    return res;
  }
  // 2. Every kept window answer equals the serialized oracle.
  for (const Seen& s : window) {
    if (AnswerHash(BruteTopK(window_pts, s.x1, s.x2, kK)) != s.hash) {
      res.Fail("reader answer on the writer-free window differs from the "
               "serialized oracle");
      return res;
    }
  }
  // 3. The quiesced engine holds exactly the acknowledged point set.
  std::vector<Point> live = window_pts;
  live.insert(live.end(), writable.points().begin(), writable.points().end());
  if (engine->size() != live.size()) {
    res.Fail("engine size " + std::to_string(engine->size()) +
             " != acknowledged point set " + std::to_string(live.size()));
    return res;
  }
  // The whole set in one query: a shard view left stale by a lost
  // publication shows here even where no probe looks.
  const std::uint64_t k_all = live.size() + 1;
  auto whole = engine->TopK(0, kXHi, k_all);
  if (!whole.ok() || *whole != BruteTopK(live, 0, kXHi, k_all)) {
    res.Fail("engine's answer over the whole key space differs from the "
             "acknowledged point set");
    return res;
  }
  Rng probe_rng(args.seed ^ 0x50524f42ULL);
  for (int i = 0; i < kProbeQueries; ++i) {
    const auto [x1, x2] = NextRange(&probe_rng);
    auto ans = engine->TopK(x1, x2, kK);
    if (!ans.ok() || *ans != BruteTopK(live, x1, x2, kK)) {
      res.Fail("engine answer differs from the brute-force oracle");
      return res;
    }
  }
  // 4. No query ever took a shard lock: every probe rode a published view.
  if (engine->counters().query_shard_locks != 0) {
    res.Fail("query_shard_locks = " +
             std::to_string(engine->counters().query_shard_locks));
    return res;
  }

  // ---- Metrics.
  const double nq = static_cast<double>(q_cpu.count());
  const double nu = static_cast<double>(updates_done.load());
  const double n_live = static_cast<double>(engine->size());
  const double scale = gauge.Scale();
  res.metrics["setup_s"] = MedianOf(setup) * setup_scale;
  res.metrics["cpu.query_us.p50"] = q_cpu.Percentile(50) * scale;
  res.metrics["query_per_cpu_s"] =
      Ratio(nq, static_cast<double>(q_cpu_ns) * 1e-9 * scale);
  res.metrics["cpu.update_us.p50"] = w_cpu.Percentile(50) * scale;
  res.metrics["update_per_cpu_s"] =
      Ratio(static_cast<double>(w_cpu.count()),
            static_cast<double>(w_cpu_ns) * 1e-9 * scale);
  res.metrics["cpu.query_us.p99"] = q_cpu.Percentile(99) * scale;
  res.metrics["cpu.update_us.p99"] = w_cpu.Percentile(99) * scale;
  res.metrics["cpu.gauge_us"] = gauge.MedianNs() * 1e-3;
  res.metrics["wall.query_per_s"] = MedianOf(slices.query_rate);
  res.metrics["wall.update_per_s"] = MedianOf(slices.update_rate);
  res.metrics["wall.query_p50_us"] = q_lat.Percentile(50);
  res.metrics["wall.query_p99_us"] = q_lat.Percentile(99);
  res.metrics["wall.update_p50_us"] = w_lat.Percentile(50);
  res.metrics["wall.update_p99_us"] = w_lat.Percentile(99);
  // Per-query I/O comes from each query's own EngineQueryStats, which counts
  // the view handle's pager; AggregatedIoStats covers only the writer's.
  res.metrics["ios_per_query"] =
      Ratio(static_cast<double>(query_io.TotalIos()), nq);
  res.metrics["ios_per_update"] = Ratio(static_cast<double>(wio.TotalIos()), nu);
  res.metrics["space_blocks_per_kpoint"] =
      static_cast<double>(engine->BlocksInUse()) * 1000.0 / n_live;

  IoStats all = query_io;
  all += wio;
  res.metrics["em.pool.hit_rate"] =
      Ratio(static_cast<double>(all.pool_hits),
            static_cast<double>(all.pool_hits + all.pool_misses));
  res.metrics["em.pool.evictions_per_op"] =
      Ratio(static_cast<double>(all.evictions), nq + nu);
  res.metrics["em.device.reads_per_op"] =
      Ratio(static_cast<double>(all.reads), nq + nu);
  res.metrics["em.device.writes_per_op"] =
      Ratio(static_cast<double>(all.writes), nq + nu);
  res.metrics["em.pager.retired_blocks_per_update"] =
      Ratio(static_cast<double>(wio.retired_blocks), nu);
  res.metrics["em.pager.file_blocks_per_kpoint"] =
      static_cast<double>(engine->AggregatedSpaceStats().file_blocks) *
      1000.0 / n_live;
  res.metrics["engine.shard_locks_per_query"] = Ratio(
      static_cast<double>(counters.query_shard_locks -
                          counters0.query_shard_locks),
      nq);
  res.metrics["engine.shards_queried_per_query"] =
      Ratio(static_cast<double>(shards_queried), nq);
  res.metrics["engine.shards_pruned_per_query"] =
      Ratio(static_cast<double>(shards_pruned), nq);
  res.metrics["engine.waves_per_query"] = Ratio(static_cast<double>(waves), nq);
  res.metrics["engine.candidates_per_result"] =
      Ratio(static_cast<double>(candidates), static_cast<double>(results));
  res.metrics["engine.merge_nodes_per_query"] =
      Ratio(static_cast<double>(merge_nodes), nq);
  res.metrics["engine.writes_per_update"] =
      Ratio(static_cast<double>(wio.writes), nu);
  res.metrics["bench.writer_late_us.p50"] = w_late.Percentile(50);
  res.metrics["bench.writer_late_us.p99"] = w_late.Percentile(99);
  res.metrics["bench.writer_late_us.max"] = w_late.Percentile(100);

  std::printf(
      "engine_mvcc_rw: n=%zu shards=%u pool_frames=%u/shard "
      "blocks_in_use=%llu at start (%.2fx the pools); 1 reader, writer "
      "released every %llu queries; timed %.2f s\n",
      kPoints, kShards, kPoolFrames,
      static_cast<unsigned long long>(blocks_at_start),
      static_cast<double>(blocks_at_start) / (kPoolFrames * kShards),
      static_cast<unsigned long long>(kQueriesPerUpdate), run_s);
  std::printf(
      "  queries=%llu writer ops=%llu (percentiles over %zu and %zu "
      "samples); writer late p50=%.0f us p99=%.0f us max=%.0f us; window "
      "answers checked=%zu; writer ops read back=%llu; "
      "query_shard_locks=0\n",
      static_cast<unsigned long long>(q_cpu.count()),
      static_cast<unsigned long long>(w_cpu.count()), q_cpu.size(),
      w_cpu.size(), w_late.Percentile(50), w_late.Percentile(99),
      w_late.Percentile(100), window.size(),
      static_cast<unsigned long long>(w_checked));

  if (args.trace) {
    const SpanSummary ss = ReportTrace(args, recs, slices, &res);
    res.metrics["engine.topk_us.p50"] =
        ss.Durations("engine.ShardedTopkEngine.TopK").Median();
    Samples upd = ss.Durations("engine.ShardedTopkEngine.Insert");
    upd.Append(ss.Durations("engine.ShardedTopkEngine.Delete"));
    res.metrics["engine.update_us.p50"] = upd.Median();
  }
  return res;
}

}  // namespace perfbench
