// Workload engine_wal_mixed: the durable write path of ShardedTopkEngine.
//
// 4 shards on the file backend with Durability::kWal (the log rides the OS
// page cache, no fsync), 256 pool frames per shard against ~22k blocks of
// data, 2 engine threads. One closed-loop client issues bursts of 10 ops:
// 60% TopK (k = 10, ranges 1% of the key space wide, 90% of them inside the
// hottest 5% of keys), called directly so every query returns its
// EngineQueryStats; 40% insert/delete churn, submitted through one
// RequestBatcher and flushed at the end of the burst (the group commit).
// Checkpoint() runs every kCheckpointEvery acknowledged updates. The run
// stops half-way between checkpoints, so a WAL tail remains, and Recover()
// is then timed and checked against the live engine.
//
// With one client, every engine thread that runs works for the op in
// flight, so an op's CPU cost is the process's CPU time across it, and the
// op sequence, hence every count, is a function of the seed alone.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "engine/batcher.h"
#include "engine/sharded_engine.h"

namespace perfbench {
namespace {

using tokra::engine::EngineOptions;
using tokra::engine::EngineQueryStats;
using tokra::engine::Request;
using tokra::engine::RequestBatcher;
using tokra::engine::Response;
using tokra::engine::ShardedTopkEngine;
using tokra::em::IoStats;

constexpr std::size_t kPoints = std::size_t{1} << 17;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kEngineThreads = 2;
constexpr std::uint32_t kPoolFrames = 256;
constexpr int kBurst = 10;
constexpr double kQueryShare = 0.6;
constexpr std::uint64_t kK = 10;
constexpr std::uint64_t kCheckpointEvery = 4000;
constexpr std::size_t kBatchMax = 64;
constexpr int kSetupReps = 7;
constexpr int kWarmupQueries = 256;
constexpr int kProbeQueries = 64;
// Host gauge samples after each set-up, and one per kGaugeEvery bursts.
constexpr int kGaugeSetupSamples = 4;
constexpr std::uint64_t kGaugeEvery = 64;

constexpr double kXHi = kGridXHi;
constexpr double kRangeW = 0.01 * kXHi;
constexpr double kHotLo = 0.30 * kXHi;
constexpr double kHotW = 0.05 * kXHi;

std::pair<double, double> NextRange(Rng* rng) {
  const double lo = rng->Bernoulli(0.9)
                        ? rng->UniformDouble(kHotLo, kHotLo + kHotW - kRangeW)
                        : rng->UniformDouble(0, kXHi - kRangeW);
  return {lo, lo + kRangeW};
}

EngineOptions Options(const std::string& dir) {
  EngineOptions o;
  o.num_shards = kShards;
  o.threads = kEngineThreads;
  o.em.block_words = 256;
  o.em.pool_frames = kPoolFrames;
  o.storage_dir = dir;
  o.durability = tokra::engine::Durability::kWal;
  return o;
}

}  // namespace

WorkloadResult RunEngineWalMixed(const Args& args) {
  namespace fs = std::filesystem;
  WorkloadResult res;
  Rng gen(args.seed);
  const std::vector<Point> base = GridBase(&gen, kPoints);

  SpanRecorder main_rec(0, args.trace);
  HostGauge gauge;
  std::unique_ptr<ShardedTopkEngine> engine;
  std::string dir;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = args.work_dir + "/wal-" + std::to_string(rep);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::uint64_t t0 = ProcessCpuNs();
    {
      ScopedSpan s(&main_rec, "engine.ShardedTopkEngine.Build", 0);
      auto built = ShardedTopkEngine::Build(base, Options(dir));
      if (!built.ok()) {
        res.Fail("Build: " + built.status().ToString());
        return res;
      }
      engine = std::move(*built);
    }
    {
      ScopedSpan s(&main_rec, "engine.ShardedTopkEngine.Checkpoint", 0);
      if (!engine->Checkpoint().ok()) {
        res.Fail("initial Checkpoint failed");
        return res;
      }
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

  Rng rng(args.seed * 1000003ULL + 1);
  SpanRecorder rec(1, false);
  LiveSet live;  // the acknowledged point set
  live.Reset(base);
  Samples q_lat(kSampleCap), u_lat(kSampleCap);
  Samples q_cpu(kSampleCap), u_cpu(kSampleCap);
  std::uint64_t q_cpu_ns = 0, u_cpu_ns = 0;
  std::uint64_t results = 0;
  IoStats query_io;
  std::uint64_t shards_queried = 0, shards_pruned = 0, waves = 0;
  std::uint64_t candidates = 0, merge_nodes = 0;
  Samples ckpt_s, ckpt_writes;

  auto batcher = std::make_unique<RequestBatcher>(engine.get(), kBatchMax);
  std::atomic<std::uint64_t> queries_done{0}, updates_done{0};
  std::atomic<bool> draining{false}, tracing{false};
  std::uint64_t acked = 0;
  // A client that cannot reach the mid-interval stop point (every update
  // rejected) still stops; the size check then reports the failure.
  const double hard_stop = NowS() + args.seconds + 60;
  const IoStats io0 = engine->AggregatedIoStats();
  const auto counters0 = engine->counters();
  const auto bstats0 = batcher->stats();

  // The client: closed loop over bursts.
  auto client_main = [&] {
    std::uint64_t request = 0;
    for (std::uint64_t burst = 0;; ++burst) {
      if (draining.load(std::memory_order_relaxed) &&
          (acked % kCheckpointEvery >= kCheckpointEvery / 2 ||
           NowS() > hard_stop)) {
        break;
      }
      if (burst % kGaugeEvery == 0) gauge.Sample();
      rec.set_enabled(args.trace && tracing.load(std::memory_order_relaxed));
      // The burst: queries run directly, updates are collected for the
      // batcher.
      std::vector<std::pair<bool, Point>> updates;
      for (int i = 0; i < kBurst; ++i) {
        ++request;
        if (rng.Bernoulli(kQueryShare)) {
          const auto [x1, x2] = NextRange(&rng);
          EngineQueryStats qs;
          const std::uint64_t t0 = NowNs();
          const std::uint64_t c0 = ProcessCpuNs();
          tokra::StatusOr<std::vector<Point>> ans = std::vector<Point>{};
          {
            ScopedSpan s(&rec, "engine.ShardedTopkEngine.TopK", request);
            ans = engine->TopK(x1, x2, kK, &qs);
          }
          const std::uint64_t cpu = ProcessCpuNs() - c0;
          q_lat.Add(static_cast<double>(NowNs() - t0) * 1e-3);
          q_cpu.Add(static_cast<double>(cpu) * 1e-3);
          q_cpu_ns += cpu;
          ++res.attempted;
          queries_done.fetch_add(1, std::memory_order_relaxed);
          if (!ans.ok()) {
            ++res.failed;
            continue;
          }
          results += ans->size();
          query_io += qs.io;
          shards_queried += qs.shards_queried;
          shards_pruned += qs.shards_pruned;
          waves += qs.waves;
          candidates += qs.shard_candidates;
          merge_nodes += qs.merge_nodes_visited;
        } else if (rng.Bernoulli(0.5) && live.size() > 0) {
          const Point v = live.Pick(&rng);
          live.Remove(v);
          updates.push_back({false, v});
        } else {
          Point p;
          do {
            p = GridPoint(&rng, 1);
          } while (!live.Fresh(p));
          live.Add(p);
          updates.push_back({true, p});
        }
      }
      if (updates.empty()) continue;
      // The group commit: every update of the burst is charged an equal
      // share of the CPU time from the first Submit to the last answer.
      const std::uint64_t c0 = ProcessCpuNs();
      std::vector<std::future<Response>> futs;
      std::vector<std::uint64_t> submitted;
      for (const auto& [ins, p] : updates) {
        ScopedSpan s(&rec, "engine.RequestBatcher.Submit", request);
        submitted.push_back(NowNs());
        futs.push_back(batcher->Submit(ins ? Request::MakeInsert(p)
                                           : Request::MakeDelete(p)));
      }
      {
        const bool work = batcher->pending() > 0;
        ScopedSpan s(&rec, "engine.RequestBatcher.Flush", request);
        batcher->Flush();
        if (!work) s.Rename("engine.RequestBatcher.Flush[empty]");
      }
      std::vector<Response> answers;
      for (auto& f : futs) answers.push_back(f.get());
      const std::uint64_t end = NowNs();
      const std::uint64_t cpu = ProcessCpuNs() - c0;
      u_cpu_ns += cpu;
      std::uint64_t ok = 0;
      for (std::size_t i = 0; i < answers.size(); ++i) {
        u_lat.Add(static_cast<double>(end - submitted[i]) * 1e-3);
        u_cpu.Add(static_cast<double>(cpu) * 1e-3 /
                  static_cast<double>(answers.size()));
        ++res.attempted;
        if (answers[i].status.ok()) {
          ++ok;
          continue;
        }
        // The engine rejected the update, so the live set reverts.
        ++res.failed;
        const auto& [ins, p] = updates[i];
        if (ins) {
          live.Remove(p);
        } else {
          live.Add(p);
        }
      }
      updates_done.fetch_add(ok, std::memory_order_relaxed);
      const std::uint64_t before = acked;
      acked += ok;
      if (before / kCheckpointEvery != acked / kCheckpointEvery) {
        // Checkpoint cost is update cost: it counts in update_per_cpu_s.
        const IoStats w0 = engine->AggregatedIoStats();
        const double t0 = NowS();
        const std::uint64_t k0 = ProcessCpuNs();
        tokra::Status st;
        {
          ScopedSpan s(&rec, "engine.ShardedTopkEngine.Checkpoint", request);
          st = engine->Checkpoint();
        }
        u_cpu_ns += ProcessCpuNs() - k0;
        ckpt_s.Add(NowS() - t0);
        ckpt_writes.Add(static_cast<double>(
            (engine->AggregatedIoStats() - w0).writes));
        ++res.attempted;
        if (!st.ok()) ++res.failed;
      }
    }
  };

  const double t_start = NowS();
  std::thread client(client_main);
  const SliceLog slices = SampleSlices(t_start, args.seconds, args.trace,
                                       queries_done, updates_done, &tracing);
  draining.store(true);
  client.join();
  const double run_s = NowS() - t_start;

  const IoStats io = engine->AggregatedIoStats() - io0;
  const auto counters = engine->counters();
  const auto bstats = batcher->stats();
  const std::vector<const SpanRecorder*> recs = {&main_rec, &rec};

  // ---- Correctness: the live engine against the exact point set, then the
  // recovered engine against the live one.
  if (engine->size() != live.size()) {
    res.Fail("engine size " + std::to_string(engine->size()) +
             " != acknowledged point set " + std::to_string(live.size()));
    return res;
  }
  // The whole set in one query, then 64 probes with the workload's k.
  const std::uint64_t k_all = live.size() + 1;
  const std::vector<Point> want_all = BruteTopK(live.points(), 0, kXHi, k_all);
  auto whole = engine->TopK(0, kXHi, k_all);
  if (!whole.ok() || *whole != want_all) {
    res.Fail("live engine's answer over the whole key space differs from "
             "the acknowledged point set");
    return res;
  }
  Rng probe_rng(args.seed ^ 0x50524f42ULL);
  std::vector<std::pair<double, double>> probes;
  std::vector<std::vector<Point>> live_answers;
  for (int i = 0; i < kProbeQueries; ++i) {
    probes.push_back(NextRange(&probe_rng));
    auto ans = engine->TopK(probes.back().first, probes.back().second, kK);
    if (!ans.ok() || *ans != BruteTopK(live.points(), probes.back().first,
                                       probes.back().second, kK)) {
      res.Fail("live engine answer differs from the brute-force oracle");
      return res;
    }
    live_answers.push_back(*ans);
  }
  const double blocks = static_cast<double>(engine->BlocksInUse());
  const double n_live = static_cast<double>(engine->size());
  const double file_blocks =
      static_cast<double>(engine->AggregatedSpaceStats().file_blocks);
  batcher.reset();
  engine.reset();  // the drop: the WAL tail past the last checkpoint remains

  tokra::engine::RecoveryReport report;
  const double r0 = NowS();
  {
    ScopedSpan s(&main_rec, "engine.ShardedTopkEngine.Recover", 0);
    auto recovered = ShardedTopkEngine::Recover(Options(dir), &report);
    if (!recovered.ok()) {
      res.Fail("Recover: " + recovered.status().ToString());
      return res;
    }
    engine = std::move(*recovered);
  }
  const double recover_s = NowS() - r0;
  if (engine->size() != live.size()) {
    res.Fail("recovered size " + std::to_string(engine->size()) +
             " != live size " + std::to_string(live.size()));
    return res;
  }
  whole = engine->TopK(0, kXHi, k_all);
  if (!whole.ok() || *whole != want_all) {
    res.Fail("recovered engine's answer over the whole key space differs "
             "from the live engine's point set");
    return res;
  }
  for (int i = 0; i < kProbeQueries; ++i) {
    auto ans = engine->TopK(probes[i].first, probes[i].second, kK);
    if (!ans.ok() || *ans != live_answers[i]) {
      res.Fail("recovered engine answer differs from the live engine's");
      return res;
    }
  }
  engine.reset();
  fs::remove_all(dir);

  // ---- Metrics.
  const double nq = static_cast<double>(q_cpu.count());
  const double nu = static_cast<double>(updates_done.load());
  const double query_ios = static_cast<double>(query_io.TotalIos());
  const double scale = gauge.Scale();
  res.metrics["setup_s"] = MedianOf(setup) * setup_scale;
  res.metrics["cpu.query_us.p50"] = q_cpu.Percentile(50) * scale;
  res.metrics["query_per_cpu_s"] =
      Ratio(nq, static_cast<double>(q_cpu_ns) * 1e-9 * scale);
  res.metrics["cpu.update_us.p50"] = u_cpu.Percentile(50) * scale;
  res.metrics["update_per_cpu_s"] =
      Ratio(nu, static_cast<double>(u_cpu_ns) * 1e-9 * scale);
  res.metrics["cpu.query_us.p99"] = q_cpu.Percentile(99) * scale;
  res.metrics["cpu.update_us.p99"] = u_cpu.Percentile(99) * scale;
  res.metrics["cpu.gauge_us"] = gauge.MedianNs() * 1e-3;
  res.metrics["wall.query_per_s"] = MedianOf(slices.query_rate);
  res.metrics["wall.update_per_s"] = MedianOf(slices.update_rate);
  res.metrics["wall.query_p50_us"] = q_lat.Percentile(50);
  res.metrics["wall.query_p99_us"] = q_lat.Percentile(99);
  res.metrics["wall.update_p50_us"] = u_lat.Percentile(50);
  res.metrics["wall.update_p99_us"] = u_lat.Percentile(99);
  res.metrics["ios_per_query"] = Ratio(query_ios, nq);
  // Everything the shard pagers transferred that no query did: update
  // write-back, group commit and checkpoint flushes.
  res.metrics["ios_per_update"] =
      Ratio(static_cast<double>(io.TotalIos()) - query_ios, nu);
  res.metrics["space_blocks_per_kpoint"] = blocks * 1000.0 / n_live;

  res.metrics["em.pool.hit_rate"] =
      Ratio(static_cast<double>(io.pool_hits),
            static_cast<double>(io.pool_hits + io.pool_misses));
  res.metrics["em.pool.evictions_per_op"] =
      Ratio(static_cast<double>(io.evictions), nq + nu);
  res.metrics["em.device.reads_per_op"] =
      Ratio(static_cast<double>(io.reads), nq + nu);
  res.metrics["em.device.writes_per_op"] =
      Ratio(static_cast<double>(io.writes), nq + nu);
  res.metrics["em.wal.appends_per_update"] =
      Ratio(static_cast<double>(io.wal_appends), nu);
  res.metrics["em.pager.checkpoint_s"] = ckpt_s.Median();
  res.metrics["em.pager.writes_per_checkpoint"] = ckpt_writes.Median();
  res.metrics["em.pager.file_blocks_per_kpoint"] =
      file_blocks * 1000.0 / n_live;
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
  res.metrics["engine.batch_size"] =
      Ratio(static_cast<double>(bstats.requests - bstats0.requests),
            static_cast<double>(bstats.batches - bstats0.batches));
  res.metrics["engine.writes_per_update"] = Ratio(
      static_cast<double>(io.writes) - static_cast<double>(query_io.writes),
      nu);
  res.metrics["engine.recover_s"] = recover_s;
  res.metrics["engine.recover_replayed_ops"] =
      static_cast<double>(report.replayed_ops);

  std::printf(
      "engine_wal_mixed: n=%zu shards=%u pool_frames=%u/shard "
      "blocks_in_use=%llu at start, %.0f at end (%.0fx the pools); "
      "kWal, no fsync; timed %.2f s\n",
      kPoints, kShards, kPoolFrames,
      static_cast<unsigned long long>(blocks_at_start), blocks,
      blocks / (kPoolFrames * kShards), run_s);
  std::printf(
      "  queries=%llu updates=%llu (percentiles over %zu and %zu samples); "
      "checkpoints=%zu every %llu acked updates; recover %.3f s replayed "
      "%llu ops\n",
      static_cast<unsigned long long>(q_cpu.count()),
      static_cast<unsigned long long>(u_cpu.count()), q_cpu.size(),
      u_cpu.size(), ckpt_s.size(),
      static_cast<unsigned long long>(kCheckpointEvery), recover_s,
      static_cast<unsigned long long>(report.replayed_ops));

  if (args.trace) {
    const SpanSummary ss = ReportTrace(args, recs, slices, &res);
    res.metrics["engine.topk_us.p50"] =
        ss.Durations("engine.ShardedTopkEngine.TopK").Median();
    res.metrics["engine.batch_us.p50"] =
        ss.Durations("engine.RequestBatcher.Flush").Median();
  }
  return res;
}

}  // namespace perfbench
