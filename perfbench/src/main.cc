// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file>]
//
// Runs one workload through the library's public API, checks its answers,
// and prints human-readable lines followed by one JSON line:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set derived from bench-side spans and counters. A failed
// correctness check exits non-zero and prints no metrics.

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported with --trace 0. Every one is defined, and never 0, on every
// workload. Op costs are CPU time scaled by the host gauge (see HostGauge):
// on a shared host the wall-clock figures of the same build moved by half
// between runs, so they are reported per layer. The cost per op is a mean:
// the median of engine_mvcc_rw's queries falls between two modes and moved
// twice as much between runs.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_per_cpu_s", "1/s"},
    {"update_per_cpu_s", "1/s"},
    {"ios_per_query", "count"},
    {"ios_per_update", "count"},
    {"space_blocks_per_kpoint", "blocks"},
    {"peak_rss_mb", "MiB"},
};

// Reported with --trace 1. A metric a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"wall.query_per_s", "1/s"},
    {"wall.query_p50_us", "us"},
    {"wall.query_p99_us", "us"},
    {"wall.update_per_s", "1/s"},
    {"wall.update_p50_us", "us"},
    {"wall.update_p99_us", "us"},
    {"cpu.query_us.p50", "us"},
    {"cpu.query_us.p99", "us"},
    {"cpu.update_us.p50", "us"},
    {"cpu.update_us.p99", "us"},
    {"cpu.gauge_us", "us"},
    {"core.topk_us.pilot_direct.p50", "us"},
    {"core.topk_us.lemma4.p50", "us"},
    {"core.ios_per_query.k_lt_cutoff", "count"},
    {"core.ios_per_query.k_ge_cutoff", "count"},
    {"core.pins_per_query", "count"},
    {"core.retries_per_query", "count"},
    {"core.candidates_per_result", "ratio"},
    {"core.ios_per_update", "count"},
    {"core.update_us.p50", "us"},
    {"em.pool.hit_rate", "ratio"},
    {"em.pool.evictions_per_op", "count"},
    {"em.device.reads_per_op", "count"},
    {"em.device.writes_per_op", "count"},
    {"em.wal.appends_per_update", "count"},
    {"em.pager.checkpoint_s", "s"},
    {"em.pager.writes_per_checkpoint", "count"},
    {"em.pager.retired_blocks_per_update", "count"},
    {"em.pager.file_blocks_per_kpoint", "blocks"},
    {"engine.topk_us.p50", "us"},
    {"engine.shard_locks_per_query", "count"},
    {"engine.shards_queried_per_query", "count"},
    {"engine.shards_pruned_per_query", "count"},
    {"engine.waves_per_query", "count"},
    {"engine.candidates_per_result", "ratio"},
    {"engine.merge_nodes_per_query", "count"},
    {"engine.batch_us.p50", "us"},
    {"engine.batch_size", "count"},
    {"engine.update_us.p50", "us"},
    {"engine.writes_per_update", "count"},
    {"engine.recover_s", "s"},
    {"engine.recover_replayed_ops", "count"},
    {"bench.error_rate", "ratio"},
    {"bench.writer_late_us.p50", "us"},
    {"bench.writer_late_us.p99", "us"},
    {"bench.writer_late_us.max", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Point> BruteTopK(std::span<const Point> pts, double x1, double x2,
                             std::uint64_t k) {
  std::vector<Point> in;
  for (const Point& p : pts) {
    if (p.x >= x1 && p.x <= x2) in.push_back(p);
  }
  const std::size_t take = std::min<std::size_t>(in.size(), k);
  std::partial_sort(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(take),
                    in.end(), tokra::ByScoreDesc());
  in.resize(take);
  return in;
}

std::uint64_t AnswerHash(const std::vector<Point>& pts) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](double d) {
    std::uint64_t w;
    std::memcpy(&w, &d, sizeof(w));
    h = (h ^ w) * 1099511628211ULL;
  };
  for (const Point& p : pts) {
    mix(p.x);
    mix(p.score);
  }
  return h ^ pts.size();
}

std::vector<Point> RandomPoints(Rng* rng, std::size_t n, double x_hi) {
  auto xs = rng->DistinctDoubles(n, 0.0, x_hi);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

std::vector<Point> GridBase(Rng* rng, std::size_t n) {
  LiveSet seen;
  while (seen.size() < n) {
    const Point p = GridPoint(rng, 0);
    if (seen.Fresh(p)) seen.Add(p);
  }
  return seen.points();
}

SpanSummary Summarize(const std::vector<const SpanRecorder*>& recorders) {
  SpanSummary out;
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    out.spans += spans.size();
    // Span ids are dense per recorder (1..n in slot order), so a child's
    // parent sits at slot parent-1.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
      if (s.parent != 0) kids[s.parent - 1].push_back({s.start_ns, s.end_ns});
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::uint64_t covered = 0, lo = 0, hi = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
        } else {
          if (open) covered += hi - lo;
          lo = a;
          hi = b;
          open = true;
        }
      }
      if (open) covered += hi - lo;
      out.duration_us[s.name].Add(dur);
      out.self_us[s.name].Add(dur - static_cast<double>(covered) * 1e-3);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%u,\"id\":%u,\"parent\":%u,"
                   "\"request\":%" PRIu64 ",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 "}\n",
                   s.name, s.thread, s.id, s.parent, s.request, s.start_ns,
                   s.end_ns);
    }
  }
  return std::fclose(f) == 0;
}

SliceLog SampleSlices(double t_start, double seconds, bool trace,
                      const std::atomic<std::uint64_t>& queries,
                      const std::atomic<std::uint64_t>& updates,
                      std::atomic<bool>* tracing) {
  SliceLog log;
  std::uint64_t q_prev = 0, u_prev = 0, slice_no = 0;
  double s_prev = t_start;
  while (NowS() - t_start < seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kSliceS));
    const double now = NowS();
    const std::uint64_t q = queries.load(), u = updates.load();
    log.Add(now - s_prev, q - q_prev, u - u_prev, tracing->load());
    q_prev = q;
    u_prev = u;
    s_prev = now;
    tracing->store(trace && ++slice_no % 2 == 1);
  }
  return log;
}

SpanSummary ReportTrace(const Args& args,
                        const std::vector<const SpanRecorder*>& recorders,
                        const SliceLog& slices, WorkloadResult* r) {
  SpanSummary sum = Summarize(recorders);
  r->metrics["trace.spans"] = static_cast<double>(sum.spans);
  r->metrics["trace.overhead_pct"] = slices.OverheadPct();
  for (const auto& [name, d] : sum.duration_us) {
    std::printf("  span %-40s n=%-7zu p50=%9.1f us  self p50=%9.1f us\n",
                name.c_str(), d.size(), d.Median(),
                sum.self_us.at(name).Median());
  }
  if (!args.trace_out.empty() && !WriteSpans(args.trace_out, recorders)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
  return sum;
}

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "index_kscan|engine_wal_mixed|engine_mvcc_rw --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.work_dir.empty()) Usage("missing arguments");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  WorkloadResult r;
  if (args.workload == "index_kscan") {
    r = RunIndexKscan(args);
  } else if (args.workload == "engine_wal_mixed") {
    r = RunEngineWalMixed(args);
  } else if (args.workload == "engine_mvcc_rw") {
    r = RunEngineMvccRw(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (!r.correct) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 r.failure.c_str());
    return 1;
  }
  r.metrics["peak_rss_mb"] = PeakRssMb();
  r.metrics["bench.error_rate"] =
      Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& m : kPerLayer) {
      auto it = r.metrics.find(m.name);
      emit(m, it == r.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      auto it = r.metrics.find(m.name);
      if (it == r.metrics.end() || !(it->second > 0)) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                     m.name);
        return 1;
      }
      emit(m, it->second);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
