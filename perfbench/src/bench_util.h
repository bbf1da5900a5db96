// Shared pieces of the perfbench workloads: arguments, latency samples,
// bench-side spans, brute-force oracles and the metric table each workload
// fills in.

#ifndef TOKRA_PERFBENCH_BENCH_UTIL_H_
#define TOKRA_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/point.h"
#include "util/random.h"

namespace perfbench {

using tokra::Point;
using tokra::Rng;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // scratch space for file-backed workloads
  std::string trace_out;  // where the traced run writes its spans
};

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

inline std::uint64_t CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
// CPU time, unlike wall time, leaves out the time a thread waited for a
// processor: preemption by other processes and, in a KVM guest with steal
// accounting, time the host ran something else. Timed metrics are taken in
// CPU time so that they measure the program rather than a shared host.
/// CPU time of the calling thread, ns.
inline std::uint64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }
/// CPU time of every thread of the process, ns.
inline std::uint64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

/// Latency (or any value) samples with exact order statistics. With a
/// capacity, a uniform reservoir of that many values is kept, so memory does
/// not grow with the length of the run; `count()` still counts every value.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 0) : cap_(capacity) {}
  void Add(double v) {
    ++count_;
    if (cap_ == 0 || v_.size() < cap_) {
      v_.push_back(v);
      return;
    }
    // Reservoir step; splitmix64 of the index keeps it deterministic.
    std::uint64_t z = count_ * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const std::uint64_t j = z % count_;
    if (j < cap_) v_[j] = v;
  }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    count_ += o.count_;
  }
  void Clear() {
    v_.clear();
    count_ = 0;
  }
  /// Values kept (order statistics are over these).
  std::size_t size() const { return v_.size(); }
  /// Values added.
  std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const {
    if (v_.empty()) return 0;
    std::vector<double> c = v_;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(c.size())));
    rank = std::clamp<std::size_t>(rank, 1, c.size()) - 1;
    std::nth_element(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(rank),
                     c.end());
    return c[rank];
  }
  double Median() const { return Percentile(50); }

 private:
  std::size_t cap_;
  std::uint64_t count_ = 0;
  std::vector<double> v_;
};

/// Reservoir size of the timed phases' latency samples.
inline constexpr std::size_t kSampleCap = std::size_t{1} << 17;

/// A fixed reference job: copies pseudo-random 2 KiB blocks out of a 32 MiB
/// arena into a small ring of frames and scans each copy, the shape of a
/// buffer-pool miss followed by a node search. Its CPU time tracks how fast
/// the host currently runs this kind of code: on a shared host, neighbours
/// contending for caches and memory slow both it and the program. The
/// workloads run it between ops and scale their CPU times by
/// kGaugeRefNs / (its median), so the end-to-end times read as on a host
/// where one pass takes kGaugeRefNs.
class HostGauge {
 public:
  /// About one pass's CPU time on the 4-vCPU x86-64 (Xeon) KVM guest where
  /// the figures in perfbench/README.md were taken.
  static constexpr double kGaugeRefNs = 400e3;

  HostGauge() : arena_(kArenaWords), frames_(kFrames * kBlockWords) {
    std::uint64_t z = 88172645463325252ULL;
    for (std::uint64_t& w : arena_) {
      z ^= z << 13;
      z ^= z >> 7;
      z ^= z << 17;
      w = z;
    }
  }
  /// Runs the job three times and keeps the CPU times of the last two: the
  /// first pass warms the caches, so every sample is taken in the same
  /// state whatever ran before it.
  void Sample() {
    Run();
    ns_.Add(static_cast<double>(Run()));
    ns_.Add(static_cast<double>(Run()));
  }
  /// Median CPU time of the passes sampled so far, ns.
  double MedianNs() const { return ns_.Median(); }
  /// The factor that takes a CPU time measured while the samples were
  /// taken to the reference host.
  double Scale() const {
    return ns_.size() == 0 ? 1.0 : kGaugeRefNs / ns_.Median();
  }
  /// Drops the samples, so that the next phase is scaled by its own.
  void Restart() { ns_.Clear(); }

 private:
  /// Runs the job once; returns its CPU time in ns.
  std::uint64_t Run() {
    const std::uint64_t c0 = ThreadCpuNs();
    std::uint64_t z = state_;
    std::uint64_t sum = 0;
    for (int i = 0; i < kBlocksPerRun; ++i) {
      z ^= z << 13;
      z ^= z >> 7;
      z ^= z << 17;
      const std::size_t src = (z % (kArenaWords / kBlockWords)) * kBlockWords;
      std::uint64_t* dst = &frames_[(i % kFrames) * kBlockWords];
      std::copy_n(&arena_[src], kBlockWords, dst);
      std::size_t lo = 0, hi = kBlockWords;
      const std::uint64_t key = z;
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (dst[mid] < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      for (std::size_t j = 0; j < kBlockWords; ++j) sum += dst[j] > key;
      sum += lo;
    }
    state_ = z;
    sink_ = sink_ + sum;  // volatile: the work cannot be optimised away
    return ThreadCpuNs() - c0;
  }
  static constexpr std::size_t kArenaWords = std::size_t{1} << 22;  // 32 MiB
  static constexpr std::size_t kBlockWords = 256;
  static constexpr std::size_t kFrames = 256;
  static constexpr int kBlocksPerRun = 512;
  std::vector<std::uint64_t> arena_;
  std::vector<std::uint64_t> frames_;
  std::uint64_t state_ = 0x2545F4914F6CDD1DULL;
  volatile std::uint64_t sink_ = 0;
  Samples ns_{kSampleCap};
};

/// The median of a handful of repeated measurements (set-up times).
inline double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------- spans ---

/// One bench-side span: a call from the benchmark into a library layer, or a
/// benchmark-level request that groups such calls.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: root
  std::uint32_t thread = 0;
  std::uint64_t request = 0;
};

/// Per-thread in-memory span log. A disabled recorder reads no clock.
class SpanRecorder {
 public:
  SpanRecorder(std::uint32_t thread, bool enabled)
      : thread_(thread), enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its slot (or -1 when disabled).
  std::ptrdiff_t Begin(const char* name, std::uint64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.id = ++next_id_;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.thread = thread_;
    s.request = request;
    spans_.push_back(s);
    const std::size_t slot = spans_.size() - 1;
    open_.push_back(slot);
    spans_[slot].start_ns = NowNs();
    return static_cast<std::ptrdiff_t>(slot);
  }
  void End(std::ptrdiff_t slot) {
    if (slot < 0) return;
    spans_[static_cast<std::size_t>(slot)].end_ns = NowNs();
    open_.pop_back();
  }
  /// Renames an open span, for a name known only once the call returns.
  void Rename(std::ptrdiff_t slot, const char* name) {
    if (slot >= 0) spans_[static_cast<std::size_t>(slot)].name = name;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t thread_;
  bool enabled_;
  std::uint32_t next_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t request)
      : rec_(rec), slot_(rec->Begin(name, request)) {}
  ~ScopedSpan() { rec_->End(slot_); }
  void Rename(const char* name) { rec_->Rename(slot_, name); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::ptrdiff_t slot_;
};

/// Durations and self times (duration minus the union of the child spans'
/// intervals) per span name, in microseconds.
struct SpanSummary {
  std::map<std::string, Samples> duration_us;
  std::map<std::string, Samples> self_us;
  std::size_t spans = 0;

  /// The durations of every span called `name` (empty if none).
  Samples Durations(const std::string& name) const {
    auto it = duration_us.find(name);
    return it == duration_us.end() ? Samples() : it->second;
  }
};
SpanSummary Summarize(const std::vector<const SpanRecorder*>& recorders);

/// Writes every span as one JSON object per line.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders);

// --------------------------------------------------------------- oracle ---

/// The exact live point set, with O(1) insert, erase and uniform pick.
class LiveSet {
 public:
  void Reset(const std::vector<Point>& pts) {
    pts_ = pts;
    pos_.clear();
    scores_.clear();
    for (std::size_t i = 0; i < pts_.size(); ++i) {
      pos_[pts_[i].x] = i;
      scores_.insert(pts_[i].score);
    }
  }
  std::size_t size() const { return pts_.size(); }
  const std::vector<Point>& points() const { return pts_; }
  bool Fresh(const Point& p) const {
    return !pos_.contains(p.x) && !scores_.contains(p.score);
  }
  void Add(const Point& p) {
    pos_[p.x] = pts_.size();
    scores_.insert(p.score);
    pts_.push_back(p);
  }
  Point Pick(Rng* rng) const { return pts_[rng->Uniform(pts_.size())]; }
  void Remove(const Point& p) {
    const std::size_t i = pos_.at(p.x);
    pos_.erase(p.x);
    scores_.erase(p.score);
    if (i + 1 != pts_.size()) {
      pts_[i] = pts_.back();
      pos_[pts_[i].x] = i;
    }
    pts_.pop_back();
  }

 private:
  std::vector<Point> pts_;
  std::unordered_map<double, std::size_t> pos_;
  std::unordered_set<double> scores_;
};

/// Brute-force top-k over an unordered point set.
std::vector<Point> BruteTopK(std::span<const Point> pts, double x1, double x2,
                             std::uint64_t k);

/// Order-sensitive hash of an answer list.
std::uint64_t AnswerHash(const std::vector<Point>& pts);

/// `n` points with distinct x in [0, x_hi) and distinct scores in (0, 1).
std::vector<Point> RandomPoints(Rng* rng, std::size_t n, double x_hi);

// The engine workloads put keys on an integer grid so that each writer draws
// fresh points from its own residue class: base points are class 0, writer c
// uses class c + 1, and no two writers can collide on x or score.
inline constexpr double kGridXHi = 4398046511104.0;  // 2^42

/// A point on the grid: x in [0, kGridXHi), score in [0, 1), both congruent
/// to `cls` mod 4 in grid units.
inline Point GridPoint(Rng* rng, unsigned cls) {
  const double x =
      static_cast<double>(rng->Uniform(std::uint64_t{1} << 40) * 4 + cls);
  const double s =
      static_cast<double>(rng->Uniform(std::uint64_t{1} << 49) * 4 + cls) *
      0x1.0p-51;
  return Point{x, s};
}

/// `n` distinct class-0 grid points.
std::vector<Point> GridBase(Rng* rng, std::size_t n);

// --------------------------------------------------------------- result ---

/// Everything a workload measured. `metrics` holds both the end-to-end and
/// the per-layer values by name; main() selects the set the run reports.
struct WorkloadResult {
  bool correct = true;
  std::string failure;  // first correctness failure, for the log
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Share of `part` in `whole`, 0 when `whole` is 0.
inline double Ratio(double part, double whole) {
  return whole == 0 ? 0 : part / whole;
}

// --------------------------------------------------------------- slices ---

inline constexpr double kSliceS = 0.5;

/// Per-slice bookkeeping of a timed phase. Rates are reported as the median
/// over slices, so one disturbed slice does not move the figure. The traced
/// run alternates untraced and traced slices; the rate gap between them is
/// the tracing overhead.
struct SliceLog {
  std::vector<double> query_rate, update_rate;  // untraced slices only
  double plain_ops = 0, plain_s = 0, traced_ops = 0, traced_s = 0;

  void Add(double len, std::uint64_t queries, std::uint64_t updates,
           bool traced) {
    const double ops = static_cast<double>(queries + updates);
    if (traced) {
      traced_ops += ops;
      traced_s += len;
      return;
    }
    plain_ops += ops;
    plain_s += len;
    query_rate.push_back(static_cast<double>(queries) / len);
    update_rate.push_back(static_cast<double>(updates) / len);
  }
  /// 0 until both kinds of slice have run.
  double OverheadPct() const {
    const double traced = Ratio(traced_ops, traced_s);
    const double plain = Ratio(plain_ops, plain_s);
    return traced == 0 || plain == 0 ? 0 : (plain / traced - 1.0) * 100;
  }
};

/// Sleeps through `seconds` from `t_start` in slices, logging the rates of
/// the two counters the workload threads advance. With `trace`, turns
/// `*tracing` on for every other slice.
SliceLog SampleSlices(double t_start, double seconds, bool trace,
                      const std::atomic<std::uint64_t>& queries,
                      const std::atomic<std::uint64_t>& updates,
                      std::atomic<bool>* tracing);

/// The traced run's report: sets trace.spans and trace.overhead_pct, prints
/// the duration and self-time medians per span name, writes the spans to
/// args.trace_out, and returns the summary for the workload's own metrics.
SpanSummary ReportTrace(const Args& args,
                        const std::vector<const SpanRecorder*>& recorders,
                        const SliceLog& slices, WorkloadResult* r);

WorkloadResult RunIndexKscan(const Args& args);
WorkloadResult RunEngineWalMixed(const Args& args);
WorkloadResult RunEngineMvccRw(const Args& args);

}  // namespace perfbench

#endif  // TOKRA_PERFBENCH_BENCH_UTIL_H_
