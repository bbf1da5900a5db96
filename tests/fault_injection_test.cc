// Fault-injection torture harness for the durability stack.
//
// Methodology (the LevelDB/SQLite discipline): run a fixed, seeded workload
// once with an unarmed FaultInjector to count every I/O site, then replay
// the identical workload once per site with one fault armed at that exact
// operation index. After every injected failure the harness asserts the
// graceful-degradation contract end to end:
//
//   * no process abort, ever — injected faults surface as Status
//     (kIoError / kResourceExhausted), never as a CHECK;
//   * at most the one faulted shard leaves service; queries covering only
//     the other shards keep answering;
//   * Recover() in a fresh engine restores an oracle-consistent state with
//     ZERO acknowledged updates lost: every update the engine acknowledged
//     is present (inserts) or gone (deletes) after recovery, and every
//     surviving point is explained by the oracle. Updates that returned an
//     error have unknown commit state (the fault may have landed between
//     the durable append and its acknowledgement) and are allowed either
//     way — the standard at-least-once ambiguity on failure.
//
// The sweep runs twice, on locked shards and on MVCC epoch views; each leg
// ends with a line `TORTURE SUMMARY: mvcc=off|on fault_points=N aborts=0
// acknowledged_lost=0` that CI greps.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "em/fault_device.h"
#include "em/file_block_device.h"
#include "em/pager.h"
#include "em/wal.h"
#include "engine/sharded_engine.h"
#include "util/point.h"
#include "util/random.h"

namespace tokra {
namespace {

namespace fs = std::filesystem;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A unique temp directory for one test; removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("tokra-fault-" + tag + "-" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string File(const std::string& name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Device-level unit tests: the injected-fault model itself.
// ---------------------------------------------------------------------------

em::EmOptions FileEm(const std::string& path, em::FaultInjector* fault) {
  em::EmOptions o;
  o.block_words = 16;
  o.pool_frames = 8;
  o.backend = em::Backend::kFile;
  o.path = path;
  o.fault = fault;
  return o;
}

std::vector<em::word_t> Pattern(em::word_t tag, std::size_t n) {
  std::vector<em::word_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = tag * 1000 + i;
  return v;
}

TEST(FaultDeviceTest, ReadFaultDeliversBytesAndLatchesStickyError) {
  TempDir dir("read");
  em::FaultInjector inj;
  auto dev = em::MakeBlockDevice(FileEm(dir.File("d.blk"), &inj),
                                 /*truncate_file=*/true);
  dev->EnsureCapacity(4);
  const auto a = Pattern(7, 16);
  dev->Write(2, a.data());
  inj.Arm(em::FaultInjector::Kind::kReadError, 0);
  std::vector<em::word_t> got(16, 0);
  dev->Read(2, got.data());
  EXPECT_EQ(got, a);  // true bytes delivered underneath the failure
  EXPECT_EQ(dev->io_status().code(), StatusCode::kIoError);
  EXPECT_EQ(dev->io_errors(), 1u);
  EXPECT_EQ(dev->injected_faults(), 1u);
  EXPECT_EQ(inj.injected(em::FaultInjector::Kind::kReadError), 1u);
  // Sticky: the error does not clear, and later reads stay coherent.
  dev->Read(2, got.data());
  EXPECT_EQ(got, a);
  EXPECT_EQ(dev->io_status().code(), StatusCode::kIoError);
}

TEST(FaultDeviceTest, PostFailureWritesStayCoherentButOffTheMedium) {
  TempDir dir("overlay");
  const std::string path = dir.File("d.blk");
  em::FaultInjector inj;
  const auto a = Pattern(1, 16), b = Pattern(2, 16);
  {
    auto dev = em::MakeBlockDevice(FileEm(path, &inj), /*truncate_file=*/true);
    dev->EnsureCapacity(4);
    dev->Write(2, a.data());
    inj.Arm(em::FaultInjector::Kind::kWriteError, 0);
    dev->Write(3, a.data());  // the armed fault: performed, then latched
    EXPECT_EQ(dev->io_status().code(), StatusCode::kIoError);
    // Post-failure writes land in the overlay: the live process reads them
    // back coherently...
    dev->Write(2, b.data());
    std::vector<em::word_t> got(16, 0);
    dev->Read(2, got.data());
    EXPECT_EQ(got, b);
    // ...including writes beyond the frozen device size (a grown region the
    // medium never saw), which read back zero-filled once un-written.
    dev->EnsureCapacity(10);
    std::vector<em::word_t> beyond(16, 1);
    dev->Read(9, beyond.data());
    EXPECT_EQ(beyond, std::vector<em::word_t>(16, 0));
  }
  // ...but the medium was frozen at the failure point: a reopen sees the
  // pre-failure bytes, exactly what recovery must be able to trust.
  auto re = em::MakeBlockDevice(FileEm(path, nullptr), /*truncate_file=*/false);
  std::vector<em::word_t> got(16, 0);
  re->Read(2, got.data());
  EXPECT_EQ(got, a);
}

TEST(FaultDeviceTest, TornWritePersistsPrefixServesShadow) {
  TempDir dir("torn");
  const std::string path = dir.File("d.blk");
  em::FaultInjector inj;
  const auto old_bytes = Pattern(3, 16), new_bytes = Pattern(4, 16);
  {
    auto dev = em::MakeBlockDevice(FileEm(path, &inj), /*truncate_file=*/true);
    dev->EnsureCapacity(4);
    dev->Write(2, old_bytes.data());
    inj.Arm(em::FaultInjector::Kind::kTornWrite, 0, /*seed=*/5);
    dev->Write(2, new_bytes.data());
    EXPECT_EQ(dev->io_status().code(), StatusCode::kIoError);
    // The live process keeps seeing the intended bytes (shadow copy)...
    std::vector<em::word_t> got(16, 0);
    dev->Read(2, got.data());
    EXPECT_EQ(got, new_bytes);
  }
  // ...while the medium holds a prefix of the new bytes over the old tail.
  auto re = em::MakeBlockDevice(FileEm(path, nullptr), /*truncate_file=*/false);
  std::vector<em::word_t> got(16, 0);
  re->Read(2, got.data());
  EXPECT_NE(got, new_bytes);
  EXPECT_NE(got, old_bytes);
  EXPECT_EQ(got[0], new_bytes[0]);    // some prefix of the new write
  EXPECT_EQ(got[15], old_bytes[15]);  // the old tail survives
}

TEST(FaultDeviceTest, SyncFaultIsFsyncgate) {
  TempDir dir("sync");
  em::FaultInjector inj;
  em::EmOptions o = FileEm(dir.File("d.blk"), &inj);
  o.durable_sync = true;
  auto dev = em::MakeBlockDevice(o, /*truncate_file=*/true);
  dev->EnsureCapacity(4);
  dev->Sync();
  EXPECT_EQ(dev->syncs(), 1u);
  inj.Arm(em::FaultInjector::Kind::kSyncError, 0);
  dev->Sync();  // barrier skipped; error latched
  EXPECT_EQ(dev->io_status().code(), StatusCode::kIoError);
  EXPECT_EQ(dev->syncs(), 1u);
  // fsyncgate: after one failed barrier, no later Sync() ever acknowledges
  // again — a clean retry would falsely promise durability for writes the
  // failed barrier dropped.
  dev->Sync();
  dev->Sync();
  EXPECT_EQ(dev->syncs(), 1u);
  EXPECT_EQ(dev->io_status().code(), StatusCode::kIoError);
}

TEST(FaultDeviceTest, GrowFaultIsResourceExhausted) {
  TempDir dir("grow");
  em::FaultInjector inj;
  auto dev = em::MakeBlockDevice(FileEm(dir.File("d.blk"), &inj),
                                 /*truncate_file=*/true);
  dev->EnsureCapacity(2);
  inj.Arm(em::FaultInjector::Kind::kGrowError, 0);
  dev->EnsureCapacity(8);
  EXPECT_EQ(dev->io_status().code(), StatusCode::kResourceExhausted);
}

TEST(FaultDeviceTest, MissingFileOpensAsStickyFailedDevice) {
  TempDir dir("missing");
  em::EmOptions o = FileEm(dir.File("no-such-dir") + "/d.blk", nullptr);
  auto dev = em::MakeBlockDevice(o, /*truncate_file=*/false);
  ASSERT_NE(dev, nullptr);  // construction never aborts
  EXPECT_EQ(dev->io_status().code(), StatusCode::kIoError);
  EXPECT_EQ(dev->NumBlocks(), 0u);
  // Reads on the failed device are defined (zero-fill), not fatal.
  std::vector<em::word_t> got(16, 1);
  dev->Read(0, got.data());
  EXPECT_EQ(got, std::vector<em::word_t>(16, 0));
}

TEST(PagerFaultTest, OpenMissingFileReturnsNotFound) {
  TempDir dir("pager-missing");
  em::EmOptions o = FileEm(dir.File("d.blk"), nullptr);
  auto r = em::Pager::Open(o);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(PagerFaultTest, SuperblockBitFlipFallsBackOrRefuses) {
  TempDir dir("pager-flip");
  const std::string path = dir.File("d.blk");
  {
    em::Pager pager(FileEm(path, nullptr));
    em::BlockId b = pager.Allocate();
    em::PageRef page = pager.Create(b);
    page.Set(0, 42);
    ASSERT_TRUE(pager.Checkpoint({&b, 1}).ok());
  }
  // The first checkpoint lives in slot 1; slot 0 was never valid. Flipping
  // a bit of slot 0's read changes nothing; flipping slot 1's read must be
  // caught by the checksum and refused as a Status — silent corruption on
  // the only valid superblock is detected, never trusted and never fatal.
  {
    em::FaultInjector inj;
    inj.Arm(em::FaultInjector::Kind::kBitFlip, 0, /*seed=*/123);
    auto r = em::Pager::Open(FileEm(path, &inj));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->roots().size(), 1u);
  }
  {
    em::FaultInjector inj;
    inj.Arm(em::FaultInjector::Kind::kBitFlip, 1, /*seed=*/123);
    auto r = em::Pager::Open(FileEm(path, &inj));
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

// ---------------------------------------------------------------------------
// The engine torture harness.
// ---------------------------------------------------------------------------

std::vector<Point> SeedPoints(std::size_t n) {
  // Deterministic, distinct x and scores (no RNG: the sweep replays the
  // byte-identical workload per fault point).
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Point{1000.0 + 13.0 * static_cast<double>(i),
                        1.0 + 0.001 * static_cast<double>(i)});
  }
  return pts;
}

engine::EngineOptions TortureOptions(const std::string& dir,
                                     bool mvcc = false) {
  engine::EngineOptions opts;
  opts.mvcc = mvcc;
  opts.num_shards = 3;
  opts.threads = 1;  // single worker: deterministic I/O-site ordering
  opts.telemetry.enabled = false;
  opts.durability = engine::Durability::kWal;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 8};
  opts.storage_dir = dir;
  return opts;
}

struct Oracle {
  std::map<double, double> committed;  ///< acknowledged state (x -> score)
  std::set<double> uncertain;  ///< x's whose last update's outcome is unknown
  std::set<double> deleted;    ///< acknowledged deletes
};

constexpr std::size_t kSeedN = 150;
constexpr std::size_t kWorkOps = 110;

/// The fixed workload: a mix of inserts (fresh keys), deletes (of seed
/// keys), queries, and one mid-stream checkpoint. Every update's outcome is
/// folded into the oracle; every status is asserted to be graceful.
void RunWorkload(engine::ShardedTopkEngine* eng,
                 const std::vector<Point>& seed, Oracle* oracle) {
  auto note_update = [oracle](double x, double score, bool insert, Status st) {
    ASSERT_TRUE(st.ok() || st.code() == StatusCode::kIoError ||
                st.code() == StatusCode::kResourceExhausted ||
                st.code() == StatusCode::kFailedPrecondition)
        << st.ToString();
    if (st.ok()) {
      if (insert) {
        oracle->committed.emplace(x, score);
      } else {
        oracle->committed.erase(x);
        oracle->deleted.insert(x);
      }
    } else {
      // An errored delete may still be replayed by recovery: x is no longer
      // promised present, only explained if it is.
      if (!insert) oracle->committed.erase(x);
      oracle->uncertain.insert(x);
    }
  };
  std::size_t deleted_idx = 0;
  for (std::size_t t = 0; t < kWorkOps; ++t) {
    if (t == kWorkOps / 2) {
      Status cp = eng->Checkpoint();  // error is fine; abort is not
      (void)cp;
    }
    if (t % 4 == 3) {
      const double a = 900.0 + 37.0 * static_cast<double>(t % 29);
      auto r = eng->TopK(a, a + 400.0, 16);
      if (!r.ok()) {
        EXPECT_TRUE(r.status().code() == StatusCode::kIoError ||
                    r.status().code() == StatusCode::kResourceExhausted)
            << r.status().ToString();
      }
    } else if (t % 7 == 5 && deleted_idx < seed.size()) {
      const Point& p = seed[deleted_idx];
      deleted_idx += 3;
      note_update(p.x, p.score, /*insert=*/false, eng->Delete(p));
    } else {
      const Point p{2.0e6 + 11.0 * static_cast<double>(t),
                    2.0 + 0.001 * static_cast<double>(t)};
      note_update(p.x, p.score, /*insert=*/true, eng->Insert(p));
    }
  }
}

/// One x per shard, chosen so a TopK(x, x, k) probes exactly that shard.
std::vector<double> ShardProbePoints(const std::vector<double>& lb) {
  std::vector<double> probes(lb.size());
  for (std::size_t i = 0; i < lb.size(); ++i) {
    if (i == 0) {
      probes[i] = lb[1] - 1.0;
    } else if (i + 1 < lb.size()) {
      probes[i] = (lb[i] + lb[i + 1]) / 2.0;
    } else {
      probes[i] = lb[i] + 1.0;
    }
  }
  return probes;
}

/// Runs the seeded workload against a fresh engine with `inj` armed (or
/// not), asserts post-fault availability of the healthy shards, recovers
/// into a clean engine, and verifies the oracle. Returns the number of
/// acknowledged updates lost (0 on a healthy implementation).
std::uint64_t TortureRun(const std::string& tag, em::FaultInjector* inj,
                         bool expect_fired, bool mvcc) {
  TempDir dir(tag);
  engine::EngineOptions opts = TortureOptions(dir.path(), mvcc);
  opts.em.fault = inj;
  const auto seed = SeedPoints(kSeedN);
  Oracle oracle;
  for (const Point& p : seed) oracle.committed.emplace(p.x, p.score);

  {
    auto built = engine::ShardedTopkEngine::Build(seed, opts);
    if (!built.ok()) {
      // The fault landed inside Build/first-checkpoint: nothing was ever
      // acknowledged beyond the constructor's own contract; there is
      // nothing to recover. Graceful refusal is the assertion.
      EXPECT_TRUE(expect_fired);
      return 0;
    }
    auto& eng = *built;
    RunWorkload(eng.get(), seed, &oracle);

    // Availability: a single injected fault can degrade at most the one
    // shard whose device stack it hit; every other shard keeps answering.
    const std::vector<double> lb = eng->ShardLowerBounds();
    std::uint32_t healthy = 0;
    for (double x : ShardProbePoints(lb)) {
      if (eng->TopK(x, x, 4).ok()) ++healthy;
    }
    EXPECT_GE(healthy + 1, lb.size()) << "more than one shard degraded";
    eng->CheckInvariants();  // skips failed shards; must not abort
  }

  if (expect_fired) {
    EXPECT_EQ(inj->injected_total(), 1u);
  }

  // Recover in a clean configuration (no injector): the medium must hold a
  // consistent checkpoint + log regardless of where the fault landed.
  engine::EngineOptions clean = TortureOptions(dir.path(), mvcc);
  engine::RecoveryReport report;
  auto rec = engine::ShardedTopkEngine::Recover(clean, &report);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  if (!rec.ok()) return oracle.committed.size();  // everything lost
  auto& eng = *rec;

  const std::uint64_t n = eng->size();
  auto all = eng->TopK(-kInf, kInf, n + 16);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  if (!all.ok()) return oracle.committed.size();
  std::map<double, double> recovered;
  for (const Point& p : *all) recovered.emplace(p.x, p.score);
  EXPECT_EQ(recovered.size(), n);

  std::uint64_t lost = 0;
  for (const auto& [x, score] : oracle.committed) {
    auto it = recovered.find(x);
    if (it == recovered.end() || it->second != score) ++lost;
  }
  for (double x : oracle.deleted) {
    if (recovered.count(x) != 0) ++lost;  // acknowledged delete resurrected
  }
  // Every recovered point must be explained: committed, or an uncertain op
  // the fault left in the at-least-once window.
  for (const auto& [x, score] : recovered) {
    auto it = oracle.committed.find(x);
    const bool explained = (it != oracle.committed.end() &&
                            it->second == score) ||
                           oracle.uncertain.count(x) != 0;
    EXPECT_TRUE(explained) << "unexplained recovered point x=" << x;
  }

  // The recovered engine is live: it serves and accepts updates.
  EXPECT_TRUE(eng->TopK(-kInf, kInf, 4).ok());
  EXPECT_TRUE(eng->Insert(Point{9.9e6, 99.0}).ok());
  eng->CheckInvariants();
  return lost;
}

/// Evenly spaced sample of `want` indices in [0, count).
std::vector<std::uint64_t> SampleIndices(std::uint64_t count,
                                         std::uint64_t want) {
  std::vector<std::uint64_t> idx;
  if (count == 0) return idx;
  if (count <= want) {
    for (std::uint64_t i = 0; i < count; ++i) idx.push_back(i);
    return idx;
  }
  for (std::uint64_t i = 0; i < want; ++i) {
    idx.push_back(i * count / want);
  }
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  return idx;
}

/// Discovery pass, then one run per armed fault point; `mvcc` serves every
/// query from published epoch views instead of the locked shards.
void SweepEveryIoSite(bool mvcc) {
  const std::string leg = mvcc ? "mvcc-" : "locked-";
  // Discovery pass: count the workload's I/O sites per category.
  em::FaultInjector discover;
  ASSERT_EQ(TortureRun(leg + "discover", &discover, /*expect_fired=*/false,
                       mvcc),
            0u);
  const em::FaultInjector::OpCounts sites = discover.ops_seen();
  ASSERT_GT(sites.reads, 0u);
  ASSERT_GT(sites.writes, 0u);
  ASSERT_GT(sites.syncs, 0u);
  ASSERT_GT(sites.grows, 0u);

  // Reads and writes are sampled; every sync and grow site is swept.
  struct Schedule {
    em::FaultInjector::Kind kind;
    const char* name;
    std::uint64_t count;
    std::uint64_t want;
  };
  const Schedule schedules[] = {
      {em::FaultInjector::Kind::kReadError, "read", sites.reads, 56},
      {em::FaultInjector::Kind::kWriteError, "write", sites.writes, 56},
      {em::FaultInjector::Kind::kTornWrite, "torn", sites.writes, 48},
      {em::FaultInjector::Kind::kSyncError, "sync", sites.syncs, sites.syncs},
      {em::FaultInjector::Kind::kGrowError, "grow", sites.grows, sites.grows},
  };

  std::uint64_t fault_points = 0, acknowledged_lost = 0;
  for (const Schedule& sc : schedules) {
    const auto indices = SampleIndices(sc.count, sc.want);
    for (std::uint64_t at : indices) {
      em::FaultInjector inj;
      inj.Arm(sc.kind, at, /*seed=*/at * 2 + 1);
      ++fault_points;
      acknowledged_lost +=
          TortureRun(leg + sc.name + "-" + std::to_string(at), &inj,
                     /*expect_fired=*/true, mvcc);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(fault_points, 200u);
  EXPECT_EQ(acknowledged_lost, 0u);
  // CI greps this line; reaching it at all proves aborts=0.
  std::printf("TORTURE SUMMARY: mvcc=%s fault_points=%llu aborts=0 "
              "acknowledged_lost=%llu\n",
              mvcc ? "on" : "off",
              static_cast<unsigned long long>(fault_points),
              static_cast<unsigned long long>(acknowledged_lost));
  std::fflush(stdout);
}

TEST(FaultTortureTest, SweepEveryIoSite) { SweepEveryIoSite(/*mvcc=*/false); }

TEST(FaultTortureTest, SweepEveryIoSiteMvcc) {
  SweepEveryIoSite(/*mvcc=*/true);
}

// ---------------------------------------------------------------------------
// Targeted engine legs.
// ---------------------------------------------------------------------------

TEST(FaultTortureTest, FsyncgateUnderDurableSync) {
  // Under kWalFsyncEveryBatch every group commit is a real fsync; a failed
  // log barrier must un-acknowledge the group, flip the shard read-only,
  // and never be retried into a false acknowledgement.
  TempDir dir("fsyncgate");
  em::FaultInjector inj;
  engine::EngineOptions opts = TortureOptions(dir.path());
  opts.durability = engine::Durability::kWalFsyncEveryBatch;
  opts.em.fault = &inj;
  const auto seed = SeedPoints(40);
  auto built = engine::ShardedTopkEngine::Build(seed, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& eng = *built;

  ASSERT_TRUE(eng->Insert(Point{5e6, 50.0}).ok());
  // Arm the NEXT sync (the one committing the following insert's record).
  inj.Arm(em::FaultInjector::Kind::kSyncError, 0);
  const Point doomed{5e6 + 1, 51.0};
  Status st = eng->Insert(doomed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(inj.injected_total(), 1u);

  // The rolled-back point is re-insertable in principle but its shard is
  // read-only now: every further update there reports the sticky error.
  EXPECT_EQ(eng->Insert(doomed).code(), StatusCode::kIoError);
  EXPECT_EQ(eng->Delete(Point{5e6, 50.0}).code(), StatusCode::kIoError);

  // Destroy, recover: the acknowledged insert survives, the revoked one is
  // allowed either way (its record never reached a successful barrier —
  // with the barrier skipped it may still be in the page cache; both are
  // within the contract).
  built->reset();
  auto rec = engine::ShardedTopkEngine::Recover(TortureOptions(dir.path()));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  auto all = (*rec)->TopK(-kInf, kInf, 200);
  ASSERT_TRUE(all.ok());
  EXPECT_NE(std::find(all->begin(), all->end(), Point{5e6, 50.0}),
            all->end());
}

TEST(FaultTortureTest, EnospcGrowFaultFailsCleanlyAndRecovers) {
  TempDir dir("enospc-inject");
  em::FaultInjector inj;
  engine::EngineOptions opts = TortureOptions(dir.path());
  opts.em.fault = &inj;
  const auto seed = SeedPoints(60);
  auto built = engine::ShardedTopkEngine::Build(seed, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& eng = *built;

  // Arm the next device growth, then insert until some update trips it.
  inj.Arm(em::FaultInjector::Kind::kGrowError, 0);
  std::vector<Point> acked;
  Status failed = Status::Ok();
  for (std::size_t t = 0; t < 4000 && failed.ok(); ++t) {
    const Point p{3e6 + static_cast<double>(t), 300.0 + 0.001 * t};
    Status st = eng->Insert(p);
    if (st.ok()) {
      acked.push_back(p);
    } else {
      failed = st;
    }
  }
  ASSERT_FALSE(failed.ok()) << "grow fault never fired";
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);

  // Healthy shards keep serving.
  const std::vector<double> lb = eng->ShardLowerBounds();
  std::uint32_t healthy = 0;
  for (double x : ShardProbePoints(lb)) {
    if (eng->TopK(x, x, 4).ok()) ++healthy;
  }
  EXPECT_GE(healthy + 1, lb.size());

  built->reset();
  auto rec = engine::ShardedTopkEngine::Recover(TortureOptions(dir.path()));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  auto all = (*rec)->TopK(-kInf, kInf, seed.size() + acked.size() + 16);
  ASSERT_TRUE(all.ok());
  std::set<double> xs;
  for (const Point& p : *all) xs.insert(p.x);
  for (const Point& p : seed) EXPECT_EQ(xs.count(p.x), 1u);
  for (const Point& p : acked) EXPECT_EQ(xs.count(p.x), 1u);
  (*rec)->CheckInvariants();
}

TEST(FaultTortureTest, EnospcViaRlimitFsize) {
  // Real refused growth: cap the file size with RLIMIT_FSIZE so ftruncate
  // and pwrite genuinely fail with EFBIG. SIGXFSZ must be ignored or the
  // kernel kills the process instead of failing the syscall.
  TempDir dir("enospc-rlimit");
  engine::EngineOptions opts = TortureOptions(dir.path());
  const auto seed = SeedPoints(60);
  auto built = engine::ShardedTopkEngine::Build(seed, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& eng = *built;
  ASSERT_TRUE(eng->Checkpoint().ok());

  std::uintmax_t max_file = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    max_file = std::max(max_file, fs::file_size(entry.path()));
  }

  struct rlimit old_limit {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit capped = old_limit;
  capped.rlim_cur = static_cast<rlim_t>(max_file + 8 * 1024);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);

  std::vector<Point> acked;
  Status failed = Status::Ok();
  for (std::size_t t = 0; t < 20000 && failed.ok(); ++t) {
    const Point p{4e6 + static_cast<double>(t), 400.0 + 0.001 * t};
    Status st = eng->Insert(p);
    if (st.ok()) {
      acked.push_back(p);
    } else {
      failed = st;
    }
  }
  // Lift the cap before asserting: recovery needs headroom again.
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);

  ASSERT_FALSE(failed.ok()) << "file-size cap never tripped";
  EXPECT_TRUE(failed.code() == StatusCode::kResourceExhausted ||
              failed.code() == StatusCode::kIoError)
      << failed.ToString();

  // Healthy shards keep serving under the refused growth.
  const std::vector<double> lb = eng->ShardLowerBounds();
  std::uint32_t healthy = 0;
  for (double x : ShardProbePoints(lb)) {
    if (eng->TopK(x, x, 4).ok()) ++healthy;
  }
  EXPECT_GE(healthy + 1, lb.size());

  built->reset();
  auto rec = engine::ShardedTopkEngine::Recover(TortureOptions(dir.path()));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  auto all = (*rec)->TopK(-kInf, kInf, seed.size() + acked.size() + 16);
  ASSERT_TRUE(all.ok());
  std::set<double> xs;
  for (const Point& p : *all) xs.insert(p.x);
  for (const Point& p : seed) EXPECT_EQ(xs.count(p.x), 1u);
  for (const Point& p : acked) EXPECT_EQ(xs.count(p.x), 1u);
  (*rec)->CheckInvariants();
}

TEST(FaultTortureTest, FailedShardSurfacesInMetrics) {
  TempDir dir("metrics");
  em::FaultInjector inj;
  engine::EngineOptions opts = TortureOptions(dir.path());
  opts.telemetry.enabled = true;
  opts.em.fault = &inj;
  auto built = engine::ShardedTopkEngine::Build(SeedPoints(60), opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& eng = *built;

  std::string dump = eng->DumpMetrics();
  EXPECT_NE(dump.find("tokra_engine_failed_shards 0"), std::string::npos)
      << dump;

  inj.Arm(em::FaultInjector::Kind::kWriteError, 0);
  Status st = Status::Ok();
  for (std::size_t t = 0; t < 4000 && st.ok(); ++t) {
    st = eng->Insert(Point{6e6 + static_cast<double>(t), 600.0 + 0.001 * t});
  }
  ASSERT_FALSE(st.ok()) << "write fault never fired";

  dump = eng->DumpMetrics();
  EXPECT_NE(dump.find("tokra_engine_failed_shards 1"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("tokra_em_io_errors_total"), std::string::npos);
  EXPECT_NE(dump.find("tokra_em_injected_faults_total"), std::string::npos);
  const em::IoStats io = eng->AggregatedIoStats();
  EXPECT_GE(io.io_errors, 1u);
  EXPECT_GE(io.injected_faults, 1u);
}

}  // namespace
}  // namespace tokra
