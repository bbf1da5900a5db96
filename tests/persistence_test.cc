// Persistence tests: pager superblock round trips, TopkIndex
// checkpoint/reopen fidelity on the file backend, mem-vs-file I/O-count
// parity, and full sharded-engine recovery.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/topk_index.h"
#include "em/file_block_device.h"
#include "em/pager.h"
#include "em/wal.h"
#include "engine/sharded_engine.h"
#include "internal/naive.h"
#include "lemma4/structure.h"
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
             ("tokra-persist-" + tag + "-" + std::to_string(::getpid())))
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

std::vector<Point> MakePoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, 1e6);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

struct Query {
  double x1, x2;
  std::uint64_t k;
};

std::vector<Query> MakeQueries(Rng* rng, std::size_t count) {
  std::vector<Query> qs(count);
  for (auto& q : qs) {
    double a = rng->UniformDouble(0.0, 1e6), b = rng->UniformDouble(0.0, 1e6);
    q = {std::min(a, b), std::max(a, b), 1 + rng->Uniform(128)};
  }
  return qs;
}

TEST(PagerPersistenceTest, CheckpointRestoresAllocatorAndRoots) {
  TempDir dir("pager");
  em::EmOptions opts{.block_words = 16,
                     .pool_frames = 8,
                     .backend = em::Backend::kFile,
                     .path = dir.File("dev.blk")};
  std::vector<em::BlockId> live;
  std::set<em::BlockId> freed;
  std::uint64_t in_use;
  {
    em::Pager pager(opts);
    // 64 blocks with known contents; free every third one — enough to spill
    // the free list past the superblock's inline capacity (16 words - 14
    // header - 2 roots = 0 inline slots).
    std::vector<em::BlockId> ids;
    for (int i = 0; i < 64; ++i) ids.push_back(pager.Allocate());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      em::PageRef p = pager.Create(ids[i]);
      p.Set(0, 1000 + i);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 3 == 0) {
        pager.Free(ids[i]);
        freed.insert(ids[i]);
      } else {
        live.push_back(ids[i]);
      }
    }
    ASSERT_GT(freed.size(), 6u);  // forces a spill
    in_use = pager.BlocksInUse();
    std::uint64_t roots[2] = {live[0], 424242};
    ASSERT_TRUE(pager.Checkpoint(roots).ok());
  }
  auto reopened = em::Pager::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  em::Pager& pager = **reopened;
  ASSERT_EQ(pager.roots().size(), 2u);
  EXPECT_EQ(pager.roots()[0], live[0]);
  EXPECT_EQ(pager.roots()[1], 424242u);
  EXPECT_EQ(pager.BlocksInUse(), in_use);
  // Live blocks kept their contents.
  for (std::size_t i = 0; i < live.size(); ++i) {
    em::PageRef p = pager.Fetch(live[i]);
    EXPECT_GE(p.Get(0), 1000u);
  }
  // The free list survived: the next |freed| allocations reuse exactly the
  // freed ids (order is allocator-internal, membership is the contract).
  std::set<em::BlockId> reallocated;
  for (std::size_t i = 0; i < freed.size(); ++i) {
    reallocated.insert(pager.Allocate());
  }
  EXPECT_EQ(reallocated, freed);
  // With the free list drained, fresh allocation resumes past the old
  // high-water mark instead of clobbering live blocks.
  em::BlockId fresh = pager.Allocate();
  EXPECT_EQ(freed.count(fresh), 0u);
  for (em::BlockId id : live) EXPECT_NE(fresh, id);
}

// Regression for the checkpoint-durability contract: work done *after* a
// checkpoint (allocations, writes, evictions) must never overwrite state
// that recovering the checkpoint would read — in particular the free-list
// spill region.
TEST(PagerPersistenceTest, PostCheckpointWritesDoNotCorruptRecovery) {
  TempDir dir("pager-crash");
  em::EmOptions opts{.block_words = 16,
                     .pool_frames = 8,
                     .backend = em::Backend::kFile,
                     .path = dir.File("dev.blk")};
  std::set<em::BlockId> freed;
  std::vector<em::BlockId> live;
  {
    em::Pager pager(opts);
    std::vector<em::BlockId> ids;
    for (int i = 0; i < 64; ++i) ids.push_back(pager.Allocate());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      em::PageRef p = pager.Create(ids[i]);
      p.Set(0, 5000 + i);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 2 == 0) {
        pager.Free(ids[i]);
        freed.insert(ids[i]);
      } else {
        live.push_back(ids[i]);
      }
    }
    std::uint64_t root = live[0];
    ASSERT_TRUE(pager.Checkpoint({&root, 1}).ok());
    // "Crash" window: drain the free list and keep allocating + writing —
    // the allocator must not hand out the spill region the checkpoint
    // depends on.
    for (int i = 0; i < 128; ++i) {
      em::BlockId id = pager.Allocate();
      em::PageRef p = pager.Create(id);
      p.Set(0, 0xDEADBEEF);
    }
    pager.FlushAll();  // post-checkpoint dirty data reaches the file
  }  // no second Checkpoint: simulates a crash after the flush
  auto reopened = em::Pager::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  em::Pager& pager = **reopened;
  // The recovered free list is exactly the checkpointed one.
  std::set<em::BlockId> reallocated;
  for (std::size_t i = 0; i < freed.size(); ++i) {
    reallocated.insert(pager.Allocate());
  }
  EXPECT_EQ(reallocated, freed);
  for (em::BlockId id : live) {
    em::PageRef p = pager.Fetch(id);
    EXPECT_GE(p.Get(0), 5000u);  // live data intact
  }
}

// A torn/corrupted newest superblock slot falls back to the previous
// checkpoint instead of failing (or worse, loading garbage).
TEST(PagerPersistenceTest, TornSuperblockFallsBackToPreviousCheckpoint) {
  TempDir dir("pager-torn");
  em::EmOptions opts{.block_words = 16,
                     .pool_frames = 8,
                     .backend = em::Backend::kFile,
                     .path = dir.File("dev.blk")};
  {
    em::Pager pager(opts);
    em::BlockId id = pager.Allocate();
    { em::PageRef p = pager.Create(id); p.Set(0, 77); }
    std::uint64_t root = 11;
    ASSERT_TRUE(pager.Checkpoint({&root, 1}).ok());  // epoch 1
    root = 22;
    ASSERT_TRUE(pager.Checkpoint({&root, 1}).ok());  // epoch 2
  }
  {
    // Corrupt the epoch-2 slot (slot 2 % 2 == 0) as a torn write would.
    em::FileBlockDevice dev(16, {.path = dir.File("dev.blk"),
                                 .truncate = false});
    std::vector<em::word_t> junk(16, 0);
    dev.Read(0, junk.data());
    junk[15] ^= 1;  // flip one payload bit: checksum no longer matches
    dev.Write(0, junk.data());
  }
  auto reopened = em::Pager::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->roots().size(), 1u);
  EXPECT_EQ((*reopened)->roots()[0], 11u);  // the epoch-1 checkpoint
}

TEST(PagerPersistenceTest, OpenRejectsMismatchedGeometryAndMissingFile) {
  TempDir dir("pager-mismatch");
  em::EmOptions opts{.block_words = 32,
                     .pool_frames = 8,
                     .backend = em::Backend::kFile,
                     .path = dir.File("dev.blk")};
  {
    em::Pager pager(opts);
    ASSERT_TRUE(pager.Checkpoint({}).ok());
  }
  em::EmOptions wrong = opts;
  wrong.block_words = 64;
  EXPECT_EQ(em::Pager::Open(wrong).status().code(),
            StatusCode::kFailedPrecondition);
  em::EmOptions missing = opts;
  missing.path = dir.File("nope.blk");
  EXPECT_EQ(em::Pager::Open(missing).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(em::Pager::Open(em::EmOptions{}).status().code(),
            StatusCode::kInvalidArgument);  // mem backend cannot reopen
}

TEST(PagerPersistenceTest, UncheckpointedDeviceIsRejected) {
  TempDir dir("pager-raw");
  em::EmOptions opts{.block_words = 16,
                     .pool_frames = 8,
                     .backend = em::Backend::kFile,
                     .path = dir.File("dev.blk")};
  {
    em::Pager pager(opts);
    em::BlockId id = pager.Allocate();
    em::PageRef p = pager.Create(id);
    p.Set(0, 1);
    pager.FlushAll();  // data reaches the file, but no Checkpoint()
  }
  EXPECT_EQ(em::Pager::Open(opts).status().code(),
            StatusCode::kFailedPrecondition);
}

// The ISSUE acceptance suite: a TopkIndex built on FileBlockDevice,
// checkpointed, and reopened on a fresh pager answers a 10k-query oracle
// suite byte-identically to the pre-checkpoint index.
TEST(TopkIndexPersistenceTest, CheckpointReopenAnswersIdentically) {
  TempDir dir("topk");
  em::EmOptions opts{.block_words = 64,
                     .pool_frames = 32,
                     .backend = em::Backend::kFile,
                     .path = dir.File("index.blk")};
  Rng rng(7);
  auto points = MakePoints(&rng, 1500);
  auto queries = MakeQueries(&rng, 10000);

  std::vector<std::vector<Point>> before;
  before.reserve(queries.size());
  {
    em::Pager pager(opts);
    auto built = core::TopkIndex::Build(&pager, points);
    ASSERT_TRUE(built.ok());
    auto& idx = *built;
    for (const Query& q : queries) {
      auto r = idx->TopK(q.x1, q.x2, q.k);
      ASSERT_TRUE(r.ok());
      before.push_back(std::move(*r));
    }
    ASSERT_TRUE(idx->Checkpoint().ok());
  }  // pager (and its fd) destroyed: simulates process exit

  auto reopened = em::Pager::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto opened = core::TopkIndex::Open(reopened->get());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& idx = *opened;
  EXPECT_EQ(idx->size(), points.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto r = idx->TopK(queries[i].x1, queries[i].x2, queries[i].k);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, before[i]) << "query " << i << " diverged after reopen";
  }
  idx->CheckInvariants();

  // The reopened index is fully live: updates work and a second
  // checkpoint/reopen cycle still agrees with itself.
  Rng urng(8);
  auto extra = MakePoints(&urng, 64);
  for (const Point& p : extra) {
    ASSERT_TRUE(idx->Insert(Point{p.x + 2e6, p.score + 2.0}).ok());
  }
  EXPECT_EQ(idx->size(), points.size() + extra.size());
  ASSERT_TRUE(idx->Checkpoint().ok());
  auto again = em::Pager::Open(opts);
  ASSERT_TRUE(again.ok());
  auto idx2 = core::TopkIndex::Open(again->get());
  ASSERT_TRUE(idx2.ok());
  EXPECT_EQ((*idx2)->size(), points.size() + extra.size());
  (*idx2)->CheckInvariants();
}

// Files written while TopkIndex still composed a selector carry it in meta
// words 1 and 3-7 (kind, meta block, build options). Such a file must still
// open and serve from the pilot PST; the selector's blocks stay allocated.
TEST(TopkIndexPersistenceTest, OpensFilesWrittenWithASelector) {
  TempDir dir("topk-selector");
  em::EmOptions opts{.block_words = 64,
                     .pool_frames = 32,
                     .backend = em::Backend::kFile,
                     .path = dir.File("index.blk")};
  Rng rng(9);
  auto points = MakePoints(&rng, 1500);
  std::uint64_t blocks_in_use = 0;
  {
    em::Pager pager(opts);
    auto built = core::TopkIndex::Build(&pager, points);
    ASSERT_TRUE(built.ok());
    const lemma4::Lemma4Selector::Params params{.fanout = 4, .l = 64,
                                                .leaf_cap = 512};
    auto sel = lemma4::Lemma4Selector::Build(&pager, points, params);
    ASSERT_TRUE((*built)->Checkpoint().ok());
    // Rewrite the meta block as an older build left it, then re-commit.
    const std::vector<std::uint64_t> roots = pager.roots();
    {
      em::PageRef mp = pager.Fetch(roots[0]);
      mp.Set(1, 1);  // selector kind: Lemma 4
      mp.Set(3, sel.meta_block());
      mp.Set(4, 2);  // build option: Lemma 4 forced
      mp.Set(5, params.fanout);
      mp.Set(6, params.l);
      mp.Set(7, params.leaf_cap);
    }
    ASSERT_TRUE(pager.Checkpoint(roots).ok());
    blocks_in_use = pager.BlocksInUse();
  }

  auto reopened = em::Pager::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto opened = core::TopkIndex::Open(reopened->get());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& idx = *opened;
  EXPECT_EQ(idx->size(), points.size());
  EXPECT_EQ((*reopened)->BlocksInUse(), blocks_in_use);
  for (const Query& q : MakeQueries(&rng, 500)) {
    auto r = idx->TopK(q.x1, q.x2, q.k);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, internal::NaiveTopK(points, q.x1, q.x2, q.k));
  }
  idx->CheckInvariants();
  ASSERT_TRUE(idx->Insert(Point{5e6, 7.0}).ok());
  ASSERT_TRUE(idx->Checkpoint().ok());
}

// A checkpoint every 10 updates rewrites the allocator stream thousands of
// times. Its spill regions must recycle (DESIGN §5.2): the file stays
// within a constant factor of the live space, with and without COW, and
// the last checkpoint reopens with every block accounted for.
TEST(TopkIndexPersistenceTest, FrequentCheckpointsKeepTheFileBounded) {
  TempDir dir("spill");
  for (bool cow : {false, true}) {
    SCOPED_TRACE(cow ? "cow_epochs" : "plain");
    em::EmOptions opts{.block_words = 64,
                       .pool_frames = 32,
                       .backend = em::Backend::kFile,
                       .path = dir.File(cow ? "cow.blk" : "plain.blk"),
                       .cow_epochs = cow};
    Rng rng(31);
    std::vector<Point> live = MakePoints(&rng, 4000);
    {
      em::Pager pager(opts);
      auto index = core::TopkIndex::Build(&pager, live).value();
      std::uint64_t peak = pager.Space().allocated_blocks;
      // A random walk of n: pilot rebuilds free and claim blocks in bursts,
      // so the free list, and with it the stream, keeps changing size.
      for (int u = 1; u <= 50000; ++u) {
        if (rng.Uniform(2) == 0) {
          const Point p{rng.UniformDouble(0.0, 1e6), 2.0 + 1e-6 * u};
          ASSERT_TRUE(index->Insert(p).ok());
          live.push_back(p);
        } else {
          const std::size_t victim = rng.Uniform(live.size());
          ASSERT_TRUE(index->Delete(live[victim]).ok());
          live[victim] = live.back();
          live.pop_back();
        }
        if (u % 10 == 0) ASSERT_TRUE(index->Checkpoint().ok());
        if (u % 100 == 0) {
          const em::SpaceStats s = pager.Space();
          peak = std::max(peak, s.allocated_blocks);
          ASSERT_LE(s.file_blocks, 4 * peak) << "after " << u << " updates";
        }
      }
    }
    auto pager = em::Pager::Open(opts);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    auto index = core::TopkIndex::Open(pager->get());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto all = (*index)->TopK(-kInf, kInf, live.size() + 1);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->size(), live.size());
    // COW leaves out orphans too (a location whose name is still held).
    const em::SpaceStats s = (*pager)->Space();
    if (!cow) {
      EXPECT_EQ(s.allocated_blocks + s.free_blocks + s.reserved_blocks,
                s.file_blocks);
    }
    (*index)->CheckInvariants();
  }
}

// Mem and file backends must report identical I/O counters for the same
// deterministic workload: the counting layer is backend-independent.
TEST(BackendParityTest, IdenticalIoCountsAcrossBackends) {
  TempDir dir("parity");
  auto run = [&](const em::EmOptions& opts) -> em::IoStats {
    em::Pager pager(opts);
    Rng rng(11);
    auto points = MakePoints(&rng, 800);
    auto built = core::TopkIndex::Build(&pager, points);
    TOKRA_CHECK(built.ok());
    auto& idx = *built;
    auto queries = MakeQueries(&rng, 200);
    for (const Query& q : queries) {
      pager.DropCache();  // cold-cache queries exercise real device reads
      TOKRA_CHECK(idx->TopK(q.x1, q.x2, q.k).ok());
    }
    for (int i = 0; i < 100; ++i) {
      TOKRA_CHECK(idx->Insert(Point{2e6 + i, 2.0 + i * 1e-3}).ok());
      TOKRA_CHECK(idx->Delete(points[i]).ok());
    }
    pager.FlushAll();
    return pager.stats();
  };
  em::IoStats mem = run(em::EmOptions{.block_words = 64, .pool_frames = 16});
  em::IoStats file = run(em::EmOptions{.block_words = 64,
                                       .pool_frames = 16,
                                       .backend = em::Backend::kFile,
                                       .path = dir.File("parity.blk")});
  EXPECT_EQ(mem.reads, file.reads);
  EXPECT_EQ(mem.writes, file.writes);
  EXPECT_EQ(mem.pool_hits, file.pool_hits);
  EXPECT_EQ(mem.pool_misses, file.pool_misses);
  EXPECT_EQ(mem.evictions, file.evictions);
}

TEST(EnginePersistenceTest, CheckpointRecoverRoundTrip) {
  TempDir dir("engine");
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.threads = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();

  Rng rng(21);
  auto points = MakePoints(&rng, 2000);
  auto queries = MakeQueries(&rng, 300);

  std::vector<std::vector<Point>> before;
  std::vector<double> bounds;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto& eng = *built;
    for (const Query& q : queries) {
      auto r = eng->TopK(q.x1, q.x2, q.k);
      ASSERT_TRUE(r.ok());
      before.push_back(std::move(*r));
    }
    bounds = eng->ShardLowerBounds();
    ASSERT_TRUE(eng->Checkpoint().ok());
  }  // engine destroyed: simulates restart

  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto& eng = *recovered;
  EXPECT_EQ(eng->size(), points.size());
  EXPECT_EQ(eng->ShardLowerBounds(), bounds);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto r = eng->TopK(queries[i].x1, queries[i].x2, queries[i].k);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, before[i]) << "query " << i << " diverged after recovery";
  }

  // The recovered engine serves updates, rejects duplicates via the rebuilt
  // registry, and passes full validation.
  EXPECT_EQ(eng->Insert(points[0]).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(eng->Insert(Point{3e6, 5.0}).ok());
  ASSERT_TRUE(eng->Delete(points[1]).ok());
  auto whole = eng->TopK(-kInf, kInf, 5);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->front(), (Point{3e6, 5.0}));
  eng->CheckInvariants();
}

TEST(EnginePersistenceTest, RecoverRequiresCheckpointedShards) {
  TempDir dir("engine-missing");
  engine::EngineOptions opts;
  opts.num_shards = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  EXPECT_EQ(engine::ShardedTopkEngine::Recover(opts).status().code(),
            StatusCode::kNotFound);
  engine::EngineOptions memonly;
  EXPECT_EQ(engine::ShardedTopkEngine::Recover(memonly).status().code(),
            StatusCode::kInvalidArgument);
}

// Rebalance on a file-backed engine must not destroy the previous
// checkpoint while rebuilding (regression: the fresh-pager constructor used
// to O_TRUNC the live shard files). A successful rebalance commits its own
// checkpoint, so exit-without-Checkpoint after a rebalance recovers the
// rebalance-time state; no `.rebuild` side files are left behind.
TEST(EnginePersistenceTest, RebalanceCommitsDurablyAndLeavesNoSideFiles) {
  TempDir dir("engine-rebalance");
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.threads = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();

  Rng rng(55);
  auto points = MakePoints(&rng, 1200);
  auto queries = MakeQueries(&rng, 200);
  std::vector<std::vector<Point>> before;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    auto& eng = *built;
    ASSERT_TRUE(eng->Checkpoint().ok());
    // Skew one end of the key space, then force a rebalance. No explicit
    // Checkpoint() afterwards: the rebalance itself must leave the files
    // recoverable (the old files' checkpoints are gone with the old split).
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(eng->Insert(Point{2e6 + i, 10.0 + i * 1e-3}).ok());
    }
    ASSERT_TRUE(eng->Rebalance().ok());
    for (const Query& q : queries) {
      auto r = eng->TopK(q.x1, q.x2, q.k);
      ASSERT_TRUE(r.ok());
      before.push_back(std::move(*r));
    }
  }  // destroyed without a second Checkpoint: simulates a crash

  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().extension(), ".tokra")
        << "stale rebuild artifact: " << entry.path();
  }
  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto& eng = *recovered;
  EXPECT_EQ(eng->size(), points.size() + 400);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto r = eng->TopK(queries[i].x1, queries[i].x2, queries[i].k);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, before[i]) << "query " << i << " diverged after recovery";
  }
  eng->CheckInvariants();
}

// A crash mid-rebalance-commit (some side files renamed over their live
// files, some not) is rolled forward by Recover(): every shard still at the
// old generation has a fully checkpointed side file, so recovery finishes
// the renames and serves the committed post-rebalance state.
TEST(EnginePersistenceTest, RecoverRollsForwardInterruptedRebalance) {
  TempDir dir("engine-midrename");
  engine::EngineOptions opts;
  opts.num_shards = 3;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();

  Rng rng(66);
  auto points = MakePoints(&rng, 900);
  std::uint64_t expected_size;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    auto& eng = *built;
    ASSERT_TRUE(eng->Checkpoint().ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(eng->Insert(Point{3e6 + i, 20.0 + i * 1e-3}).ok());
    }
    ASSERT_TRUE(eng->Rebalance().ok());
    expected_size = eng->size();
  }
  // Forge the mid-rename crash state for shard 1: move its committed file
  // back to the side name and put a checkpoint with an older generation at
  // the live name (standing in for the pre-rebalance file the rename
  // replaced).
  const std::string live = dir.File("shard-1.tokra");
  const std::string side = live + ".rebuild";
  fs::rename(live, side);
  {
    em::EmOptions em = opts.em;
    em.backend = em::Backend::kFile;
    em.path = live;
    em::Pager pager(em);
    auto idx = core::TopkIndex::Build(&pager, {});
    ASSERT_TRUE(idx.ok());
    const std::uint64_t extra[4] = {0 /* bound (ignored at gen 0) */,
                                    opts.num_shards, 0 /* old generation */,
                                    em::kNullBlock /* no fence */};
    ASSERT_TRUE((*idx)->Checkpoint(extra).ok());
  }

  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->size(), expected_size);
  EXPECT_FALSE(fs::exists(side));  // the roll-forward consumed it
  (*recovered)->CheckInvariants();
}

// Recovering with a different shard count than was checkpointed must fail
// loudly — a smaller count would otherwise silently drop the upper key
// ranges' data.
TEST(EnginePersistenceTest, RecoverRejectsShardCountMismatch) {
  TempDir dir("engine-mismatch");
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  Rng rng(33);
  {
    auto built = engine::ShardedTopkEngine::Build(MakePoints(&rng, 500), opts);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->Checkpoint().ok());
  }
  engine::EngineOptions fewer = opts;
  fewer.num_shards = 2;
  EXPECT_EQ(engine::ShardedTopkEngine::Recover(fewer).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine::ShardedTopkEngine::Recover(opts).ok());
}

// ---------------------------------------------------------------------------
// Snapshot serving (OpenSnapshot: read-only mmap shards, zero-copy reads)

/// Byte image of every shard file, for asserting the snapshot never writes.
std::vector<std::string> ShardFileImages(const engine::EngineOptions& opts) {
  std::vector<std::string> images;
  for (std::uint32_t i = 0; i < opts.num_shards; ++i) {
    std::ifstream in(opts.ShardEm(i).path, std::ios::binary);
    images.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    EXPECT_FALSE(images.back().empty());
  }
  return images;
}

TEST(SnapshotServingTest, OracleIdenticalQueriesWithoutWrites) {
  // The default backend (kMem, promoted to read-only kMmap: zero-copy
  // borrows) and an explicit kFile (copying reads through the file
  // device's shared read view) serve the same oracle.
  for (const em::Backend backend : {em::Backend::kMem, em::Backend::kFile}) {
    SCOPED_TRACE(backend == em::Backend::kMem ? "default backend" : "kFile");
    TempDir dir("snap");
    engine::EngineOptions opts;
    opts.num_shards = 4;
    opts.threads = 2;
    opts.em.block_words = 64;
    opts.em.pool_frames = 16;
    opts.em.backend = backend;
    opts.storage_dir = dir.path();

    Rng rng(41);
    auto points = MakePoints(&rng, 2000);
    auto queries = MakeQueries(&rng, 300);
    {
      auto built = engine::ShardedTopkEngine::Build(points, opts);
      ASSERT_TRUE(built.ok());
      ASSERT_TRUE((*built)->Checkpoint().ok());
    }  // restart: the snapshot serves the files alone

    const auto images_before = ShardFileImages(opts);
    auto snap = engine::ShardedTopkEngine::OpenSnapshot(opts);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    auto& eng = *snap;
    EXPECT_TRUE(eng->snapshot());
    EXPECT_EQ(eng->size(), points.size());
    eng->CheckInvariants();

    // Every query answers exactly as a plain index over the point set would
    // — the borrowed zero-copy read path returns the same bytes.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      auto r = eng->TopK(queries[i].x1, queries[i].x2, queries[i].k);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, internal::NaiveTopK(points, queries[i].x1, queries[i].x2,
                                        queries[i].k))
          << "query " << i;
    }
    if (backend == em::Backend::kMem) {
      // The zero-copy path actually engaged (mmap shards borrow their reads).
      EXPECT_GT(eng->AggregatedIoStats().borrows, 0u);
    } else {
      // The snapshot's I/O accounting covers the reads its queries served.
      EXPECT_GT(eng->AggregatedIoStats().reads, 0u);
    }

    // Concurrent readers: oracle-identical under contention, every probe on
    // a handle of the shard's one published view (no shard mutex taken).
    std::vector<std::thread> readers;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        for (std::size_t i = t; i < queries.size(); i += 2) {
          auto r = eng->TopK(queries[i].x1, queries[i].x2, queries[i].k);
          if (!r.ok() ||
              *r != internal::NaiveTopK(points, queries[i].x1, queries[i].x2,
                                        queries[i].k)) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : readers) th.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(eng->counters().query_shard_locks, 0u);

    // Read-only contract: every mutation path refuses...
    EXPECT_EQ(eng->Insert(Point{5e6, 9.0}).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(eng->Delete(points[0]).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(eng->Checkpoint().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(eng->Rebalance().code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(eng->MaybeRebalance());
    std::vector<engine::Request> batch;
    batch.push_back(engine::Request::MakeInsert(Point{5e6, 9.0}));
    batch.push_back(engine::Request::MakeTopk(0.0, 1e6, 5));
    std::vector<engine::Response> out;
    eng->ExecuteBatch(batch, &out);
    EXPECT_EQ(out[0].status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(out[1].points, internal::NaiveTopK(points, 0.0, 1e6, 5));

    // ...and the files' bytes are untouched by all of the above.
    EXPECT_EQ(ShardFileImages(opts), images_before);

    // A live engine can still Recover() from the same (unmodified) directory
    // and accept updates — after the snapshot closes (the serving contract:
    // the files stay quiescent while a snapshot is open).
    snap->reset();
    auto recovered = engine::ShardedTopkEngine::Recover(opts);
    ASSERT_TRUE(recovered.ok());
    ASSERT_TRUE((*recovered)->Insert(Point{5e6, 9.0}).ok());
    (*recovered)->CheckInvariants();
  }
}

// A COW directory's stamped checkpoint stays byte-intact under a WAL tail
// (DESIGN.md §14.3): a snapshot serves exactly that checkpoint, ignores
// the unreplayed tail instead of refusing it, and never writes the files.
TEST(SnapshotServingTest, CowWalTailServesStampedCheckpoint) {
  TempDir dir("snap-cow-tail");
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.threads = 2;
  opts.em.block_words = 64;
  opts.em.pool_frames = 16;
  opts.em.cow_epochs = true;
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(47);
  auto points = MakePoints(&rng, 1500);
  auto queries = MakeQueries(&rng, 200);
  std::vector<Point> tail = points;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    auto& eng = *built;
    ASSERT_TRUE(eng->Checkpoint().ok());
    for (int i = 0; i < 120; ++i) {
      Point p{2e6 + i, 3.0 + i * 1e-3};
      ASSERT_TRUE(eng->Insert(p).ok());
      tail.push_back(p);
    }
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(eng->Delete(points[i]).ok());
    }
  }  // dropped without a checkpoint: the updates live only in the log tail

  const auto images_before = ShardFileImages(opts);
  auto snap = engine::ShardedTopkEngine::OpenSnapshot(opts);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto& eng = *snap;
  EXPECT_EQ(eng->size(), points.size());
  eng->CheckInvariants();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto r = eng->TopK(queries[i].x1, queries[i].x2, queries[i].k);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, internal::NaiveTopK(points, queries[i].x1, queries[i].x2,
                                      queries[i].k))
        << "query " << i;
  }
  // The tail's champions are invisible: the snapshot is the checkpoint.
  auto top = eng->TopK(-kInf, kInf, 5);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, internal::NaiveTopK(points, -kInf, kInf, 5));
  EXPECT_NE(*top, internal::NaiveTopK(tail, -kInf, kInf, 5));
  snap->reset();
  EXPECT_EQ(ShardFileImages(opts), images_before);
}

// ---------------------------------------------------------------------------
// Write-ahead logging: point-in-time recovery of acknowledged updates.

/// Applies `reqs` through ExecuteBatch and asserts every response OK —
/// i.e. every update in the batch was ACKNOWLEDGED. One call = one WAL
/// group commit per touched shard.
void MustBatch(engine::ShardedTopkEngine* eng,
               const std::vector<engine::Request>& reqs) {
  std::vector<engine::Response> out;
  eng->ExecuteBatch(reqs, &out);
  for (const auto& r : out) ASSERT_TRUE(r.status.ok()) << r.status.ToString();
}

/// The 10k-query oracle: the engine's every answer must match the naive
/// reference over the expected point set.
void ExpectMatchesOracle(engine::ShardedTopkEngine* eng,
                         std::vector<Point> expected, std::size_t n_queries) {
  ASSERT_EQ(eng->size(), expected.size());
  Rng qrng(99);
  auto queries = MakeQueries(&qrng, n_queries);
  for (const Query& q : queries) {
    auto r = eng->TopK(q.x1, q.x2, q.k);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, internal::NaiveTopK(expected, q.x1, q.x2, q.k));
  }
  eng->CheckInvariants();
}

// The headline contract: a crash (process death without flush) at any point
// after an update batch was acknowledged under durability=kWal loses zero
// acknowledged updates, across checkpoints, direct ops, and batches.
TEST(WalRecoveryTest, CrashBetweenCheckpointsLosesNothing) {
  TempDir dir("wal-crash");
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.threads = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(31);
  auto points = MakePoints(&rng, 1200);
  std::vector<Point> expected = points;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto& eng = *built;
    // Interval 1: direct ops on top of Build's automatic checkpoint.
    for (int i = 0; i < 150; ++i) {
      Point p{2e6 + i, 2.0 + i * 1e-3};
      ASSERT_TRUE(eng->Insert(p).ok());
      expected.push_back(p);
    }
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(eng->Delete(points[i]).ok());
    }
    expected.erase(expected.begin(), expected.begin() + 60);
    // A mid-stream checkpoint, then more acknowledged batches after it.
    ASSERT_TRUE(eng->Checkpoint().ok());
    std::vector<engine::Request> batch;
    for (int i = 0; i < 200; ++i) {
      Point p{3e6 + i, 4.0 + i * 1e-3};
      batch.push_back(engine::Request::MakeInsert(p));
      expected.push_back(p);
    }
    for (int i = 60; i < 90; ++i) {
      batch.push_back(engine::Request::MakeDelete(points[i]));
    }
    MustBatch(eng.get(), batch);
    expected.erase(expected.begin(), expected.begin() + 30);
  }  // destroyed WITHOUT a final checkpoint: dirty pools die = SIGKILL

  engine::RecoveryReport report;
  auto recovered = engine::ShardedTopkEngine::Recover(opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(report.replayed_records, 0u);
  EXPECT_GT(report.replayed_ops, 0u);
  ExpectMatchesOracle(recovered->get(), expected, 2000);

  // The recovered engine keeps the guarantee: more acknowledged updates,
  // another crash, another loss-free recovery — without any checkpoint in
  // between.
  for (int i = 0; i < 40; ++i) {
    Point p{4e6 + i, 6.0 + i * 1e-3};
    ASSERT_TRUE((*recovered)->Insert(p).ok());
    expected.push_back(p);
  }
  recovered->reset();
  auto again = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectMatchesOracle(again->get(), expected, 500);
}

// Corruption: a byte flip inside the last acknowledged batch's log frame.
// Recovery must keep the intact prefix (earlier acknowledged batches),
// drop the torn record, and still serve the 10k-query oracle for the
// surviving committed state.
TEST(WalRecoveryTest, FlippedByteDropsOnlyTheTornRecord) {
  TempDir dir("wal-flip");
  engine::EngineOptions opts;
  opts.num_shards = 1;
  opts.threads = 1;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(32);
  auto points = MakePoints(&rng, 800);
  std::vector<Point> surviving = points;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    std::vector<engine::Request> a, b;
    for (int i = 0; i < 50; ++i) {
      Point p{2e6 + i, 2.0 + i * 1e-3};
      a.push_back(engine::Request::MakeInsert(p));
      surviving.push_back(p);
    }
    for (int i = 0; i < 40; ++i) {
      b.push_back(engine::Request::MakeInsert(Point{3e6 + i, 4.0 + i * 1e-3}));
    }
    MustBatch(built->get(), a);  // the record that must survive
    MustBatch(built->get(), b);  // the record the corruption tears
  }
  // Flip one byte inside the LAST logical record's frame.
  const std::string wal_path = dir.File("shard-0.wal");
  std::uint64_t tear_offset = 0;
  {
    auto reader = em::WalReader::Open(wal_path, opts.em.block_words);
    ASSERT_TRUE(reader.ok());
    const auto& recs = (*reader)->records();
    auto it = std::find_if(recs.rbegin(), recs.rend(), [](const auto& r) {
      return r.type == em::WriteAheadLog::RecordType::kLogical;
    });
    ASSERT_NE(it, recs.rend());
    tear_offset =
        (it->first_block * opts.em.block_words + 5) * sizeof(em::word_t);
  }
  {
    std::fstream f(wal_path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(tear_offset));
    char c = 0;
    f.read(&c, 1);
    c ^= 0x10;
    f.seekp(static_cast<std::streamoff>(tear_offset));
    f.write(&c, 1);
  }

  engine::RecoveryReport report;
  auto recovered = engine::ShardedTopkEngine::Recover(opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(report.replayed_records, 0u);  // batch A replayed
  ExpectMatchesOracle(recovered->get(), surviving, 10000);
}

// Corruption: the log sheared mid-frame (truncated write). Same contract.
TEST(WalRecoveryTest, ShearedLogRecoversThePrefix) {
  TempDir dir("wal-shear");
  engine::EngineOptions opts;
  opts.num_shards = 1;
  opts.threads = 1;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(33);
  auto points = MakePoints(&rng, 600);
  std::vector<Point> surviving = points;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    std::vector<engine::Request> a, b;
    for (int i = 0; i < 30; ++i) {
      Point p{2e6 + i, 2.0 + i * 1e-3};
      a.push_back(engine::Request::MakeInsert(p));
      surviving.push_back(p);
    }
    for (int i = 0; i < 64; ++i) {
      b.push_back(engine::Request::MakeInsert(Point{3e6 + i, 4.0 + i * 1e-3}));
    }
    MustBatch(built->get(), a);
    MustBatch(built->get(), b);
  }
  // Shear inside the last logical frame: keep its first block, lose the
  // rest (64 inserts span several log blocks).
  const std::string wal_path = dir.File("shard-0.wal");
  {
    auto reader = em::WalReader::Open(wal_path, opts.em.block_words);
    ASSERT_TRUE(reader.ok());
    const auto& recs = (*reader)->records();
    auto it = std::find_if(recs.rbegin(), recs.rend(), [](const auto& r) {
      return r.type == em::WriteAheadLog::RecordType::kLogical;
    });
    ASSERT_NE(it, recs.rend());
    fs::resize_file(wal_path, (it->first_block + 1) * opts.em.block_words *
                                  sizeof(em::word_t));
  }
  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectMatchesOracle(recovered->get(), surviving, 2000);
}

// Checkpoints stamp the covered LSN and truncate the log behind it: the
// steady-state log is bounded by one checkpoint interval, not by history.
TEST(WalRecoveryTest, CheckpointTruncatesAndBoundsTheLog) {
  TempDir dir("wal-trunc");
  engine::EngineOptions opts;
  opts.num_shards = 1;
  opts.threads = 1;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.em.wal_rotate_blocks = 4;  // rotate aggressively so size is visible
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(34);
  auto built = engine::ShardedTopkEngine::Build(MakePoints(&rng, 400), opts);
  ASSERT_TRUE(built.ok());
  const std::string wal_path = dir.File("shard-0.wal");
  const std::uint64_t block_bytes = opts.em.block_words * sizeof(em::word_t);
  std::uint64_t last_lsn = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<engine::Request> batch;
    for (int i = 0; i < 40; ++i) {
      batch.push_back(engine::Request::MakeInsert(
          Point{2e6 + round * 100 + i, 2.0 + round + i * 1e-3}));
    }
    MustBatch(built->get(), batch);
    EXPECT_GT(fs::file_size(wal_path), opts.em.wal_rotate_blocks * block_bytes);
    std::vector<std::uint64_t> lsns;
    ASSERT_TRUE((*built)->Checkpoint(&lsns).ok());
    ASSERT_EQ(lsns.size(), 1u);
    EXPECT_GT(lsns[0], last_lsn);  // the stamp advances every interval
    last_lsn = lsns[0];
    // Truncation rotated the now-obsolete segment down to its header.
    EXPECT_EQ(fs::file_size(wal_path), block_bytes);
  }
}

// Rebalance under WAL: the rebuilt shards adopt the existing logs by
// stamping their heads, so acknowledged updates before AND after the
// rebalance survive a crash — including when the crash interrupts the
// rename commit and Recover() must roll the topology forward first.
TEST(WalRecoveryTest, RebalanceAdoptsLogsAndReplaysAcrossRollForward) {
  TempDir dir("wal-rebalance");
  engine::EngineOptions opts;
  opts.num_shards = 3;
  opts.threads = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(35);
  auto points = MakePoints(&rng, 900);
  std::vector<Point> expected = points;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    auto& eng = *built;
    for (int i = 0; i < 200; ++i) {  // skewed tail-shard inserts, logged
      Point p{2e6 + i, 2.0 + i * 1e-3};
      ASSERT_TRUE(eng->Insert(p).ok());
      expected.push_back(p);
    }
    ASSERT_TRUE(eng->Rebalance().ok());
    for (int i = 0; i < 120; ++i) {  // post-rebalance acknowledged updates
      Point p{3e6 + i, 4.0 + i * 1e-3};
      ASSERT_TRUE(eng->Insert(p).ok());
      expected.push_back(p);
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(eng->Delete(points[i]).ok());
    }
    expected.erase(expected.begin(), expected.begin() + 50);
  }  // crash

  // Plain crash after a committed rebalance: recover and verify.
  {
    engine::RecoveryReport report;
    auto recovered = engine::ShardedTopkEngine::Recover(opts, &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_GT(report.replayed_records, 0u);
    ExpectMatchesOracle(recovered->get(), expected, 2000);
    // Leave the directory exactly as recovered + checkpointed for the
    // forged mid-rename stage below.
    ASSERT_TRUE((*recovered)->Checkpoint().ok());
    for (int i = 0; i < 30; ++i) {  // a fresh acknowledged tail
      Point p{5e6 + i, 8.0 + i * 1e-3};
      ASSERT_TRUE((*recovered)->Insert(p).ok());
      expected.push_back(p);
    }
    ASSERT_TRUE((*recovered)->Rebalance().ok());
  }  // crash again, now with a committed second rebalance on disk

  // Forge the mid-rename crash: shard 1's committed file moved back to the
  // side name, an old-generation stand-in at the live name. Recover() must
  // roll the topology forward and still replay shard tails.
  const std::string live = dir.File("shard-1.tokra");
  const std::string side = live + ".rebuild";
  fs::rename(live, side);
  {
    em::EmOptions em = opts.em;
    em.backend = em::Backend::kFile;
    em.path = live;
    em::Pager pager(em);
    auto idx = core::TopkIndex::Build(&pager, {});
    ASSERT_TRUE(idx.ok());
    const std::uint64_t extra[4] = {0, opts.num_shards, 0 /* old gen */,
                                    em::kNullBlock /* no fence */};
    ASSERT_TRUE((*idx)->Checkpoint(extra).ok());
  }
  engine::RecoveryReport report;
  auto recovered = engine::ShardedTopkEngine::Recover(opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.rolled_forward_rebalance);
  EXPECT_FALSE(fs::exists(side));
  ExpectMatchesOracle(recovered->get(), expected, 2000);
}

// A read-only snapshot must refuse a directory whose log still holds
// acknowledged-but-unreplayed updates (serving it would hide them); after
// Recover() + Checkpoint() the same directory serves cleanly.
TEST(WalRecoveryTest, SnapshotRefusesUnreplayedTail) {
  TempDir dir("wal-snap");
  engine::EngineOptions opts;
  opts.num_shards = 2;
  opts.threads = 1;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(36);
  auto points = MakePoints(&rng, 500);
  std::vector<Point> expected = points;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    for (int i = 0; i < 80; ++i) {
      Point p{2e6 + i, 2.0 + i * 1e-3};
      ASSERT_TRUE((*built)->Insert(p).ok());
      expected.push_back(p);
    }
  }  // crash with a log tail
  auto snap = engine::ShardedTopkEngine::OpenSnapshot(opts);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kFailedPrecondition);
  // Recovering with the log switched off would silently discard the
  // acknowledged tail: refused for the same reason.
  engine::EngineOptions no_wal = opts;
  no_wal.durability = engine::Durability::kCheckpoint;
  EXPECT_EQ(engine::ShardedTopkEngine::Recover(no_wal).status().code(),
            StatusCode::kFailedPrecondition);

  {
    auto recovered = engine::ShardedTopkEngine::Recover(opts);
    ASSERT_TRUE(recovered.ok());
    ASSERT_TRUE((*recovered)->Checkpoint().ok());
  }
  auto served = engine::ShardedTopkEngine::OpenSnapshot(opts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectMatchesOracle(served->get(), expected, 500);
}

// The decode path is the replication wire format: malformed records —
// including a count crafted so 1 + 3*count wraps modulo 2^64 to the real
// payload size — must come back as errors, never reach the vector
// constructor (std::length_error -> terminate).
TEST(WalRecoveryTest, DecodeRejectsMalformedRecords) {
  EXPECT_FALSE(engine::DecodeWalOps({}).ok());
  const std::vector<em::word_t> short_rec{3, 1, 0, 0};
  EXPECT_FALSE(engine::DecodeWalOps(short_rec).ok());
  std::vector<em::word_t> wrap(5, 0);
  wrap[0] = em::word_t{4} * 0xAAAAAAAAAAAAAAABULL;  // 1 + 3*count == 5 mod 2^64
  EXPECT_FALSE(engine::DecodeWalOps(wrap).ok());
  std::vector<em::word_t> bad_kind{1, 2, 0, 0};  // op kind must be 0/1
  EXPECT_FALSE(engine::DecodeWalOps(bad_kind).ok());

  const engine::WalOp op{true, Point{1.5, 2.5}};
  auto dec = engine::DecodeWalOps(engine::EncodeWalOps({&op, 1}));
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->size(), 1u);
  EXPECT_TRUE((*dec)[0].insert);
  EXPECT_EQ((*dec)[0].p, op.p);
}


// A shipped snapshot can arrive without its logs (the DESIGN §9.5 recipe
// ships shard files first), or a log can be recreated out-of-band. The
// superblock stamp is then AHEAD of the fresh log; recovery must
// fast-forward the log's LSN space past the stamp, or every update
// acknowledged from now on would sort below it and be silently ignored by
// the next recovery.
TEST(WalRecoveryTest, MissingLogFastForwardsPastTheStamp) {
  TempDir dir("wal-missing-log");
  engine::EngineOptions opts;
  opts.num_shards = 2;
  opts.threads = 1;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(37);
  auto points = MakePoints(&rng, 500);
  std::vector<Point> expected = points;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    // Drive the head LSN well past anything the post-loss appends reach.
    for (int i = 0; i < 120; ++i) {
      Point p{2e6 + i, 2.0 + i * 1e-3};
      ASSERT_TRUE((*built)->Insert(p).ok());
      expected.push_back(p);
    }
    std::vector<std::uint64_t> lsns;
    ASSERT_TRUE((*built)->Checkpoint(&lsns).ok());
    ASSERT_GT(lsns[1], 50u);  // the stamp the lost log must be pushed past
  }
  // The logs vanish in shipping.
  ASSERT_TRUE(fs::remove(dir.File("shard-0.wal")));
  ASSERT_TRUE(fs::remove(dir.File("shard-1.wal")));

  // Recovery accepts the stamped-checkpoint state (nothing uncovered was
  // lost with the logs) and re-arms the guarantee...
  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (int i = 0; i < 50; ++i) {
    Point p{3e6 + i, 4.0 + i * 1e-3};
    ASSERT_TRUE((*recovered)->Insert(p).ok());
    expected.push_back(p);
  }
  recovered->reset();  // crash
  // ...so the freshly acknowledged updates survive the next crash.
  engine::RecoveryReport report;
  auto again = engine::ShardedTopkEngine::Recover(opts, &report);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(report.replayed_ops, 50u);
  ExpectMatchesOracle(again->get(), expected, 1000);
}


// With the WAL enabled, the logical I/O counts — pre-image reads and log
// appends included — stay identical across every backend: the counting
// still lives in the base layers, never in backend code.
TEST(BackendParityTest, IdenticalIoCountsWithWalEnabled) {
  TempDir dir("wal-parity");
  auto run = [&](const std::string& tag, em::Backend backend) -> em::IoStats {
    em::EmOptions opts{.block_words = 64, .pool_frames = 16};
    opts.backend = backend;
    if (backend != em::Backend::kMem) {
      opts.path = dir.File(tag + ".blk");
    }
    opts.wal_path = dir.File(tag + ".wal");
    em::Pager pager(opts);
    Rng rng(44);
    auto points = MakePoints(&rng, 800);
    auto built = core::TopkIndex::Build(&pager, points);
    TOKRA_CHECK(built.ok());
    auto& idx = *built;
    TOKRA_CHECK((*built)->Checkpoint().ok());  // arm the pre-image guards
    auto queries = MakeQueries(&rng, 100);
    for (const Query& q : queries) {
      pager.DropCache();
      TOKRA_CHECK(idx->TopK(q.x1, q.x2, q.k).ok());
    }
    for (int i = 0; i < 100; ++i) {
      TOKRA_CHECK(idx->Insert(Point{2e6 + i, 2.0 + i * 1e-3}).ok());
      TOKRA_CHECK(idx->Delete(points[i]).ok());
    }
    pager.FlushAll();
    TOKRA_CHECK(pager.stats().wal_appends > 0);
    return pager.stats();
  };
  const em::IoStats mem = run("mem", em::Backend::kMem);
  for (auto [tag, backend] :
       {std::pair{"file", em::Backend::kFile},
        std::pair{"uring", em::Backend::kUring},
        std::pair{"mmap", em::Backend::kMmap}}) {
    const em::IoStats got = run(tag, backend);
    EXPECT_EQ(mem.reads, got.reads) << tag;
    EXPECT_EQ(mem.writes, got.writes) << tag;
    EXPECT_EQ(mem.pool_hits, got.pool_hits) << tag;
    EXPECT_EQ(mem.pool_misses, got.pool_misses) << tag;
    EXPECT_EQ(mem.evictions, got.evictions) << tag;
    EXPECT_EQ(mem.wal_appends, got.wal_appends) << tag;
    EXPECT_EQ(mem.fsyncs, got.fsyncs) << tag;
  }
}


TEST(SnapshotServingTest, RequiresStorageDirAndCheckpointedShards) {
  engine::EngineOptions opts;
  opts.num_shards = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  EXPECT_EQ(engine::ShardedTopkEngine::OpenSnapshot(opts).status().code(),
            StatusCode::kInvalidArgument);

  TempDir dir("snap-missing");
  opts.storage_dir = dir.path();
  // No shard files at all: Pager::Open's NotFound propagates.
  EXPECT_FALSE(engine::ShardedTopkEngine::OpenSnapshot(opts).ok());

  // A checkpointed directory opened with the wrong shard count is refused.
  Rng rng(43);
  {
    auto built = engine::ShardedTopkEngine::Build(MakePoints(&rng, 300), opts);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->Checkpoint().ok());
  }
  engine::EngineOptions wrong = opts;
  wrong.num_shards = 1;
  EXPECT_FALSE(engine::ShardedTopkEngine::OpenSnapshot(wrong).ok());
  ASSERT_TRUE(engine::ShardedTopkEngine::OpenSnapshot(opts).ok());
}

// --- fence persistence (DESIGN.md §11) --------------------------------------
// Pruning fences ride the checkpoint as root 4; these tests pin the contract
// that a recovered / snapshot / rebalanced engine prunes from a fence that is
// exact for the live point set (CheckInvariants cross-checks it point by
// point).

/// Scores monotone in x: wide top-k answers live in the high-x shards, so a
/// working fence provably prunes and a stale one provably misanswers.
std::vector<Point> MonotonePersistPoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, 1e6);
  std::sort(xs.begin(), xs.end());
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::sort(scores.begin(), scores.end());
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

TEST(EnginePersistenceTest, FenceRoundTripsThroughCheckpointRecover) {
  TempDir dir("engine-fence");
  engine::EngineOptions opts;
  opts.num_shards = 8;
  opts.threads = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();

  Rng rng(71);
  auto points = MonotonePersistPoints(&rng, 1600);
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->Checkpoint().ok());
  }

  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto& eng = *recovered;
  eng->CheckInvariants();  // fence must be exact for the recovered set

  std::uint64_t pruned = 0;
  for (int i = 0; i < 40; ++i) {
    double a = rng.UniformDouble(0.0, 2e5);
    double b = a + 7.5e5;
    std::uint64_t k = 1 + rng.Uniform(20);
    engine::EngineQueryStats stats;
    auto got = eng->TopK(a, b, k, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, internal::NaiveTopK(points, a, b, k));
    pruned += stats.shards_pruned;
  }
  EXPECT_GT(pruned, 0u) << "recovered engine never pruned: fence not loaded";
}

// Post-checkpoint WAL-only updates must be replayed into the fence too: the
// crash-surviving insert carries the new global-best score, so a fence that
// missed the replay would let the router prune its shard and drop it.
TEST(WalRecoveryTest, ReplayUpdatesFence) {
  TempDir dir("wal-fence");
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.threads = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();
  opts.durability = engine::Durability::kWal;

  Rng rng(72);
  auto points = MonotonePersistPoints(&rng, 800);
  const Point champion{1.0, 50.0};  // lowest-x shard, highest score anywhere
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->Checkpoint().ok());
    ASSERT_TRUE((*built)->Insert(champion).ok());
    ASSERT_TRUE((*built)->Delete(points[700]).ok());
  }  // destroyed without a second Checkpoint: WAL tail holds both ops

  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto& eng = *recovered;
  eng->CheckInvariants();  // counts would mismatch if replay skipped the fence
  auto top = eng->TopK(-kInf, kInf, 1);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_EQ(top->front(), champion);
}

// Rebalance rebuilds fences for the new split; the rebuilt engine must keep
// pruning correctly, both live and after recovering its committed state.
TEST(EnginePersistenceTest, RebalanceRebuildsFences) {
  TempDir dir("engine-fence-rebal");
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.threads = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();

  Rng rng(73);
  auto points = MonotonePersistPoints(&rng, 900);
  std::vector<Point> live = points;
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    auto& eng = *built;
    ASSERT_TRUE(eng->Checkpoint().ok());
    for (int i = 0; i < 300; ++i) {
      Point p{2e6 + i, 10.0 + i * 1e-3};
      ASSERT_TRUE(eng->Insert(p).ok());
      live.push_back(p);
    }
    ASSERT_TRUE(eng->Rebalance().ok());
    eng->CheckInvariants();  // side-built fences exact for the new split
    engine::EngineQueryStats stats;
    auto got = eng->TopK(-kInf, kInf, 10, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, internal::NaiveTopK(live, -kInf, kInf, 10));
    EXPECT_GT(stats.shards_pruned, 0u);
  }  // no post-rebalance Checkpoint: the rebalance committed its own

  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  (*recovered)->CheckInvariants();
  auto got = (*recovered)->TopK(-kInf, kInf, 25);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, internal::NaiveTopK(live, -kInf, kInf, 25));
}

// Snapshot serving loads the checkpointed fence and prunes read-only.
TEST(SnapshotServingTest, SnapshotPrunesWithCheckpointedFence) {
  TempDir dir("snap-fence");
  engine::EngineOptions opts;
  opts.num_shards = 8;
  opts.threads = 2;
  opts.em = em::EmOptions{.block_words = 64, .pool_frames = 16};
  opts.storage_dir = dir.path();

  Rng rng(74);
  auto points = MonotonePersistPoints(&rng, 1600);
  {
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->Checkpoint().ok());
  }

  auto snap = engine::ShardedTopkEngine::OpenSnapshot(opts);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  std::uint64_t pruned = 0;
  for (int i = 0; i < 40; ++i) {
    double a = rng.UniformDouble(0.0, 2e5);
    double b = a + 7.5e5;
    std::uint64_t k = 1 + rng.Uniform(20);
    engine::EngineQueryStats stats;
    auto got = (*snap)->TopK(a, b, k, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, internal::NaiveTopK(points, a, b, k));
    pruned += stats.shards_pruned;
  }
  EXPECT_GT(pruned, 0u) << "snapshot never pruned: fence not loaded";
}

// ---------------------------------------------------------------------------
// COW epoch checkpoints (DESIGN.md §14): pinned-epoch stability, retirement
// space accounting, and crash recovery between publish and retirement.

em::EmOptions CowOpts(const std::string& path) {
  return em::EmOptions{.block_words = 16,
                       .pool_frames = 8,
                       .backend = em::Backend::kFile,
                       .path = path,
                       .cow_epochs = true};
}

// A pinned epoch's view pager keeps serving the frozen checkpoint contents
// while the live pager overwrites every block and publishes newer epochs.
TEST(CowEpochTest, PinnedEpochServesFrozenContentUnderChurn) {
  TempDir dir("cow-pin");
  em::Pager pager(CowOpts(dir.File("dev.blk")));
  std::vector<em::BlockId> ids;
  for (int i = 0; i < 32; ++i) ids.push_back(pager.Allocate());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pager.Create(ids[i]).Set(0, 1000 + i);
  }
  std::uint64_t roots[1] = {ids[0]};
  ASSERT_TRUE(pager.Checkpoint(roots).ok());
  const std::uint64_t pinned_epoch = pager.published_epoch();
  ASSERT_GT(pinned_epoch, 0u);

  // Freeze the published epoch and open a zero-copy read view on it.
  em::EpochPin pin = pager.PinEpoch();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.epoch(), pinned_epoch);
  EXPECT_EQ(pager.PinnedEpochs(), 1u);
  auto view_dev = pager.ShareReadView();
  ASSERT_NE(view_dev, nullptr);
  auto view =
      em::Pager::OpenOn(std::move(view_dev), CowOpts(dir.File("dev.blk")));
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Churn the live pager across several newer epochs: every block gets a
  // new value, twice, with a publish in between.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      pager.Fetch(ids[i]).Set(0, 5000 + round * 1000 + i);
    }
    ASSERT_TRUE(pager.Checkpoint(roots).ok());
  }
  ASSERT_GT(pager.published_epoch(), pinned_epoch);

  // The view still reads the pinned epoch's bytes; the live pager reads
  // the newest. Same block names, different physical locations (COW).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*view)->Fetch(ids[i]).Get(0), 1000 + i);
    EXPECT_EQ(pager.Fetch(ids[i]).Get(0), 6000 + i);
  }
  // While the pin is held, superseded blocks park instead of recycling.
  EXPECT_GT(pager.Space().retiring_blocks, 0u);

  view->reset();  // close handles before releasing the pin
  pin.Release();
  EXPECT_EQ(pager.PinnedEpochs(), 0u);
}

// Superseded blocks return to the free list once no pin can reach them:
// steady-state churn does not grow the file, and after the pins are gone
// allocated/free space returns to the post-baseline shape.
TEST(CowEpochTest, RetirementReturnsSpaceToBaseline) {
  TempDir dir("cow-retire");
  em::Pager pager(CowOpts(dir.File("dev.blk")));
  std::vector<em::BlockId> ids;
  for (int i = 0; i < 24; ++i) ids.push_back(pager.Allocate());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pager.Create(ids[i]).Set(0, i);
  }
  std::uint64_t roots[1] = {ids[0]};
  ASSERT_TRUE(pager.Checkpoint(roots).ok());
  const em::SpaceStats baseline = pager.Space();

  // Pin the baseline epoch, churn several epochs: the superseded blocks
  // must all park (the pin reaches every one of them).
  {
    em::EpochPin pin = pager.PinEpoch();
    for (int round = 0; round < 3; ++round) {
      for (em::BlockId id : ids) pager.Fetch(id).Set(0, 100 + round);
      ASSERT_TRUE(pager.Checkpoint(roots).ok());
    }
    EXPECT_GT(pager.Space().retiring_blocks, 0u);
    EXPECT_EQ(pager.Space().allocated_blocks, baseline.allocated_blocks);
  }
  // Pin released: the next publish drains the parked batches back to the
  // free list and the retirement counter advances.
  ASSERT_TRUE(pager.Checkpoint(roots).ok());
  EXPECT_EQ(pager.Space().retiring_blocks, 0u);
  EXPECT_GT(pager.retired_blocks_total(), 0u);
  EXPECT_EQ(pager.Space().allocated_blocks, baseline.allocated_blocks);

  // Steady-state churn with no pins is space-bounded: the file high-water
  // mark stops growing once the recycle loop is primed.
  for (int round = 0; round < 3; ++round) {
    for (em::BlockId id : ids) pager.Fetch(id).Set(0, 200 + round);
    ASSERT_TRUE(pager.Checkpoint(roots).ok());
  }
  const std::uint64_t primed = pager.Space().file_blocks;
  for (int round = 0; round < 8; ++round) {
    for (em::BlockId id : ids) pager.Fetch(id).Set(0, 300 + round);
    ASSERT_TRUE(pager.Checkpoint(roots).ok());
  }
  EXPECT_EQ(pager.Space().file_blocks, primed)
      << "COW churn must recycle retired blocks, not grow the device";
}

// Crash between epoch publish and retirement: a checkpoint persists every
// parked-for-retirement location as free (recovery has no pins), so a copy
// of the device taken while a pin was blocking retirement reopens with the
// full space recovered and byte-identical content.
TEST(CowEpochTest, CrashBetweenPublishAndRetirementRecovers) {
  TempDir dir("cow-crash");
  em::Pager pager(CowOpts(dir.File("dev.blk")));
  std::vector<em::BlockId> ids;
  for (int i = 0; i < 24; ++i) ids.push_back(pager.Allocate());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pager.Create(ids[i]).Set(0, 1000 + i);
  }
  std::uint64_t roots[2] = {ids[0], 77};
  ASSERT_TRUE(pager.Checkpoint(roots).ok());
  const em::SpaceStats baseline = pager.Space();

  em::EpochPin pin = pager.PinEpoch();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pager.Fetch(ids[i]).Set(0, 2000 + i);
  }
  ASSERT_TRUE(pager.Checkpoint(roots).ok());  // publish; retirement blocked
  ASSERT_GT(pager.Space().retiring_blocks, 0u);

  // "Crash": the checkpoint is durable, so the file as it sits on disk is
  // exactly what a post-crash recovery reads. Copy it out from under the
  // live pager (which still holds the pin) and reopen the copy.
  const std::string crash_path = dir.File("crash.blk");
  fs::copy_file(dir.File("dev.blk"), crash_path);
  auto reopened = em::Pager::Open(CowOpts(crash_path));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  em::Pager& rec = **reopened;
  EXPECT_TRUE(rec.cow_epochs());
  ASSERT_EQ(rec.roots().size(), 2u);
  EXPECT_EQ(rec.roots()[1], 77u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(rec.Fetch(ids[i]).Get(0), 2000 + i);
  }
  // The blocks the crash caught mid-retirement came back as free space:
  // nothing parks forever, nothing leaks, live count matches the source.
  EXPECT_EQ(rec.Space().retiring_blocks, 0u);
  EXPECT_EQ(rec.Space().allocated_blocks, baseline.allocated_blocks);
  EXPECT_GE(rec.Space().free_blocks, baseline.free_blocks);
  // Recovered allocator still hands out sound names: fresh allocations
  // never collide with a live block.
  for (int i = 0; i < 32; ++i) {
    em::BlockId fresh = rec.Allocate();
    for (em::BlockId id : ids) ASSERT_NE(fresh, id);
    rec.Create(fresh).Set(0, 9);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(rec.Fetch(ids[i]).Get(0), 2000 + i);
  }
  pin.Release();
}

}  // namespace
}  // namespace tokra
