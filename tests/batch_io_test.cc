// Batched-I/O pipeline tests: the SubmitReads/SubmitWrites device API,
// buffer-pool PinMany/Prefetch semantics, backend parity (Mem / File /
// Uring produce identical logical I/O counts and oracle-identical query
// results), and parallel-vs-serial engine checkpoint equivalence.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/topk_index.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/file_block_device.h"
#include "em/mmap_block_device.h"
#include "em/pager.h"
#include "em/uring_block_device.h"
#include "engine/sharded_engine.h"
#include "internal/naive.h"
#include "util/bits.h"
#include "util/point.h"
#include "util/random.h"

namespace tokra {
namespace {

namespace fs = std::filesystem;

/// A unique temp directory for one test; removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("tokra-batchio-" + tag + "-" + std::to_string(::getpid())))
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

/// All file-capable backends available in this build/kernel. kUring is
/// always requestable — MakeBlockDevice falls back to the sync file device
/// when rings are unavailable — so listing it unconditionally also tests
/// the fallback path on kernels without io_uring; kMmap likewise falls back
/// to plain file reads if the kernel refuses the mapping.
std::vector<em::Backend> FileBackends() {
  return {em::Backend::kFile, em::Backend::kUring, em::Backend::kMmap};
}

/// Every backend, in-memory included.
std::vector<em::Backend> AllBackends() {
  return {em::Backend::kMem, em::Backend::kFile, em::Backend::kUring,
          em::Backend::kMmap};
}

// ---------------------------------------------------------------------------
// Device batch API

TEST(BatchDeviceTest, SubmitBatchRoundTripEveryBackend) {
  TempDir dir("roundtrip");
  for (em::Backend backend : AllBackends()) {
    em::EmOptions opts{.block_words = 16, .pool_frames = 4};
    opts.backend = backend;
    opts.path = dir.File("rt-" + std::to_string(static_cast<int>(backend)));
    opts.io_queue_depth = 4;  // smaller than the batch: forces multiple waves
    auto dev = em::MakeBlockDevice(opts, /*truncate_file=*/true);

    // Scattered, unsorted batch of 11 distinct blocks.
    constexpr std::uint32_t kCount = 11;
    std::vector<std::vector<em::word_t>> bufs(kCount);
    std::vector<em::IoRequest> writes;
    for (std::uint32_t i = 0; i < kCount; ++i) {
      em::BlockId id = (i * 7 + 3) % 23;
      bufs[i].assign(16, 0);
      for (std::uint32_t w = 0; w < 16; ++w) bufs[i][w] = id * 100 + w;
      writes.push_back(em::IoRequest{id, bufs[i].data()});
    }
    dev->SubmitWrites(writes);
    EXPECT_EQ(dev->writes(), kCount);

    std::vector<std::vector<em::word_t>> got(kCount);
    std::vector<em::IoRequest> reads;
    for (std::uint32_t i = 0; i < kCount; ++i) {
      got[i].assign(16, ~em::word_t{0});
      reads.push_back(em::IoRequest{writes[i].id, got[i].data()});
    }
    dev->SubmitReads(reads);
    EXPECT_EQ(dev->reads(), kCount);
    for (std::uint32_t i = 0; i < kCount; ++i) EXPECT_EQ(got[i], bufs[i]);

    // Empty batches are free.
    dev->SubmitReads({});
    dev->SubmitWrites({});
    EXPECT_EQ(dev->reads(), kCount);
    EXPECT_EQ(dev->writes(), kCount);
  }
}

TEST(BatchDeviceTest, BatchCountsMatchSequentialLoop) {
  TempDir dir("counts");
  for (em::Backend backend : FileBackends()) {
    em::EmOptions opts{.block_words = 16, .pool_frames = 4};
    opts.backend = backend;
    opts.path = dir.File("cnt-" + std::to_string(static_cast<int>(backend)));
    auto batch_dev = em::MakeBlockDevice(opts, true);
    opts.path += ".seq";
    auto seq_dev = em::MakeBlockDevice(opts, true);

    std::vector<std::vector<em::word_t>> bufs(8);
    std::vector<em::IoRequest> reqs;
    for (std::uint32_t i = 0; i < 8; ++i) {
      bufs[i].assign(16, i);
      reqs.push_back(em::IoRequest{i * 3, bufs[i].data()});
    }
    batch_dev->SubmitWrites(reqs);
    batch_dev->SubmitReads(reqs);
    for (const em::IoRequest& r : reqs) seq_dev->Write(r.id, r.buf);
    for (const em::IoRequest& r : reqs) seq_dev->Read(r.id, r.buf);

    // The model charges per block transferred, however it is scheduled.
    EXPECT_EQ(batch_dev->reads(), seq_dev->reads());
    EXPECT_EQ(batch_dev->writes(), seq_dev->writes());
    EXPECT_EQ(batch_dev->NumBlocks(), seq_dev->NumBlocks());
  }
}

#if defined(TOKRA_HAVE_URING)
TEST(BatchDeviceTest, UringDeviceSelectedWhenSupported) {
  if (!em::UringBlockDevice::Supported()) {
    GTEST_SKIP() << "kernel does not grant io_uring";
  }
  TempDir dir("probe");
  em::EmOptions opts{.block_words = 16, .pool_frames = 4};
  opts.backend = em::Backend::kUring;
  opts.path = dir.File("probe.blk");
  opts.io_queue_depth = 8;
  auto dev = em::MakeBlockDevice(opts, true);
  auto* uring = dynamic_cast<em::UringBlockDevice*>(dev.get());
  ASSERT_NE(uring, nullptr);
  EXPECT_GE(uring->queue_depth(), 1u);
}

TEST(BatchDeviceTest, RegisteredBuffersRoundTrip) {
  if (!em::UringBlockDevice::Supported()) {
    GTEST_SKIP() << "kernel does not grant io_uring";
  }
  TempDir dir("regbuf");
  em::EmOptions opts{.block_words = 16, .pool_frames = 8};
  opts.backend = em::Backend::kUring;
  opts.path = dir.File("regbuf.blk");
  opts.io_queue_depth = 8;
  opts.io_register_buffers = true;
  auto dev = em::MakeBlockDevice(opts, true);
  auto* uring = dynamic_cast<em::UringBlockDevice*>(dev.get());
  ASSERT_NE(uring, nullptr);

  // The pool registers its frames at construction; whether the kernel
  // accepted is advisory (memlock limits may refuse) — the round trip must
  // be byte-identical either way, mixing registered (frame) buffers and
  // unregistered (scratch) ones in the same batches.
  em::BufferPool pool(dev.get(), 8);
  std::vector<em::word_t> zeros(16, 0);
  for (em::BlockId id = 0; id < 13; ++id) dev->Write(id, zeros.data());
  std::vector<em::BlockId> ids{0, 3, 6, 9, 12};
  std::vector<std::uint32_t> frames;
  pool.PinMany(ids, &frames);  // frame buffers through the ring (reads)
  for (std::size_t i = 0; i < frames.size(); ++i) {
    pool.FrameData(frames[i])[0] = 4000 + ids[i];
    pool.Unpin(frames[i], true);
  }
  pool.FlushAll();  // frame buffers through the ring (writes)

  std::vector<em::word_t> scratch(16, 0);  // unregistered buffer
  for (em::BlockId id : ids) {
    dev->Read(id, scratch.data());
    EXPECT_EQ(scratch[0], 4000 + id);
  }
  std::printf("registered: buffers=%d file=%d\n",
              uring->buffers_registered() ? 1 : 0,
              uring->file_registered() ? 1 : 0);
}
#endif

// ---------------------------------------------------------------------------
// Buffer-pool batching

TEST(BufferPoolBatchTest, PinManyCoalescesMissesAndPinsEverything) {
  em::MemBlockDevice dev(8);
  dev.EnsureCapacity(32);
  em::BufferPool pool(&dev, 8);
  std::vector<em::BlockId> ids{4, 9, 2, 17, 9};  // one duplicate
  std::vector<std::uint32_t> frames;
  pool.PinMany(ids, &frames);
  ASSERT_EQ(frames.size(), ids.size());
  EXPECT_EQ(dev.reads(), 4u);  // duplicate served from the batch's own load
  EXPECT_EQ(pool.stats().pool_misses, 4u);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(frames[1], frames[4]);  // same block, same frame, two pins
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(pool.FrameBlock(frames[i]), ids[i]);
    pool.Unpin(frames[i], false);
  }
}

TEST(BufferPoolBatchTest, PrefetchedBlocksAreByteIdenticalToColdPins) {
  TempDir dir("prefetch");
  for (em::Backend backend : FileBackends()) {
    em::EmOptions opts{.block_words = 8, .pool_frames = 8};
    opts.backend = backend;
    opts.path = dir.File("pf-" + std::to_string(static_cast<int>(backend)));
    auto dev = em::MakeBlockDevice(opts, true);
    std::vector<em::word_t> buf(8);
    for (em::BlockId id = 0; id < 6; ++id) {
      for (std::uint32_t w = 0; w < 8; ++w) buf[w] = id * 1000 + w;
      dev->Write(id, buf.data());
    }

    // Cold pins on one pool; prefetch-then-pin on a second.
    em::BufferPool cold(dev.get(), 8), warm(dev.get(), 8);
    std::vector<em::BlockId> ids{0, 1, 2, 3, 4, 5};
    warm.Prefetch(ids);
    EXPECT_EQ(warm.stats().prefetched, 6u);
    EXPECT_EQ(warm.stats().pool_misses, 0u);
    std::uint64_t dev_reads = dev->reads();
    for (em::BlockId id : ids) {
      std::uint32_t cf = cold.Pin(id, em::BufferPool::PinMode::kRead);
      std::uint32_t wf = warm.Pin(id, em::BufferPool::PinMode::kRead);
      EXPECT_EQ(std::vector<em::word_t>(cold.FrameData(cf),
                                        cold.FrameData(cf) + 8),
                std::vector<em::word_t>(warm.FrameData(wf),
                                        warm.FrameData(wf) + 8));
      cold.Unpin(cf, false);
      warm.Unpin(wf, false);
    }
    // The warm pool's pins were all hits: only the cold pool read.
    EXPECT_EQ(dev->reads(), dev_reads + 6);
    EXPECT_EQ(warm.stats().pool_hits, 6u);
  }
}

TEST(BufferPoolBatchTest, PrefetchRespectsPinsAndSkipsWhenFull) {
  em::MemBlockDevice dev(8);
  dev.EnsureCapacity(64);
  em::BufferPool pool(&dev, 4);
  // Pin three of four frames.
  std::uint32_t f0 = pool.Pin(0, em::BufferPool::PinMode::kRead);
  std::uint32_t f1 = pool.Pin(1, em::BufferPool::PinMode::kRead);
  std::uint32_t f2 = pool.Pin(2, em::BufferPool::PinMode::kRead);
  pool.FrameData(f0)[0] = 42;
  // Prefetch far more than fits: it must fill the one free frame, evict
  // nothing pinned, and silently skip the rest.
  std::vector<em::BlockId> many;
  for (em::BlockId id = 10; id < 40; ++id) many.push_back(id);
  pool.Prefetch(many);
  EXPECT_EQ(pool.stats().prefetched, 1u);
  EXPECT_EQ(pool.FrameBlock(f0), 0u);
  EXPECT_EQ(pool.FrameData(f0)[0], 42u);
  // A prefetch that fits no frame at all is a no-op, not an error.
  std::uint32_t f3 = pool.Pin(3, em::BufferPool::PinMode::kRead);
  pool.Prefetch(many);
  EXPECT_EQ(pool.stats().prefetched, 1u);
  for (std::uint32_t f : {f0, f1, f2, f3}) pool.Unpin(f, false);
}

// Copy-on-write: a dirty checkpoint-live block evicted by a batch moves to
// a fresh location at its write-back. When the same batch then misses on
// that block, the load must read the new location, not the checkpoint's.
TEST(BufferPoolBatchTest, CowVictimReloadedInSameBatchReadsNewBytes) {
  TempDir dir("cow-victim");
  for (em::Backend backend : AllBackends()) {
    SCOPED_TRACE(static_cast<int>(backend));
    em::EmOptions opts{.block_words = 16, .pool_frames = 4};
    opts.backend = backend;
    opts.path = dir.File("cv-" + std::to_string(static_cast<int>(backend)));
    opts.cow_epochs = true;
    em::Pager pager(opts);
    std::vector<em::BlockId> ids;
    for (int i = 0; i < 5; ++i) {
      ids.push_back(pager.Allocate());
      em::PageRef p = pager.Create(ids.back());
      p.Set(0, 100 + ids.back());
    }
    const em::BlockId a = ids[0], b = ids[1];
    ASSERT_TRUE(pager.Checkpoint({}).ok());
    pager.DropCache();
    { em::PageRef p = pager.Fetch(a); p.Set(0, 7); }  // dirty, will redirect
    // Fill the other frames with clean blocks: A is at the LRU tail.
    for (int i = 2; i < 5; ++i) pager.Fetch(ids[i]);
    // B evicts A (its write-back redirects it), then A misses in the same
    // batch.
    const em::BlockId batch[] = {b, a};
    pager.Prefetch(batch);
    EXPECT_EQ(pager.Fetch(a).Get(0), 7u);
    EXPECT_EQ(pager.Fetch(b).Get(0), 100 + b);
  }
}

TEST(BufferPoolBatchTest, BatchEvictionWritesBackDirtyVictims) {
  em::MemBlockDevice dev(8);
  dev.EnsureCapacity(64);
  em::BufferPool pool(&dev, 4);
  // Dirty all four frames.
  for (em::BlockId id = 0; id < 4; ++id) {
    std::uint32_t f = pool.Pin(id, em::BufferPool::PinMode::kRead);
    pool.FrameData(f)[0] = 7 + id;
    pool.Unpin(f, true);
  }
  // A 4-block PinMany evicts all four dirty frames as one write batch.
  std::vector<em::BlockId> ids{10, 11, 12, 13};
  std::vector<std::uint32_t> frames;
  pool.PinMany(ids, &frames);
  EXPECT_EQ(dev.writes(), 4u);
  EXPECT_EQ(pool.stats().evictions, 4u);
  for (std::uint32_t f : frames) pool.Unpin(f, false);
  // The written-back contents are intact.
  for (em::BlockId id = 0; id < 4; ++id) {
    std::uint32_t f = pool.Pin(id, em::BufferPool::PinMode::kRead);
    EXPECT_EQ(pool.FrameData(f)[0], 7 + id);
    pool.Unpin(f, false);
  }
}

// ---------------------------------------------------------------------------
// Mmap device + borrowed pins

TEST(MmapDeviceTest, BorrowedReadsSeeWritesAndCountIos) {
  TempDir dir("mmap-dev");
  em::EmOptions opts{.block_words = 16, .pool_frames = 4};
  opts.backend = em::Backend::kMmap;
  opts.path = dir.File("dev.blk");
  auto dev = em::MakeBlockDevice(opts, /*truncate_file=*/true);
  if (!dev->SupportsBorrowedReads()) {
    GTEST_SKIP() << "kernel refused the mapping";
  }

  std::vector<em::word_t> buf(16);
  for (std::uint32_t w = 0; w < 16; ++w) buf[w] = 100 + w;
  dev->Write(3, buf.data());

  // A borrow is one logical read and observes the written bytes in place.
  std::uint64_t reads = dev->reads();
  const em::word_t* p = dev->TryBorrowRead(3);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(dev->reads(), reads + 1);
  for (std::uint32_t w = 0; w < 16; ++w) EXPECT_EQ(p[w], 100 + w);

  // The pointer is a live view of the page cache: a later write to the
  // same block shows through it (pwrite and MAP_SHARED are coherent), and
  // it stays valid across device growth (no remap ever happens).
  for (std::uint32_t w = 0; w < 16; ++w) buf[w] = 900 + w;
  dev->Write(3, buf.data());
  dev->EnsureCapacity(4096);
  for (std::uint32_t w = 0; w < 16; ++w) EXPECT_EQ(p[w], 900 + w);
}

TEST(MmapDeviceTest, ReadOnlyDeviceServesExistingFile) {
  TempDir dir("mmap-ro");
  em::EmOptions opts{.block_words = 16, .pool_frames = 4};
  opts.backend = em::Backend::kFile;
  opts.path = dir.File("ro.blk");
  std::vector<em::word_t> buf(16, 7);
  {
    auto writer = em::MakeBlockDevice(opts, true);
    writer->Write(0, buf.data());
    writer->Write(5, buf.data());
    writer->Sync();
  }
  opts.backend = em::Backend::kMmap;
  opts.read_only = true;
  auto ro = em::MakeBlockDevice(opts, /*truncate_file=*/false);
  EXPECT_EQ(ro->NumBlocks(), 6u);
  std::vector<em::word_t> got(16, 0);
  ro->Read(5, got.data());
  EXPECT_EQ(got, buf);
  if (ro->SupportsBorrowedReads()) {
    const em::word_t* p = ro->TryBorrowRead(0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p[0], 7u);
  }
}

TEST(BorrowedPinTest, ReadPinsBorrowAndWritePinsCopyOnWrite) {
  TempDir dir("borrow");
  em::EmOptions opts{.block_words = 8, .pool_frames = 4};
  opts.backend = em::Backend::kMmap;
  opts.path = dir.File("borrow.blk");
  auto dev = em::MakeBlockDevice(opts, true);
  if (!dev->SupportsBorrowedReads()) {
    GTEST_SKIP() << "kernel refused the mapping";
  }
  std::vector<em::word_t> buf(8);
  for (em::BlockId id = 0; id < 8; ++id) {
    for (std::uint32_t w = 0; w < 8; ++w) buf[w] = id * 10 + w;
    dev->Write(id, buf.data());
  }

  em::BufferPool pool(dev.get(), 4);
  // Read pin: the frame borrows (no copy into the frame buffer), and the
  // read-only view serves the mapping's bytes.
  std::uint32_t f = pool.Pin(2, em::BufferPool::PinMode::kRead);
  EXPECT_TRUE(pool.FrameBorrowed(f));
  EXPECT_EQ(pool.stats().borrows, 1u);
  EXPECT_EQ(pool.ReadData(f)[3], 23u);

  // First mutable access upgrades copy-on-write: borrowed -> owned, bytes
  // preserved, mapping untouched by the mutation until write-back.
  em::word_t* mut = pool.FrameData(f);
  EXPECT_FALSE(pool.FrameBorrowed(f));
  EXPECT_EQ(mut[3], 23u);
  mut[3] = 777;
  pool.Unpin(f, /*dirty=*/true);
  EXPECT_EQ(dev->TryBorrowRead(2)[3], 23u);  // not yet written back
  pool.FlushAll();
  EXPECT_EQ(dev->TryBorrowRead(2)[3], 777u);  // write-back reached the file

  // Re-pinning after the flush borrows again and sees the new bytes.
  std::uint32_t f2 = pool.Pin(2, em::BufferPool::PinMode::kRead);
  EXPECT_EQ(pool.ReadData(f2)[3], 777u);
  pool.Unpin(f2, false);
}

TEST(BorrowedPinTest, EvictionNeverWritesBorrowedFrames) {
  TempDir dir("borrow-evict");
  em::EmOptions opts{.block_words = 8, .pool_frames = 4};
  opts.backend = em::Backend::kMmap;
  opts.path = dir.File("evict.blk");
  auto dev = em::MakeBlockDevice(opts, true);
  if (!dev->SupportsBorrowedReads()) {
    GTEST_SKIP() << "kernel refused the mapping";
  }
  std::vector<em::word_t> buf(8, 1);
  for (em::BlockId id = 0; id < 16; ++id) dev->Write(id, buf.data());
  const std::uint64_t writes_before = dev->writes();

  em::BufferPool pool(dev.get(), 4);
  // Cycle far more blocks than frames through read pins: every miss
  // borrows, every eviction drops a borrowed frame, and none of it may
  // write a single block.
  for (int round = 0; round < 4; ++round) {
    for (em::BlockId id = 0; id < 16; ++id) {
      std::uint32_t f = pool.Pin(id, em::BufferPool::PinMode::kRead);
      EXPECT_TRUE(pool.FrameBorrowed(f));
      pool.Unpin(f, false);
    }
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_EQ(dev->writes(), writes_before);
  pool.DropAll();
  EXPECT_EQ(dev->writes(), writes_before);
}

TEST(BorrowedPinTest, PinManyAndPrefetchBorrow) {
  TempDir dir("borrow-batch");
  em::EmOptions opts{.block_words = 8, .pool_frames = 8};
  opts.backend = em::Backend::kMmap;
  opts.path = dir.File("batch.blk");
  auto dev = em::MakeBlockDevice(opts, true);
  if (!dev->SupportsBorrowedReads()) {
    GTEST_SKIP() << "kernel refused the mapping";
  }
  std::vector<em::word_t> buf(8);
  for (em::BlockId id = 0; id < 8; ++id) {
    for (std::uint32_t w = 0; w < 8; ++w) buf[w] = id * 10 + w;
    dev->Write(id, buf.data());
  }

  em::BufferPool pool(dev.get(), 8);
  pool.Prefetch(std::vector<em::BlockId>{0, 1, 2});
  EXPECT_EQ(pool.stats().prefetched, 3u);
  EXPECT_EQ(pool.stats().borrows, 3u);

  std::vector<std::uint32_t> frames;
  pool.PinMany(std::vector<em::BlockId>{2, 4, 5}, &frames);
  EXPECT_EQ(pool.stats().pool_hits, 1u);    // 2 was prefetched
  EXPECT_EQ(pool.stats().pool_misses, 2u);  // 4, 5 borrow on miss
  EXPECT_EQ(pool.stats().borrows, 5u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(pool.FrameBorrowed(frames[i]));
    pool.Unpin(frames[i], false);
  }
  EXPECT_EQ(pool.ReadData(frames[1])[2], 42u);
}

// ---------------------------------------------------------------------------
// Backend parity on the full structure

TEST(BackendParityTest, IdenticalIoCountsAndOracleResults) {
  TempDir dir("parity");
  constexpr std::size_t kN = 4096;
  constexpr int kQueries = 200;
  Rng rng(77);
  auto points = MakePoints(&rng, kN);

  // One query in four asks for k at or above B lg n, the Section 1.2
  // pilot cutoff, so the descent's large-k reads run on every backend too.
  auto draw_k = [](Rng* r, int i, std::uint64_t cutoff) -> std::uint64_t {
    return i % 4 == 3 ? cutoff + r->Uniform(2 * cutoff) : 1 + r->Uniform(200);
  };

  struct RunOut {
    em::IoStats build, query;
    std::vector<std::vector<Point>> results;
    std::uint64_t cutoff = 0;
    int pilot_queries = 0;
  };
  auto run = [&](em::Backend backend, const std::string& path,
                 std::uint32_t qd, bool reg = false) {
    em::EmOptions opts{.block_words = 64, .pool_frames = 16};
    opts.backend = backend;
    opts.path = path;
    opts.io_queue_depth = qd;
    opts.io_register_buffers = reg;
    em::Pager pager(opts);
    RunOut out;
    auto built = core::TopkIndex::Build(&pager, points);
    TOKRA_CHECK(built.ok());
    pager.FlushAll();
    out.build = pager.stats();
    out.cutoff = std::uint64_t{pager.B()} * Lg(kN);
    Rng qrng(78);
    em::IoStats before = pager.stats();
    for (int i = 0; i < kQueries; ++i) {
      pager.DropCache();  // cold: every touched block is a real transfer
      double a = qrng.UniformDouble(0.0, 1e6);
      double b = qrng.UniformDouble(0.0, 1e6);
      std::uint64_t k = draw_k(&qrng, i, out.cutoff);
      core::TopkQueryStats qs;
      auto r = (*built)->TopK(std::min(a, b), std::max(a, b), k, &qs);
      TOKRA_CHECK(r.ok());
      if (qs.path == core::QueryPath::kPilotDirect) ++out.pilot_queries;
      out.results.push_back(std::move(*r));
    }
    out.query = pager.stats() - before;
    return out;
  };

  RunOut mem = run(em::Backend::kMem, "", 1);
  RunOut file = run(em::Backend::kFile, dir.File("parity-file.blk"), 1);
  RunOut uring8 = run(em::Backend::kUring, dir.File("parity-u8.blk"), 8);
  RunOut uring32 = run(em::Backend::kUring, dir.File("parity-u32.blk"), 32);
  RunOut uring_reg =
      run(em::Backend::kUring, dir.File("parity-ureg.blk"), 8, /*reg=*/true);
  RunOut mmap = run(em::Backend::kMmap, dir.File("parity-mmap.blk"), 1);

  // Logical I/O counts are a property of the access sequence, not the
  // backend, the queue depth, kernel-side buffer registration, or whether
  // reads were copied or borrowed.
  for (const RunOut* other : {&file, &uring8, &uring32, &uring_reg, &mmap}) {
    EXPECT_EQ(mem.build.reads, other->build.reads);
    EXPECT_EQ(mem.build.writes, other->build.writes);
    EXPECT_EQ(mem.query.reads, other->query.reads);
    EXPECT_EQ(mem.query.writes, other->query.writes);
    EXPECT_EQ(mem.query.pool_hits, other->query.pool_hits);
    EXPECT_EQ(mem.query.pool_misses, other->query.pool_misses);
    EXPECT_EQ(mem.query.prefetched, other->query.prefetched);
    EXPECT_EQ(mem.pilot_queries, other->pilot_queries);
    ASSERT_EQ(mem.results.size(), other->results.size());
    for (std::size_t i = 0; i < mem.results.size(); ++i) {
      EXPECT_EQ(mem.results[i], other->results[i]) << "query " << i;
    }
  }

  EXPECT_GE(mem.pilot_queries, kQueries / 4);

  // And the shared answers are right: check against the oracle.
  Rng qrng(78);
  for (int i = 0; i < kQueries; ++i) {
    double a = qrng.UniformDouble(0.0, 1e6);
    double b = qrng.UniformDouble(0.0, 1e6);
    std::uint64_t k = draw_k(&qrng, i, mem.cutoff);
    auto expect =
        internal::NaiveTopK(points, std::min(a, b), std::max(a, b), k);
    EXPECT_EQ(mem.results[i], expect) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Parallel checkpoints

engine::EngineOptions BaseEngineOptions(const std::string& dir) {
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.threads = 4;
  opts.em.block_words = 64;
  opts.em.pool_frames = 16;
  opts.storage_dir = dir;
  return opts;
}

TEST(ParallelCheckpointTest, MatchesSerialAndRecovers) {
  TempDir par_dir("ckpt-par"), ser_dir("ckpt-ser");
  Rng rng(91);
  auto points = MakePoints(&rng, 2048);
  auto extra = MakePoints(&rng, 256);

  auto run = [&](const std::string& dir, bool parallel) {
    engine::EngineOptions opts = BaseEngineOptions(dir);
    opts.parallel_checkpoint = parallel;
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    TOKRA_CHECK(built.ok());
    // Mutate after build so the checkpoint has real dirty state to flush.
    for (const Point& p : extra) TOKRA_CHECK((*built)->Insert(p).ok());
    for (std::size_t i = 0; i < points.size(); i += 5) {
      TOKRA_CHECK((*built)->Delete(points[i]).ok());
    }
    TOKRA_CHECK((*built)->Checkpoint().ok());
    auto recovered = engine::ShardedTopkEngine::Recover(opts);
    TOKRA_CHECK(recovered.ok());
    (*recovered)->CheckInvariants();
    return std::move(*recovered);
  };
  auto par = run(par_dir.path(), /*parallel=*/true);
  auto ser = run(ser_dir.path(), /*parallel=*/false);

  EXPECT_EQ(par->size(), ser->size());
  Rng qrng(92);
  for (int i = 0; i < 100; ++i) {
    double a = qrng.UniformDouble(0.0, 1e6);
    double b = qrng.UniformDouble(0.0, 1e6);
    std::uint64_t k = 1 + qrng.Uniform(64);
    auto rp = par->TopK(std::min(a, b), std::max(a, b), k);
    auto rs = ser->TopK(std::min(a, b), std::max(a, b), k);
    ASSERT_TRUE(rp.ok() && rs.ok());
    EXPECT_EQ(*rp, *rs) << "query " << i;
  }
}

TEST(ParallelCheckpointTest, CleanShardsAreSkippedAndStayRecoverable) {
  TempDir dir("ckpt-clean");
  Rng rng(95);
  auto points = MakePoints(&rng, 2048);
  engine::EngineOptions opts = BaseEngineOptions(dir.path());
  auto built = engine::ShardedTopkEngine::Build(points, opts);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Checkpoint().ok());

  // Nothing changed: a second checkpoint must skip every shard — zero
  // block writes (the files already hold exactly this state).
  em::IoStats before = (*built)->AggregatedIoStats();
  ASSERT_TRUE((*built)->Checkpoint().ok());
  EXPECT_EQ(((*built)->AggregatedIoStats() - before).writes, 0u);

  // Dirty exactly one shard; the next checkpoint writes only that shard
  // (strictly fewer blocks than the full first checkpoint flushed).
  auto one = MakePoints(&rng, 1);
  ASSERT_TRUE((*built)->Insert(one[0]).ok());
  before = (*built)->AggregatedIoStats();
  ASSERT_TRUE((*built)->Checkpoint().ok());
  const std::uint64_t dirty_writes =
      ((*built)->AggregatedIoStats() - before).writes;
  EXPECT_GT(dirty_writes, 0u);

  // Skipped checkpoints must not cost recoverability.
  std::uint64_t final_size = (*built)->size();
  built->reset();
  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->size(), final_size);
  (*recovered)->CheckInvariants();
}

TEST(ParallelCheckpointTest, RepeatedCheckpointsStayRecoverable) {
  TempDir dir("ckpt-repeat");
  Rng rng(93);
  auto points = MakePoints(&rng, 1024);
  engine::EngineOptions opts = BaseEngineOptions(dir.path());
  opts.em.backend = em::Backend::kUring;  // uring shards + parallel ckpt
  auto built = engine::ShardedTopkEngine::Build(points, opts);
  ASSERT_TRUE(built.ok());
  auto more = MakePoints(&rng, 512);
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = round * 128; i < (round + 1) * 128; ++i) {
      ASSERT_TRUE((*built)->Insert(more[i]).ok());
    }
    ASSERT_TRUE((*built)->Checkpoint().ok());
  }
  std::uint64_t final_size = (*built)->size();
  built->reset();  // close all shard files before reopening

  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->size(), final_size);
  (*recovered)->CheckInvariants();
}

}  // namespace
}  // namespace tokra
