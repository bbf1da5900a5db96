// Replicated serving tier tests: wire framing, loopback
// bootstrap/stream/convergence, heartbeat-timeout degradation and
// reconnect, fault-injected partitions (snapshot resume, lagged-follower
// re-snapshot), an MVCC follower read while its tail applies, and the
// fork-based primary-SIGKILL torture leg.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "em/fault_device.h"
#include "engine/sharded_engine.h"
#include "repl/conn.h"
#include "repl/follower.h"
#include "repl/frame.h"
#include "repl/primary.h"
#include "repl/protocol.h"

namespace tokra::repl {
namespace {

namespace fs = std::filesystem;
using engine::Durability;
using engine::EngineOptions;
using engine::ShardedTopkEngine;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("tokra-repl-" + tag + "-" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string Sub(const std::string& name) const {
    const std::string p = path_ + "/" + name;
    fs::create_directories(p);
    return p;
  }

 private:
  std::string path_;
};

/// Spins until `pred` holds or `ms` elapse; returns whether it held.
bool WaitFor(const std::function<bool()>& pred, int ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

EngineOptions BaseEngineOptions() {
  EngineOptions eo;
  eo.num_shards = 2;
  eo.threads = 2;
  eo.em.block_words = 64;
  eo.em.pool_frames = 32;
  eo.durability = Durability::kWal;
  eo.telemetry.enabled = false;
  return eo;
}

/// Distinct x and scores: x = i, score = 10000 + i.
std::vector<Point> MakePoints(int begin, int count) {
  std::vector<Point> v;
  v.reserve(count);
  for (int i = begin; i < begin + count; ++i) {
    v.push_back({static_cast<double>(i), 10000.0 + i});
  }
  return v;
}

std::unique_ptr<ShardedTopkEngine> BuildPrimaryEngine(
    const std::string& dir, int n_points,
    std::uint32_t wal_rotate_blocks = 1024) {
  EngineOptions eo = BaseEngineOptions();
  eo.storage_dir = dir;
  eo.em.wal_rotate_blocks = wal_rotate_blocks;
  auto built = ShardedTopkEngine::Build(MakePoints(0, n_points), eo);
  if (!built.ok()) return nullptr;
  return std::move(*built);
}

Primary::Options PrimaryOptions(const std::string& dir) {
  Primary::Options po;
  po.storage_dir = dir;
  po.block_words = 64;
  po.heartbeat_ms = 25;
  po.poll_ms = 2;
  po.io_timeout_ms = 3000;
  return po;
}

Follower::Options FollowerOptions(std::uint16_t port,
                                  const std::string& dir) {
  Follower::Options fo;
  fo.port = port;
  fo.storage_dir = dir;
  fo.engine = BaseEngineOptions();
  fo.heartbeat_timeout_ms = 200;
  fo.connect_timeout_ms = 500;
  fo.io_timeout_ms = 3000;
  fo.backoff_initial_ms = 10;
  fo.backoff_max_ms = 100;
  fo.ack_interval_ms = 20;
  return fo;
}

// ---------------------------------------------------------------------------
// Wire layer.

TEST(ReplFrameTest, HeaderRoundTripAndRejection) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kTail, payload, header);

  FrameType type;
  std::uint32_t len = 0, crc = 0;
  ASSERT_TRUE(DecodeFrameHeader(header, &type, &len, &crc).ok());
  EXPECT_EQ(type, FrameType::kTail);
  EXPECT_EQ(len, payload.size());
  EXPECT_EQ(crc, Crc32Bytes(payload));

  // A flipped payload byte no longer matches the CRC.
  std::vector<std::uint8_t> tampered = payload;
  tampered[2] ^= 0x10;
  EXPECT_NE(Crc32Bytes(tampered), crc);

  // Bad magic, unknown type, oversized length: each rejected.
  std::uint8_t bad[kFrameHeaderBytes];
  std::memcpy(bad, header, sizeof(bad));
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrameHeader(bad, &type, &len, &crc).ok());

  std::memcpy(bad, header, sizeof(bad));
  bad[4] = 0xEE;
  EXPECT_FALSE(DecodeFrameHeader(bad, &type, &len, &crc).ok());

  std::memcpy(bad, header, sizeof(bad));
  bad[11] = 0xFF;  // length's top byte: > kMaxFramePayload
  EXPECT_FALSE(DecodeFrameHeader(bad, &type, &len, &crc).ok());
}

TEST(ReplProtocolTest, MessageRoundTrips) {
  {
    SubscribeMsg m;
    m.applied_lsns = {7, 0, 42};
    m.snapshot_epoch = 3;
    m.snapshot_bytes = {4096, 0, 123};
    SubscribeMsg d;
    ASSERT_TRUE(d.Decode(m.Encode()).ok());
    EXPECT_EQ(d.applied_lsns, m.applied_lsns);
    EXPECT_EQ(d.snapshot_epoch, 3u);
    EXPECT_EQ(d.snapshot_bytes, m.snapshot_bytes);
  }
  {
    SnapBeginMsg m;
    m.epoch = 9;
    m.files.push_back({1, 1 << 20, 555, 4096});
    SnapBeginMsg d;
    ASSERT_TRUE(d.Decode(m.Encode()).ok());
    ASSERT_EQ(d.files.size(), 1u);
    EXPECT_EQ(d.files[0].shard, 1u);
    EXPECT_EQ(d.files[0].file_bytes, 1u << 20);
    EXPECT_EQ(d.files[0].covered_lsn, 555u);
    EXPECT_EQ(d.files[0].resume_offset, 4096u);
  }
  {
    TailMsg m;
    m.shard = 1;
    m.lsn = 77;
    m.payload = {9, 8, 7, 6, 5, 4, 3, 2};
    TailMsg d;
    ASSERT_TRUE(d.Decode(m.Encode()).ok());
    EXPECT_EQ(d.shard, 1u);
    EXPECT_EQ(d.lsn, 77u);
    EXPECT_EQ(d.payload, m.payload);
  }
  {
    HeartbeatMsg m;
    m.now_us = 123456789;
    m.head_lsns = {5, 6};
    HeartbeatMsg d;
    ASSERT_TRUE(d.Decode(m.Encode()).ok());
    EXPECT_EQ(d.head_lsns, m.head_lsns);
  }
  // Truncated and trailing-garbage payloads are both rejected.
  {
    HeartbeatMsg m;
    m.head_lsns = {5, 6};
    auto bytes = m.Encode();
    HeartbeatMsg d;
    auto truncated = bytes;
    truncated.pop_back();
    EXPECT_FALSE(d.Decode(truncated).ok());
    bytes.push_back(0);
    EXPECT_FALSE(d.Decode(bytes).ok());
  }
}

TEST(ReplConnTest, LoopbackFramesAndDeadlines) {
  auto listen = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok());
  auto port = LocalPort(*listen);
  ASSERT_TRUE(port.ok());

  auto client_fd = DialTcp("127.0.0.1", *port, 1000);
  ASSERT_TRUE(client_fd.ok());
  auto server_fd = AcceptConn(*listen, 1000);
  ASSERT_TRUE(server_fd.ok());

  Conn client(*client_fd, {.io_timeout_ms = 1000});
  Conn server(*server_fd, {.io_timeout_ms = 100});

  // Nothing sent yet: TryRecv is immediate, Recv runs into its deadline.
  Frame f;
  EXPECT_EQ(server.TryRecvFrame(&f).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.RecvFrame(&f).code(), StatusCode::kDeadlineExceeded);

  const std::vector<std::uint8_t> payload(100 * 1024, 0xAB);
  ASSERT_TRUE(client.SendFrame(FrameType::kSnapChunk, payload).ok());
  ASSERT_TRUE(server.RecvFrame(&f).ok());
  EXPECT_EQ(f.type, FrameType::kSnapChunk);
  EXPECT_EQ(f.payload, payload);

  // Peer close surfaces as an error, not a hang.
  client.Close();
  EXPECT_FALSE(server.RecvFrame(&f).ok());
  ::close(*listen);
}

// ---------------------------------------------------------------------------
// Loopback primary/follower.

TEST(ReplTest, BootstrapStreamAndConverge) {
  TempDir dir("bootstrap");
  auto eng = BuildPrimaryEngine(dir.Sub("primary"), 200);
  ASSERT_NE(eng, nullptr);
  auto primary = Primary::Start(eng.get(), PrimaryOptions(dir.Sub("primary")));
  ASSERT_TRUE(primary.ok());

  auto follower =
      Follower::Start(FollowerOptions((*primary)->port(), dir.Sub("f1")));
  ASSERT_TRUE(follower.ok());

  ASSERT_TRUE(WaitFor([&] { return (*follower)->serving(); }));
  EXPECT_EQ((*follower)->stats().bootstraps, 1u);

  // Snapshot bytes flowed and the bootstrapped state answers correctly.
  EXPECT_GT((*follower)->stats().snapshot_bytes, 0u);
  auto got = (*follower)->TopK(0, 1000, 3);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 3u);
  EXPECT_EQ((*got)[0].x, 199.0);  // highest score = highest x

  // Live updates stream through the tail.
  for (const Point& p : MakePoints(200, 100)) {
    ASSERT_TRUE(eng->Insert(p).ok());
  }
  auto want = EngineFingerprint(*eng);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(WaitFor([&] {
    auto fp = (*follower)->Fingerprint();
    return fp.ok() && *fp == *want;
  }));
  const Follower::Stats st = (*follower)->stats();
  EXPECT_EQ(st.bootstraps, 1u);  // tail only, no re-bootstrap
  EXPECT_GT(st.tail_records, 0u);
  EXPECT_GT(st.tail_ops, 0u);
  EXPECT_EQ(st.apply_errors, 0u);
  EXPECT_TRUE(WaitFor([&] { return (*follower)->stats().heartbeats > 0; }));

  // Deletes replicate too.
  ASSERT_TRUE(eng->Delete({250.0, 10250.0}).ok());
  want = EngineFingerprint(*eng);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(WaitFor([&] {
    auto fp = (*follower)->Fingerprint();
    return fp.ok() && *fp == *want;
  }));

  // The follower's own registry exposes replication health.
  const std::string dump = (*follower)->DumpMetrics();
  EXPECT_NE(dump.find("tokra_repl_lag_lsn"), std::string::npos);
  EXPECT_NE(dump.find("tokra_repl_bootstraps_total"), std::string::npos);

  const Primary::Stats ps = (*primary)->stats();
  EXPECT_EQ(ps.snapshots_shipped, 1u);
  EXPECT_GT(ps.tail_records, 0u);
  EXPECT_GT(ps.heartbeats, 0u);
}

// A follower with engine.mvcc publishes an epoch view per applied tail
// record. A reader keeps querying it while the stream applies, and the
// replica converges to the primary's exact state.
TEST(ReplTest, MvccFollowerStreamsAndConverges) {
  TempDir dir("mvcc");
  auto eng = BuildPrimaryEngine(dir.Sub("primary"), 300);
  ASSERT_NE(eng, nullptr);
  auto primary = Primary::Start(eng.get(), PrimaryOptions(dir.Sub("primary")));
  ASSERT_TRUE(primary.ok());

  Follower::Options fo = FollowerOptions((*primary)->port(), dir.Sub("f1"));
  fo.engine.mvcc = true;
  auto follower = Follower::Start(fo);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(WaitFor([&] { return (*follower)->serving(); }));

  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto got = (*follower)->TopK(-1.0, 1e6, 16);
      if (!got.ok() || got->size() != 16u ||
          !std::is_sorted(got->begin(), got->end(), ByScoreDesc{})) {
        ++bad_reads;
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(eng->Insert(MakePoints(300 + i, 1)[0]).ok());
    if (i % 2 == 1) {
      ASSERT_TRUE(eng->Delete(MakePoints(i, 1)[0]).ok());
    }
  }
  auto want = EngineFingerprint(*eng);
  ASSERT_TRUE(want.ok());
  const bool converged = WaitFor([&] {
    auto fp = (*follower)->Fingerprint();
    return fp.ok() && *fp == *want;
  });
  stop = true;
  reader.join();
  ASSERT_TRUE(converged);
  EXPECT_EQ(bad_reads.load(), 0);
  for (double a : {0.0, 120.0, 333.0}) {
    auto got = (*follower)->TopK(a, a + 150.0, 20);
    auto reference = eng->TopK(a, a + 150.0, 20);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(*got, *reference);
  }
  const Follower::Stats st = (*follower)->stats();
  EXPECT_EQ(st.bootstraps, 1u);
  EXPECT_GT(st.tail_ops, 0u);
  EXPECT_EQ(st.apply_errors, 0u);
}

TEST(ReplTest, ReadScalingAcrossFollowers) {
  TempDir dir("scale");
  auto eng = BuildPrimaryEngine(dir.Sub("primary"), 300);
  ASSERT_NE(eng, nullptr);
  auto primary = Primary::Start(eng.get(), PrimaryOptions(dir.Sub("primary")));
  ASSERT_TRUE(primary.ok());

  std::vector<std::unique_ptr<Follower>> followers;
  for (int i = 0; i < 3; ++i) {
    auto f = Follower::Start(FollowerOptions(
        (*primary)->port(), dir.Sub("f" + std::to_string(i))));
    ASSERT_TRUE(f.ok());
    followers.push_back(std::move(*f));
  }
  auto want = EngineFingerprint(*eng);
  ASSERT_TRUE(want.ok());
  for (auto& f : followers) {
    ASSERT_TRUE(WaitFor([&] {
      auto fp = f->Fingerprint();
      return fp.ok() && *fp == *want;
    }));
  }
  // Identical answers from every replica.
  for (auto& f : followers) {
    auto got = f->TopK(50, 250, 10);
    ASSERT_TRUE(got.ok());
    auto reference = eng->TopK(50, 250, 10);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(*got, *reference);
  }
  EXPECT_EQ((*primary)->stats().active_connections, 3u);
}

TEST(ReplTest, DegradesOnPrimaryDeathAndResumesWithoutRebootstrap) {
  TempDir dir("failover");
  const std::string pdir = dir.Sub("primary");
  auto eng = BuildPrimaryEngine(pdir, 150);
  ASSERT_NE(eng, nullptr);
  auto primary = Primary::Start(eng.get(), PrimaryOptions(pdir));
  ASSERT_TRUE(primary.ok());
  const std::uint16_t port = (*primary)->port();

  auto follower = Follower::Start(FollowerOptions(port, dir.Sub("f1")));
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(WaitFor([&] {
    return (*follower)->serving() &&
           (*follower)->state() == Follower::State::kStreaming;
  }));

  // Primary goes away: the follower must detect the silence, degrade, and
  // KEEP answering stale reads.
  (*primary)->Stop();
  primary->reset();
  ASSERT_TRUE(WaitFor(
      [&] { return (*follower)->state() == Follower::State::kDegraded; }));
  auto stale = (*follower)->TopK(0, 1000, 5);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->size(), 5u);
  EXPECT_TRUE(WaitFor([&] { return (*follower)->stats().lag_ms > 0; }));
  EXPECT_GE((*follower)->stats().reconnects, 1u);

  // Updates keep landing on the primary engine while no one is listening.
  for (const Point& p : MakePoints(150, 50)) {
    ASSERT_TRUE(eng->Insert(p).ok());
  }

  // Primary returns on the SAME port: the follower reconnects with backoff
  // and resumes from its applied LSNs — tail only, no snapshot.
  auto primary2 = Primary::Start(eng.get(), [&] {
    Primary::Options po = PrimaryOptions(pdir);
    po.port = port;
    return po;
  }());
  ASSERT_TRUE(primary2.ok());

  auto want = EngineFingerprint(*eng);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(WaitFor([&] {
    auto fp = (*follower)->Fingerprint();
    return fp.ok() && *fp == *want;
  }));
  const Follower::Stats st = (*follower)->stats();
  EXPECT_EQ(st.bootstraps, 1u);  // the whole point: no re-bootstrap
  EXPECT_EQ(st.state, Follower::State::kStreaming);
  EXPECT_EQ((*primary2)->stats().snapshots_shipped, 0u);
}

TEST(ReplTest, SnapshotStreamResumesAfterInjectedPartition) {
  TempDir dir("snapresume");
  auto eng = BuildPrimaryEngine(dir.Sub("primary"), 400);
  ASSERT_NE(eng, nullptr);

  em::FaultInjector inj;
  Primary::Options po = PrimaryOptions(dir.Sub("primary"));
  po.chunk_bytes = 1024;  // many chunks, so the fault lands mid-stream
  po.fault = &inj;
  auto primary = Primary::Start(eng.get(), po);
  ASSERT_TRUE(primary.ok());

  // Frame sends on the primary: HelloAck, SnapBegin, then chunks. Fire on
  // the 9th — several chunks into the first shard's file.
  inj.Arm(em::FaultInjector::Kind::kWriteError, 8);

  auto follower =
      Follower::Start(FollowerOptions((*primary)->port(), dir.Sub("f1")));
  ASSERT_TRUE(follower.ok());

  ASSERT_TRUE(WaitFor([&] { return (*follower)->serving(); }));
  const Follower::Stats st = (*follower)->stats();
  EXPECT_EQ(st.bootstraps, 1u);
  EXPECT_GE(st.reconnects, 1u);  // the injected drop forced a reconnect
  // The second attempt resumed mid-file instead of refetching: both ends
  // account the skipped prefix.
  EXPECT_GT(st.snapshot_resumed_bytes, 0u);
  EXPECT_GT((*primary)->stats().snapshot_bytes_skipped, 0u);
  EXPECT_EQ(inj.injected_total(), 1u);

  auto want = EngineFingerprint(*eng);
  ASSERT_TRUE(want.ok());
  auto got = (*follower)->Fingerprint();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);
}

TEST(ReplTest, LaggedFollowerIsReSnapshottedAfterLogRotation) {
  TempDir dir("lagged");
  // Tiny rotation threshold: any full truncation rotates the segment.
  auto eng = BuildPrimaryEngine(dir.Sub("primary"), 100,
                                /*wal_rotate_blocks=*/4);
  ASSERT_NE(eng, nullptr);
  auto primary = Primary::Start(eng.get(), PrimaryOptions(dir.Sub("primary")));
  ASSERT_TRUE(primary.ok());

  const std::uint16_t port = (*primary)->port();
  Follower::Options fo = FollowerOptions(port, dir.Sub("f1"));
  auto follower = Follower::Start(fo);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(WaitFor([&] {
    return (*follower)->serving() &&
           (*follower)->state() == Follower::State::kStreaming;
  }));

  // Take the primary down, then move it past the partitioned follower:
  // accept updates and checkpoint, which truncates and (at this threshold)
  // rotates every shard's log. The follower's applied LSNs are now below
  // every segment's base — and with the primary offline it cannot
  // reconnect early, so the gap is guaranteed by the time it next dials.
  (*primary)->Stop();
  primary->reset();
  for (const Point& p : MakePoints(100, 80)) {
    ASSERT_TRUE(eng->Insert(p).ok());
  }
  ASSERT_TRUE(eng->Checkpoint().ok());
  Primary::Options po = PrimaryOptions(dir.Sub("primary"));
  po.port = port;
  primary = Primary::Start(eng.get(), po);
  ASSERT_TRUE(primary.ok());

  // On reconnect the primary must detect the gap and re-ship a snapshot
  // (of a freshly exported epoch), not silently skip the missing records.
  auto want = EngineFingerprint(*eng);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(WaitFor([&] {
    auto fp = (*follower)->Fingerprint();
    return fp.ok() && *fp == *want;
  }));
  const Follower::Stats st = (*follower)->stats();
  EXPECT_EQ(st.bootstraps, 2u);
  EXPECT_GE(st.reconnects, 1u);
  // The restarted primary had to export a fresh epoch for the gap.
  EXPECT_GE((*primary)->stats().epochs_exported, 1u);
  EXPECT_EQ(st.apply_errors, 0u);
}

// ---------------------------------------------------------------------------
// Fork-based torture: a real primary PROCESS is SIGKILLed mid-tail-stream;
// every follower must degrade, keep serving, reconnect with backoff once a
// recovered primary returns on the same port, resume from its applied LSNs
// without re-bootstrapping, and converge to byte-identical fingerprints.
// Every update the child acknowledged before dying must survive.

constexpr int kTortureInitial = 120;
constexpr int kTortureAckBase = 1000;

/// Child body: live engine + primary; reports the port and every
/// acknowledged insert over `wfd` ("PORT <p>\n", then "ACK <x>\n" lines).
/// Never returns; runs until SIGKILLed.
[[noreturn]] void TorturePrimaryChild(const std::string& dir, int wfd) {
  EngineOptions eo = BaseEngineOptions();
  eo.storage_dir = dir;
  auto built = ShardedTopkEngine::Build(MakePoints(0, kTortureInitial), eo);
  if (!built.ok()) _exit(10);
  auto eng = std::move(*built);
  // A durable base: Recover() in the parent replays the WAL tail past it.
  if (!eng->Checkpoint().ok()) _exit(11);

  auto primary = Primary::Start(eng.get(), [&] {
    Primary::Options po;
    po.storage_dir = dir;
    po.block_words = eo.em.block_words;
    po.heartbeat_ms = 25;
    po.poll_ms = 2;
    return po;
  }());
  if (!primary.ok()) _exit(12);
  ::dprintf(wfd, "PORT %u\n", (*primary)->port());

  for (int i = kTortureAckBase;; ++i) {
    const Point p{static_cast<double>(i), 10000.0 + i};
    if (!eng->Insert(p).ok()) _exit(13);
    // kWal semantics: the insert is in the shard's log (page cache) the
    // moment Insert returns, so acknowledging it here is exactly the
    // durability contract the parent verifies after the SIGKILL.
    ::dprintf(wfd, "ACK %d\n", i);
    ::usleep(300);
  }
}

TEST(ReplTortureTest, PrimarySigkillMidStreamFailoverAndCatchup) {
  TempDir dir("torture");
  const std::string pdir = dir.Sub("primary");

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipefd[0]);
    TorturePrimaryChild(pdir, pipefd[1]);  // never returns
  }
  ::close(pipefd[1]);

  // Collect the child's reports. The reader thread sees EOF when the
  // child dies; a half-written last line is ignored (never acknowledged).
  FILE* in = ::fdopen(pipefd[0], "r");
  ASSERT_NE(in, nullptr);
  char line[64];
  ASSERT_NE(::fgets(line, sizeof(line), in), nullptr);
  unsigned port = 0;
  ASSERT_EQ(std::sscanf(line, "PORT %u", &port), 1);
  ASSERT_GT(port, 0u);

  std::mutex acks_mu;
  std::vector<int> acks;
  std::thread ack_reader([&] {
    char l[64];
    while (::fgets(l, sizeof(l), in) != nullptr) {
      int x = 0;
      if (std::strlen(l) > 0 && l[std::strlen(l) - 1] == '\n' &&
          std::sscanf(l, "ACK %d", &x) == 1) {
        std::lock_guard<std::mutex> lock(acks_mu);
        acks.push_back(x);
      }
    }
  });

  // Two followers (in-process here; the bench and CI smoke run them as
  // real processes).
  std::vector<std::unique_ptr<Follower>> followers;
  for (int i = 0; i < 2; ++i) {
    auto f = Follower::Start(FollowerOptions(
        static_cast<std::uint16_t>(port), dir.Sub("f" + std::to_string(i))));
    ASSERT_TRUE(f.ok());
    followers.push_back(std::move(*f));
  }
  // Mid-tail-stream: both followers bootstrapped AND applying live records.
  for (auto& f : followers) {
    ASSERT_TRUE(WaitFor([&] {
      return f->serving() && f->stats().tail_records > 0;
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Kill -9 the primary process mid-stream.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ack_reader.join();
  ::fclose(in);
  std::vector<int> acked;
  {
    std::lock_guard<std::mutex> lock(acks_mu);
    acked = acks;
  }
  ASSERT_GT(acked.size(), 10u);  // the stream was genuinely live

  // Every follower degrades, reports lag, and keeps serving stale reads.
  std::vector<std::uint64_t> bootstraps_before;
  for (auto& f : followers) {
    ASSERT_TRUE(WaitFor(
        [&] { return f->state() == Follower::State::kDegraded; }));
    auto stale = f->TopK(0, 1e9, 5);
    ASSERT_TRUE(stale.ok());
    EXPECT_EQ(stale->size(), 5u);
    EXPECT_TRUE(WaitFor([&] { return f->stats().lag_ms > 0; }));
    bootstraps_before.push_back(f->stats().bootstraps);
  }

  // Recover the dead primary's directory in this process: the WAL tail
  // replay restores every acknowledged insert.
  EngineOptions eo = BaseEngineOptions();
  eo.storage_dir = pdir;
  engine::RecoveryReport report;
  auto recovered = ShardedTopkEngine::Recover(eo, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_GT(report.replayed_records, 0u);
  std::uint64_t acknowledged_lost = 0;
  for (int x : acked) {
    auto got =
        (*recovered)->TopK(static_cast<double>(x), static_cast<double>(x), 1);
    if (!got.ok() || got->size() != 1) ++acknowledged_lost;
  }
  EXPECT_EQ(acknowledged_lost, 0u);

  // Same port, recovered state: followers must catch up via tail resume.
  auto primary2 = Primary::Start(recovered->get(), [&] {
    Primary::Options po = PrimaryOptions(pdir);
    po.port = static_cast<std::uint16_t>(port);
    return po;
  }());
  ASSERT_TRUE(primary2.ok());

  auto want = EngineFingerprint(**recovered);
  ASSERT_TRUE(want.ok());
  for (std::size_t i = 0; i < followers.size(); ++i) {
    ASSERT_TRUE(WaitFor([&] {
      auto fp = followers[i]->Fingerprint();
      return fp.ok() && *fp == *want;
    })) << "follower " << i << " failed to converge";
    const Follower::Stats st = followers[i]->stats();
    EXPECT_EQ(st.bootstraps, bootstraps_before[i])
        << "follower " << i << " re-bootstrapped instead of resuming";
    EXPECT_EQ(st.apply_errors, 0u);
    EXPECT_GE(st.reconnects, 1u);
  }
  // Convergence to the recovered primary implies no acknowledged update
  // was lost on any replica (fingerprints are order-sensitive over the
  // full point set).
  EXPECT_EQ((*primary2)->stats().snapshots_shipped, 0u);
}

}  // namespace
}  // namespace tokra::repl
