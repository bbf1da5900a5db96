// ShardedTopkEngine: a concurrent, range-partitioned service layer over
// independent TopkIndex shards.
//
// The key space is split into S contiguous ranges; each shard owns one range
// as a private TopkIndex on a private em::Pager (buffer pools never contend).
// Updates route to the owning shard under that shard's mutex; TopK fans out
// to the overlapping shards on a fixed thread pool and merges the per-shard
// lists with a k-bounded tournament heap (engine/merge.h, built on
// select/heap_view.h).
//
// Guarantees preserved from the paper: each shard holds n_i points of its
// subrange with the per-index bounds intact — O(n_i/B) space, O(lg_B n_i)
// amortized updates, O(lg n_i + k/B) query I/Os — so a query touching q
// shards costs O(sum_i lg n_i + k/B) I/Os spread across q independent
// devices, and the merge adds O(k + q) free CPU work (see DESIGN.md).
//
// Concurrency model:
//   * topology_mu_ (shared/unique): shard count and boundaries. All
//     operations take it shared; Rebalance takes it unique.
//   * one mutex per shard: serializes that shard's index and pager, and —
//     because x determines its shard — totally orders all operations on any
//     given x, so registry reservations are never observable half-applied.
//   * registry_mu_: the exact-membership registry (x -> score), which gives
//     the service layer safe duplicate/missing rejection that the raw
//     TopkIndex (per the paper's distinctness assumption) does not check.
// Lock order: topology -> shard -> registry; no path takes two shard
// mutexes, so the engine is deadlock-free.

#ifndef TOKRA_ENGINE_SHARDED_ENGINE_H_
#define TOKRA_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/topk_index.h"
#include "em/io_stats.h"
#include "em/pager.h"
#include "em/wal.h"
#include "engine/options.h"
#include "engine/request.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "sketch/shard_fence.h"
#include "util/point.h"
#include "util/status.h"

namespace tokra::engine {

/// One update inside a shard's logical WAL record.
struct WalOp {
  bool insert = true;  ///< false: delete
  Point p;
};

/// Serializes a group of accepted updates as ONE logical WAL record payload
/// — the engine's redo format and its replication wire format: a follower
/// reads a shard's log tail (em::WalReader), decodes each record with
/// DecodeWalOps, and applies the ops onto its snapshot copy.
std::vector<em::word_t> EncodeWalOps(std::span<const WalOp> ops);
StatusOr<std::vector<WalOp>> DecodeWalOps(std::span<const em::word_t> payload);

/// What Recover() had to do beyond reopening checkpoints.
struct RecoveryReport {
  std::uint64_t replayed_records = 0;  ///< logical WAL records re-applied
  std::uint64_t replayed_ops = 0;      ///< updates inside those records
  bool rolled_forward_rebalance = false;
};

/// Per-query observability, aggregated across the queried shards.
struct EngineQueryStats {
  std::uint32_t shards_queried = 0;      ///< shards actually probed
  std::uint64_t shard_candidates = 0;    ///< per-shard hits fed to the merge
  std::uint64_t merge_nodes_visited = 0; ///< tournament-heap visits (<= k+q)
  // Fence-guided pruning (all zero with pruning disabled; DESIGN.md §11).
  std::uint32_t shards_pruned = 0;  ///< overlapping shards proven skippable
  std::uint32_t fence_checks = 0;   ///< fence consultations for this query
  std::uint32_t waves = 0;          ///< dispatch waves the fan-out took
  em::IoStats io;                   ///< summed I/O delta of the query
};

/// Cached pointers into the engine's MetricsRegistry — one registry lookup
/// per metric at construction, then every record is a direct histogram/
/// gauge hit. All null when telemetry is disabled, which turns every
/// instrumentation site into a branch on nullptr (DESIGN.md §10 overhead
/// budget). `em` is handed to every shard's pager/pool/WAL via
/// EmOptions::metrics.
struct EngineMetricSet {
  // Query path.
  obs::Histogram* query_latency_us = nullptr;  ///< whole TopK, end to end
  obs::Histogram* stage_fanout_us = nullptr;   ///< dispatch + slowest probe
  obs::Histogram* stage_probe_us = nullptr;    ///< one per shard probe
  obs::Histogram* stage_merge_us = nullptr;    ///< k-bounded tournament merge
  obs::Histogram* stage_reply_us = nullptr;    ///< stats aggregation + return
  // Update / batch path.
  obs::Histogram* update_latency_us = nullptr;  ///< direct Insert/Delete
  obs::Histogram* batch_exec_us = nullptr;      ///< whole ExecuteBatch
  obs::Histogram* admission_wait_us = nullptr;  ///< batcher window wait
  obs::Gauge* queue_depth = nullptr;            ///< batcher pending requests
  // Maintenance.
  obs::Histogram* checkpoint_us = nullptr;  ///< whole engine Checkpoint()
  obs::Histogram* recover_us = nullptr;     ///< whole Recover()
  obs::Histogram* rebalance_us = nullptr;   ///< whole Rebalance()
  // Thread pool.
  obs::Histogram* pool_task_wait_us = nullptr;
  obs::Histogram* pool_task_run_us = nullptr;
  // Fence-guided pruning (DESIGN.md §11).
  obs::Counter* shards_pruned_total = nullptr;
  obs::Counter* fence_checks_total = nullptr;
  obs::Counter* query_waves_total = nullptr;
  // The em layer's sinks (eviction stall, WAL append/fsync, pager
  // checkpoint), pointed into the same registry.
  em::EmMetrics em;
};

/// Monotonic service counters (snapshot).
struct EngineCounters {
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t queries = 0;
  std::uint64_t rejected = 0;   ///< duplicate inserts + missing deletes
  std::uint64_t batches = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t shards_pruned = 0;  ///< fence-skipped shard probes (lifetime)
  std::uint64_t fence_checks = 0;   ///< fence consultations (lifetime)
  std::uint64_t query_waves = 0;    ///< dispatch waves across all queries
  std::uint64_t query_shard_locks = 0;  ///< shard-mutex acquisitions on the
                                        ///< query path; stays 0 while every
                                        ///< probe rides a read view (MVCC
                                        ///< or snapshot) —
                                        ///< the lock-free-reads assertion
};

class ShardedTopkEngine {
 public:
  /// Builds the engine over the initial point set (globally distinct x and
  /// scores, as in TopkIndex::Build). Shard boundaries are chosen so the
  /// initial points split evenly.
  static StatusOr<std::unique_ptr<ShardedTopkEngine>> Build(
      std::vector<Point> points, EngineOptions options);

  /// Reopens an engine persisted by Checkpoint(): every shard's pager is
  /// restored from its backing file (options.storage_dir), the shard
  /// boundaries come from the checkpoint roots, and the exact-membership
  /// registry is rebuilt with one O(n_i/B) scan per shard — no index
  /// rebuild. `options` must match the checkpointed topology (same
  /// num_shards, same em geometry).
  ///
  /// Under a WAL durability mode this is full point-in-time recovery: an
  /// interrupted rebalance is reconciled file-by-file (shard and log files
  /// roll forward or back together), each shard's pager undoes torn
  /// inter-checkpoint home writes back to its stamped checkpoint LSN, and
  /// the log tail past that LSN — every acknowledged update batch — is
  /// replayed through the index. A torn log tail (crash mid-append) is
  /// dropped, which is exactly the never-acknowledged suffix.
  static StatusOr<std::unique_ptr<ShardedTopkEngine>> Recover(
      EngineOptions options, RecoveryReport* report = nullptr);

  /// Read-only snapshot serving mode: maps every checkpointed shard file
  /// immutably (backend forced to kMmap read-only unless the caller picked
  /// another file backend) and serves TopK without per-shard write locks.
  /// Each shard opens one read-only pager and publishes ONE ShardView over
  /// it, exactly once, never republished: the view's `threads + 1` read
  /// handles share that pager's device and a query claims any free one, so
  /// N readers scale instead of serializing on one shard mutex. On kMmap
  /// the zero-copy borrow path makes the OS page cache the only real cache,
  /// shared across all handles. Updates,
  /// Checkpoint() and Rebalance() are refused (kFailedPrecondition) and
  /// the files are never written. The files must stay quiescent while the
  /// snapshot is open: the snapshot never writes, but a concurrent
  /// *writer* to the same inodes (a live engine applying updates or
  /// checkpointing in place) would mutate pages under the snapshot's
  /// borrowed pointers mid-query. Serve a checkpointed directory whose
  /// owner is idle or closed, or a copy shipped to a replica machine.
  /// Unlike Recover() it never repairs an interrupted rebalance (that
  /// would write); run Recover() first in that state.
  static StatusOr<std::unique_ptr<ShardedTopkEngine>> OpenSnapshot(
      EngineOptions options);

  /// Whether this engine is a read-only snapshot (OpenSnapshot).
  bool snapshot() const { return snapshot_; }

  /// Persists every shard: flushes dirty blocks and records each shard's
  /// index meta + lower bound + shard count + topology generation in its
  /// pager superblock. Exclusive (waits for in-flight operations);
  /// kFailedPrecondition without a storage_dir or under Durability::kNone.
  /// Recover() restores the last completed checkpoint; it is guaranteed
  /// recoverable after checkpoint-then-exit (clean shutdown) or a crash
  /// during the checkpoint itself.
  ///
  /// Under Durability::kCheckpoint, updates applied between checkpoints
  /// mutate shard blocks in place, so a crash after them can leave shards
  /// unrecoverable to the earlier checkpoint. Under the WAL modes each
  /// shard's checkpoint additionally stamps the LSN it covers into the
  /// shard superblock and truncates the log behind it (steady-state log
  /// size is bounded by one checkpoint interval), and the inter-checkpoint
  /// window is closed entirely. `covered_lsns`, when non-null, receives
  /// each shard's stamped LSN (0 without a log) — the handle a replica
  /// needs to ask for the right log tail.
  Status Checkpoint(std::vector<std::uint64_t>* covered_lsns = nullptr);

  /// Checkpoint + atomic export: runs a full Checkpoint() and then, still
  /// holding the engine exclusively, copies every shard's checkpoint file
  /// into `dest_dir` (created if needed; existing files overwritten). No
  /// update can interleave between the stamp and the copy, so the exported
  /// files are byte-for-byte the state of ONE checkpoint and
  /// `covered_lsns` are exactly the LSNs a replica resumes each shard's
  /// log tail from. The export contains shard files only (no logs): open
  /// it with Recover() under Durability::kCheckpoint or with
  /// OpenSnapshot(). Updates are blocked for the duration of the copy —
  /// the replication primary's bootstrap cost (DESIGN.md §13).
  Status ExportSnapshot(const std::string& dest_dir,
                        std::vector<std::uint64_t>* covered_lsns = nullptr);

  // All public methods below are thread-safe.

  /// Inserts p. kAlreadyExists on duplicate x or score (checked globally).
  Status Insert(const Point& p);

  /// Deletes p. kNotFound unless a point with exactly (p.x, p.score) exists.
  Status Delete(const Point& p);

  /// The k highest-scored points with x in [x1, x2], score-descending —
  /// byte-identical to a single TopkIndex over the union of the shards.
  StatusOr<std::vector<Point>> TopK(double x1, double x2, std::uint64_t k,
                                    EngineQueryStats* stats = nullptr) const;

  /// Executes a batch: updates are grouped by owning shard and applied with
  /// ONE lock acquisition per shard (shard groups run in parallel, each
  /// group in submission order); queries then run concurrently. Within a
  /// batch, every update happens-before every query. Ordering between
  /// different shards' update groups is unspecified — observable only via
  /// same-score conflicts inside one batch. out->at(i) answers batch[i].
  void ExecuteBatch(std::span<const Request> batch,
                    std::vector<Response>* out);

  /// Re-splits the key space so every shard holds ~n/S points. Exclusive:
  /// waits for in-flight operations. On a file-backed engine the new shards
  /// are built and checkpointed in side files and renamed over the live
  /// files only once complete, so the previous checkpoint stays recoverable
  /// throughout and a successful rebalance leaves the post-rebalance state
  /// checkpointed.
  Status Rebalance();

  /// Rebalance hook for skewed insert streams: rebalances iff the largest
  /// shard exceeds rebalance_skew * average and the engine holds at least
  /// rebalance_min_points. Returns whether a rebalance ran.
  bool MaybeRebalance();

  std::uint64_t size() const;
  /// Fixed at Build; reads no mutable state.
  std::uint32_t num_shards() const { return options_.num_shards; }
  std::vector<std::uint64_t> ShardSizes() const;
  /// Lower bound of each shard's key range; element 0 is -infinity.
  std::vector<double> ShardLowerBounds() const;

  /// Sum of all shards' pager counters — on a live engine the writer
  /// pagers only (MVCC view handles are not counted); on a snapshot also
  /// the view handles that served its queries. Rebalance replaces shard
  /// pagers, so the aggregate restarts from zero after one.
  em::IoStats AggregatedIoStats() const;
  /// Sum of all shards' Pager::Space() — file_blocks is the volume a full
  /// replication bootstrap ships.
  em::SpaceStats AggregatedSpaceStats() const;
  /// Sum of all shards' blocks in use — the paper's space metric, summed.
  std::uint64_t BlocksInUse() const;
  EngineCounters counters() const;

  /// Validates every shard's index, the shard partition, and the registry.
  /// O(n); exclusive.
  void CheckInvariants() const;

  // ---- Telemetry (null/no-op when options.telemetry.enabled is false) ----

  bool telemetry_enabled() const { return metrics_ != nullptr; }
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  obs::Tracer* tracer() const { return tracer_.get(); }
  obs::SlowQueryLog* slow_query_log() const { return slow_log_.get(); }
  /// The cached metric pointers (all null when disabled) — the batcher and
  /// benches record through these directly.
  const EngineMetricSet& metric_set() const { return mset_; }

  /// Prometheus-style text exposition of every registered metric, with the
  /// service counters and per-shard Space() gauges refreshed first. Empty
  /// when telemetry is disabled.
  std::string DumpMetrics() const;

 private:
  /// One lock-free read handle inside a ShardView — a read-only pager over
  /// a shared read view of the shard pager's device (its own pool and
  /// IoStats), plus an index view opened on that pager. mu serializes
  /// queries on this handle only (rotation finds a free one).
  struct ReadHandle {
    std::unique_ptr<em::Pager> pager;
    std::unique_ptr<core::TopkIndex> index;
    std::mutex mu;
  };

  /// An immutable image of one shard, read without the shard mutex. MVCC
  /// (options_.mvcc; DESIGN.md §14) publishes one after every per-shard
  /// checkpoint, pinned to its epoch; a snapshot (OpenSnapshot) publishes
  /// one at open with an empty pin — its files are quiescent — and never
  /// replaces it. The pin is declared FIRST so it is released LAST: the
  /// handles' pagers read blocks the pin keeps alive (retirement waits for
  /// the oldest pin), so they must close before the pin returns those
  /// blocks to the writer's free list.
  struct ShardView {
    em::EpochPin pin;
    std::uint64_t epoch = 0;
    // Fence snapshot taken at publication: the router prunes with the
    // view's own fence so routing decisions match the data the view serves
    // (the live fence may already reflect post-epoch updates).
    sketch::ShardFence fence;
    bool has_fence = false;
    std::vector<std::unique_ptr<ReadHandle>> handles;
    mutable std::atomic<std::uint32_t> next{0};
  };

  /// The slot a shard publishes its view in. A small mutex guards only the
  /// pointer copy or swap, never a probe, so readers stay off the shard
  /// mutex (query_shard_locks does not count it), and the synchronization
  /// is one that ThreadSanitizer models. Every query locks it, so it gets
  /// a cache line of its own, away from the fields updates write.
  class alignas(64) ViewSlot {
   public:
    std::shared_ptr<const ShardView> Load() const {
      std::lock_guard<std::mutex> g(mu_);
      return view_;
    }
    /// The replaced view is released after the lock is dropped.
    void Store(std::shared_ptr<const ShardView> view) {
      std::lock_guard<std::mutex> g(mu_);
      view_.swap(view);
    }

   private:
    mutable std::mutex mu_;
    std::shared_ptr<const ShardView> view_;
  };

  struct Shard {
    Shard() = default;  // Recover/OpenSnapshot fill pager/index from a file
    explicit Shard(const em::EmOptions& em)
        : pager(std::make_unique<em::Pager>(em)) {}
    std::unique_ptr<em::Pager> pager;
    std::unique_ptr<core::TopkIndex> index;
    mutable std::mutex mu;
    std::atomic<std::uint64_t> approx_size{0};
    // Set on every accepted update; cleared by a successful checkpoint of
    // this shard. A clean shard's checkpoint is skipped (its file already
    // holds this exact state).
    std::atomic<bool> dirty{true};
    // Pruning sketch (DESIGN.md §11). fence_mu lets the router read bounds
    // without taking the shard mutex (which queries in flight hold for the
    // whole probe); updates touch the fence under BOTH mu and fence_mu, so
    // a router holding only fence_mu still sees a sound fence. has_fence
    // false => the router must dispatch this shard unconditionally.
    mutable std::mutex fence_mu;
    sketch::ShardFence fence;
    bool has_fence = false;
    // Pager block chain holding the fence blob of the LAST checkpoint
    // (kNullBlock before the first); freed and rewritten by the next one.
    em::BlockId fence_root = em::kNullBlock;
    // The published view (an MVCC epoch or the snapshot image). Null on a
    // non-MVCC live engine, before the first publication, or when the
    // backend cannot share reads; queries then take the locked probe.
    // Declared LAST so it is destroyed FIRST — its handles' pagers alias
    // this shard's device and its pin unregisters with this shard's pager,
    // both of which must still be alive.
    ViewSlot view;
  };

  explicit ShardedTopkEngine(EngineOptions options);

  /// Creates the registry/tracer/slow-query log, registers every metric,
  /// and wires options_.em.metrics + the pool's sinks. Called from the
  /// constructor only; no-op when telemetry is disabled.
  void InitTelemetry();

  /// Index of the shard owning x. Caller holds topology_mu_.
  std::size_t ShardFor(double x) const;

  /// Validate-against-registry + apply + finalize for one update. Caller
  /// holds topology_mu_ shared and sh.mu (which excludes every other
  /// operation on this point's x). With a WAL, an accepted op is appended
  /// to `group` when non-null (the batch path's group commit — the caller
  /// logs once per shard group) and logged immediately otherwise.
  Status InsertLocked(Shard& sh, const Point& p, std::vector<WalOp>* group);
  Status DeleteLocked(Shard& sh, const Point& p, std::vector<WalOp>* group);

  /// Appends `ops` as one logical record to sh's log and runs the group-
  /// commit barrier. Caller holds sh.mu. No-op when empty or WAL-less.
  /// Non-OK (the log's sticky error) means the record's durability is
  /// unknown: the caller must NOT acknowledge the group — revoke the
  /// applied ops with RollbackShardOps and hand the status back.
  Status LogShardOps(Shard& sh, std::span<const WalOp> ops);

  /// Reverts `ops` (already applied to sh's index, fence, registry, and
  /// counters) in reverse order, returning the live state to exactly the
  /// acknowledged prefix after a failed group commit. Caller holds sh.mu.
  /// If an inverse apply itself fails the shard's home device is poisoned
  /// (the shard leaves service; the on-disk checkpoint + logged prefix
  /// remain the recovery truth).
  void RollbackShardOps(Shard& sh, std::span<const WalOp> ops);

  /// Sticky health gate for accepting updates on sh: the home device's
  /// first error (shard failed outright), else the log's (shard read-only:
  /// reads still serve, but no new update can be made durable). Caller
  /// holds sh.mu.
  Status ShardUpdateStatus(const Shard& sh) const;

  /// Folds one ACCEPTED update into sh's fence (no-op when the shard has no
  /// fence). Caller holds sh.mu; takes sh.fence_mu internally so routers
  /// reading bounds under fence_mu alone always see a sound fence.
  void FenceApply(Shard& sh, bool insert, const Point& p) const;

  /// Non-OK when a WAL mode must stop accepting updates because a failed
  /// rebalance commit left the disk ahead of the in-memory topology (see
  /// storage_failed_): logging against the superseded topology would
  /// poison the roll-forward recovery. Caller holds topology_mu_ (any
  /// mode — storage_failed_ writes hold it exclusively).
  Status RefuseWalAfterStorageFailureLocked() const;

  /// (Re)creates shards and boundaries from `points`. Caller holds
  /// topology_mu_ exclusively (or is Build, pre-publication). When file-
  /// backed shards already exist, the replacements are built into
  /// `<path>.rebuild` side files, checkpointed, and renamed into place only
  /// after every shard succeeded, so the previous checkpoint is never
  /// destroyed by a failed or interrupted rebuild.
  Status BuildShardsLocked(std::vector<Point> points);

  /// Fan-out + merge. Caller holds topology_mu_ shared. `parallel` uses the
  /// pool; batch query tasks pass false (they already run on the pool).
  StatusOr<std::vector<Point>> TopKLocked(double x1, double x2,
                                          std::uint64_t k,
                                          EngineQueryStats* stats,
                                          bool parallel) const;

  Status RebalanceLocked();
  bool SkewedLocked() const;

  /// Checkpoint body. Caller holds topology_mu_ exclusively.
  Status CheckpointLocked(std::vector<std::uint64_t>* covered_lsns);

  /// Checkpoints shard `i` (fence chain rewrite + pager Checkpoint with the
  /// engine roots) if dirty; the single checkpoint implementation shared by
  /// CheckpointLocked and PublishShardLocked. Caller holds sh.mu (or has
  /// exclusive ownership of the shard). `covered_lsn`, when non-null,
  /// receives the stamped WAL LSN (0 without a log).
  Status CheckpointShardLocked(std::size_t i, Shard& sh,
                               std::uint64_t* covered_lsn);

  /// MVCC: checkpoints shard `i` if dirty and publishes a fresh epoch view
  /// (pin + read handles over a shared device read view). No-op unless
  /// options_.mvcc on a live (non-snapshot) engine. Caller holds sh.mu.
  /// Failures leave the previous view in place — readers just keep serving
  /// the older epoch.
  void PublishShardLocked(std::size_t i, Shard& sh);

  /// Builds a view of shard `i`'s current checkpoint holding `pin`: a copy
  /// of the fence plus `threads + 1` read handles, each Pager::OpenOn a
  /// ShareReadView() of sh.pager. Null when the backend cannot share reads
  /// or a handle fails to open (the shard then serves locked). Caller holds
  /// sh.mu or owns the shard exclusively.
  std::shared_ptr<const ShardView> MakeShardView(std::size_t i, Shard& sh,
                                                 em::EpochPin pin,
                                                 std::uint64_t epoch) const;

  /// The I/O counters shard `sh` accounts for: its pager's, plus — on a
  /// snapshot only — its view handles'. Caller holds sh.mu.
  em::IoStats AccountedIoStatsLocked(const Shard& sh) const;

  EngineOptions options_;
  // Telemetry sits directly after options_ so it is destroyed LAST: shard
  // pagers/pools/WALs and the thread pool all hold raw pointers into the
  // registry (via EmOptions::metrics / SetMetrics) and may record during
  // their own destruction.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  EngineMetricSet mset_;

  bool snapshot_ = false;  // read-only serving mode (OpenSnapshot)
  mutable std::shared_mutex topology_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<double> lower_bounds_;  // lower_bounds_[0] == -inf
  // Topology generation, checkpointed as root 3 of every shard. Bumped at
  // the START of every rebuild attempt and handed back only when a clean
  // abort removed every side file, so an on-disk artifact of a failed
  // attempt can never carry the same generation as a later checkpoint;
  // Recover() uses the agreement of live-file generations to distinguish a
  // committed rebalance from an interrupted one.
  std::uint64_t generation_ = 0;
  // Set when a rebalance commit failed partway through its renames: the
  // disk then mixes topology generations and only Recover() (fresh process,
  // roll-forward) can reconcile it, so Checkpoint() and further rebalances
  // refuse instead of acknowledging durability they cannot deliver.
  // Guarded by topology_mu_ (exclusive).
  bool storage_failed_ = false;

  mutable std::mutex registry_mu_;
  // The registry's nodes come from one engine-owned pool, which recycles a
  // deleted point's node for the next insert. With the default allocator
  // every insert allocates its node on whichever engine thread applied it,
  // and a delete frees it to that thread's malloc arena: under churn the
  // registry slowly migrates across per-thread arenas, each keeping the
  // space the others freed. Guarded by registry_mu_, like the maps.
  std::pmr::unsynchronized_pool_resource registry_pool_;
  std::pmr::unordered_map<double, double> by_x_{&registry_pool_};  // x -> score
  std::pmr::unordered_set<double> scores_{&registry_pool_};

  mutable ThreadPool pool_;

  mutable std::atomic<std::uint64_t> n_inserts_{0}, n_deletes_{0},
      n_queries_{0}, n_rejected_{0}, n_batches_{0}, n_rebalances_{0};
  mutable std::atomic<std::uint64_t> n_shards_pruned_{0}, n_fence_checks_{0},
      n_query_waves_{0};
  // Shard-mutex acquisitions by the query path. Non-MVCC live engines count
  // every probe here; MVCC engines and snapshots count only locked
  // fallbacks, so a test can assert 0 to prove every probe rode a view.
  mutable std::atomic<std::uint64_t> n_query_shard_locks_{0};
};

}  // namespace tokra::engine

#endif  // TOKRA_ENGINE_SHARDED_ENGINE_H_
