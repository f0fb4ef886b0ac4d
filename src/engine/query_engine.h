// QueryEngine: concurrent multi-query execution over one shared substrate —
// the workload-level layer of the paper's robustness story. A server facing
// many queries with mis-estimated selectivities must not cliff, so the engine
// runs *streams* of queries, not one query, over the engine's TaskScheduler
// (intra-query morsel work) and the shared BufferPool (page residency and
// pinning), while every query charges a private AccountingStack
// (see exec_context.h) — which is what keeps each query's simulated cost
// bit-identical to a solo cold run at any admission level.
//
// Control plane vs. data plane:
//   * A Session (engine/session.h, the one client surface) submits the
//     query to a queue with two lanes — a FIFO batch lane and an SLA lane
//     that jumps it (admission-level priority, the workload analogue of the
//     paper's SLA-driven trigger).
//   * Admission control caps the number of *concurrently admitted* queries:
//     the engine owns `max_admitted` executor threads, each running at most
//     one query end to end, so the cap holds by construction. Queued queries
//     accrue queue-wait time, reported per query.
//   * Every submitted query lives in one ref-counted QueryTicket, shared by
//     its lane entry and the client's QueryHandle: id, cancel flag, the
//     streamed batch window and the finished result. A cancel raises the
//     flag and pulls a still-queued ticket from its lane; the executor
//     checks the flag at admission and between batches. One completion function
//     serves the executor and the in-queue cancel.
//   * Intra-query parallel leaves (QuerySpec::dop >= 1) submit their morsels
//     to the engine's TaskScheduler, whose one FIFO queue interleaves
//     morsels of *different* queries across one fixed worker pool, and a
//     morsel that runs a window ahead of its consumer parks and frees its
//     worker, so no single query monopolizes the cores.
//
// Determinism contract: admission order, lane priority and scheduling change
// *when* a query runs and how long it waits — never what it computes or what
// it is charged. The concurrent differential test pins this: equal result
// multisets and bit-identical per-query simulated cost between a solo run and
// a run with 8 concurrently admitted queries.

#ifndef SMOOTHSCAN_ENGINE_QUERY_ENGINE_H_
#define SMOOTHSCAN_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "common/tuple_batch.h"
#include "compress/compressed_extent_map.h"
#include "mem/memory_broker.h"
#include "plan/access_path_chooser.h"
#include "storage/exec_context.h"
#include "write/table_version.h"
#include "write/table_writer.h"

namespace smoothscan {

class QueryHandle;
class ScanSharingCoordinator;
class Session;

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TraceCollector;
}  // namespace obs

/// Submission lanes. kSla queries are admitted before any queued kBatch
/// query; within a lane admission is FIFO. With a ScanSharingCoordinator
/// configured, the batch lane is additionally *share-aware*: when a shared
/// scan is in flight over some table, a queued share-eligible query on the
/// same table is admitted ahead of older batch queries, so same-table
/// arrivals group onto the one cooperative scan instead of queueing behind
/// unrelated work and missing the lap. The jump is aging-bounded: a query
/// bypassed too many times is admitted next regardless, so a steady
/// hot-spot stream cannot starve unrelated batch work.
enum class QueryLane { kBatch = 0, kSla = 1 };

const char* QueryLaneToString(QueryLane lane);

/// One query: a selection over an indexed table, with either a fixed access
/// path or the cost-based chooser run against (possibly lying) statistics —
/// or, when `writer` is set, a *write query*: a batch of INSERT / UPDATE /
/// DELETE ops applied through the TableWriter.
struct QuerySpec {
  const BPlusTree* index = nullptr;
  ScanPredicate predicate;

  /// Write query: `write_ops` are applied via this writer as one
  /// admission-controlled batch (read fields are ignored; `index` may stay
  /// null). Requires QueryEngineOptions::versions — the snapshot machinery
  /// is what keeps concurrent readers consistent.
  TableWriter* writer = nullptr;
  std::vector<WriteOp> write_ops;

  /// Pick the path with AccessPathChooser over `stats` + `cost_model` (both
  /// required then); the estimate handed to the path (Switch Scan threshold,
  /// Smooth Scan trigger) is the chooser's — faithfully wrong when the stats
  /// are corrupted. When false, `kind` and `estimate` are used as given.
  bool use_chooser = false;
  PathKind kind = PathKind::kSmoothScan;
  const TableStats* stats = nullptr;
  const CostModel* cost_model = nullptr;
  uint64_t estimate = 0;

  bool need_order = false;
  /// 0: the serial operator. >= 1: the morsel-driven parallel variant with
  /// up to this many morsels in flight on the engine's scheduler (serial
  /// fallback when the combination has no parallel form).
  uint32_t dop = 0;
  QueryLane lane = QueryLane::kBatch;
  /// Collect column-0 values into QueryResult::keys (differential tests).
  bool collect_keys = false;
  /// Opt out of the engine's scan sharing for this query (kSharedScan plans
  /// fall back to FullScan, Smooth Scan runs solo, and the share-aware
  /// admission never reorders it). No effect without a coordinator.
  bool allow_sharing = true;
};

/// Per-query accounting, the workload-level analogue of bench RunMetrics.
struct QueryMetrics {
  double queue_wait_ms = 0.0;  ///< Submit → admission.
  double exec_ms = 0.0;        ///< Admission → completion (wall).
  double latency_ms = 0.0;     ///< Submit → completion (wall).
  double sim_time = 0.0;       ///< Simulated cost (io_time + cpu_time).
  double io_time = 0.0;
  double cpu_time = 0.0;
  uint64_t io_requests = 0;
  uint64_t random_ios = 0;
  uint64_t seq_ios = 0;
  uint64_t pages_read = 0;
  uint64_t tuples = 0;
  PathKind kind = PathKind::kFullScan;  ///< Path actually run.
  bool parallel = false;                ///< Morsel-driven leaf was used.
  bool write = false;                   ///< This was a write query.
  QueryLane lane = QueryLane::kBatch;
  /// Peak execution-memory bytes charged to the query's QueryMemoryScope
  /// (0 when the engine runs without a broker/quota).
  uint64_t mem_peak_bytes = 0;
  /// Times a charge pushed the scope past its per-query quota. Breaches
  /// shed batch storage on release — they never fail the query.
  uint64_t mem_quota_breaches = 0;
  /// The query was cancelled: in-queue (never admitted — exec_ms stays 0 and
  /// `kind` is the spec's as given) or mid-execution (partial charges up to
  /// the cancellation point are reported; a shared-scan consumer Detaches
  /// mid-lap without perturbing its peers).
  bool cancelled = false;
};

struct QueryResult {
  Status status = Status::OK();
  QueryMetrics metrics;
  std::vector<int64_t> keys;  ///< Column-0 values (QuerySpec::collect_keys).
};

/// One submitted query's whole life, shared (ref-counted) by its QueryHandle
/// and the engine's lane entry: the query id, the cancel flag the executor
/// checks at admission and between result batches, the bounded batch window
/// of a streamed query, and the finished QueryResult with its done bit.
///
/// Streaming: the executor Pushes each result batch as it is produced
/// (blocking while the window is full); the handle Pops them. Cancel
/// unblocks the producer and turns further pushes into drops, so an abandoned
/// or cancelled stream never wedges an executor; what was queued before it
/// stays poppable.
/// Streaming changes only *where* batches go, never what the query is
/// charged: the blocking adds wall time, not simulated cost. Batches
/// circulate instead of being rebuilt: each Pop hands the batch the consumer
/// is done with back to the producer, whose next Push leaves it in the
/// producer's hands, so a steady stream decodes into warm rows and allocates
/// nothing per row on either side.
class QueryTicket {
 public:
  /// Undelivered batches the executor may run ahead of a streamed consumer.
  static constexpr size_t kWindowBatches = 4;

  QueryTicket(uint64_t id, Session* session, bool streamed)
      : id_(id), session_(session), streamed_(streamed) {}
  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  uint64_t id() const { return id_; }
  bool streamed() const { return streamed_; }
  bool cancelled() const { return cancel_.load(std::memory_order_acquire); }

 private:
  // The producer side is the engine's, the consumer side the handle's.
  friend class QueryEngine;
  friend class QueryHandle;
  friend class QueryTicketTestPeer;  // Drives both sides with no thread.

  /// The session whose window slot the query holds until it finishes.
  Session* session() const { return session_; }

  /// Raises the cancel flag: later pushes are dropped, and a producer
  /// blocked on a full window wakes. Batches already queued stay for Pop, so
  /// a cancel that lands after the last push still leaves an OK result's
  /// stream complete. False when the query already finished or was already
  /// cancelled: nothing is left to do.
  bool Cancel() {
    latch::LatchGuard lock(mu_);
    if (done_ || cancelled()) return false;
    cancel_.store(true, std::memory_order_release);
    spare_.clear();
    cv_.notify_all();
    return true;
  }

  /// Producer (engine executor): enqueue `*batch`; blocks while the window
  /// is full and the query is not cancelled. Leaves `*batch` cleared and
  /// refillable: a batch the consumer handed back when there is one.
  void Push(TupleBatch* batch) {
    latch::UniqueLatch lock(mu_);
    while (!cancelled() && q_.size() >= kWindowBatches) cv_.wait(lock);
    if (cancelled()) {  // Consumer gone: drop, keep draining.
      batch->Clear();
      return;
    }
    const size_t capacity = batch->capacity();
    q_.push_back(std::move(*batch));
    if (!spare_.empty()) {
      *batch = std::move(spare_.back());
      spare_.pop_back();
    } else {
      *batch = TupleBatch(capacity);
    }
    cv_.notify_all();
  }

  /// The engine's completion (normal end, error or cancellation): stores
  /// the result and wakes every waiter. Called exactly once.
  void Finish(QueryResult result) {
    latch::LatchGuard lock(mu_);
    result_ = std::move(result);
    done_ = true;
    cv_.notify_all();
  }

  /// Consumer (QueryHandle): dequeue the next batch; false once the query
  /// finished and the queue drained, and at once for a non-streamed query.
  /// The batch `*out` held goes back to the producer when it has the
  /// producer's capacity (a different capacity would move the producer's
  /// batch boundaries).
  bool Pop(TupleBatch* out) {
    if (!streamed_) return false;
    latch::UniqueLatch lock(mu_);
    while (q_.empty() && !done_) cv_.wait(lock);
    if (q_.empty()) return false;
    std::swap(*out, q_.front());
    if (!cancelled() && q_.front().capacity() == out->capacity() &&
        spare_.size() < kWindowBatches) {
      q_.front().Clear();
      spare_.push_back(std::move(q_.front()));
    }
    q_.pop_front();
    cv_.notify_all();
    return true;
  }

  /// Blocks until the query finished. The result is written once, before
  /// the done bit, and only its handle touches it afterwards.
  QueryResult& Wait() {
    latch::UniqueLatch lock(mu_);
    while (!done_) cv_.wait(lock);
    return result_;
  }

  const uint64_t id_;
  Session* const session_;
  const bool streamed_;
  std::atomic<bool> cancel_{false};

  latch::Latch mu_{latch::LatchRank::kQueryTicket, "QueryTicket::mu_"};
  std::condition_variable_any cv_;
  std::deque<TupleBatch> q_ GUARDED_BY(mu_);
  /// Batches the consumer is done with, for the producer to refill.
  std::vector<TupleBatch> spare_ GUARDED_BY(mu_);
  bool done_ GUARDED_BY(mu_) = false;
  QueryResult result_;
};

struct QueryEngineOptions {
  /// Cap on concurrently-admitted queries (= executor threads).
  uint32_t max_admitted = 4;
  /// Executors (of the `max_admitted`) that pop *only* the SLA lane. With a
  /// reserve, an SLA arrival never waits behind a long batch query occupying
  /// every executor — the Crescando-style latency floor the network server's
  /// overload bench asserts. 0 (default) keeps the historical behavior: the
  /// SLA lane only jumps the queue. Must be < max_admitted.
  uint32_t sla_reserved_slots = 0;
  /// Worker pool for intra-query morsels. Null: the engine's scheduler,
  /// which every parallel scan uses by default. The field stays only
  /// because the repository benchmark (perfbench's wire_mixed runner) sets
  /// it; it goes with the next change to that benchmark.
  TaskScheduler* scheduler = nullptr;
  /// Cross-query scan sharing (src/sharing/): kSharedScan plans attach to
  /// the coordinator's cooperative circular scans, the chooser may upgrade
  /// full scans to kSharedScan, Smooth Scan queries feed the per-table
  /// shared Page ID Cache, and batch admission becomes share-aware. Null
  /// disables all of it; the coordinator must outlive the engine.
  ScanSharingCoordinator* sharing = nullptr;
  /// Snapshot machinery for mutable tables (src/write/): read queries hold a
  /// table ReadLease for their execution (scans see a frozen snapshot at
  /// solo-identical cost), write specs become admissible, and — when
  /// `sharing` is also set — the registry's publish hook retires parked
  /// shared-scan groups whose chunk decomposition a publish staled. Null
  /// keeps the engine read-only, with zero overhead. Must outlive the
  /// engine (and, because the publish hook is wired at construction, the
  /// coordinator when both are set).
  TableVersionRegistry* versions = nullptr;
  /// Compressed read tier (src/compress/): the chooser is offered the
  /// table's published compressed extent (priced with the calibrated CPU
  /// model), kCompressedScan plans materialize over it — shared across
  /// concurrent queries when `sharing` is set, morsel-parallel at dop >= 1 —
  /// and the registry's publish hook (requires `versions`) invalidates and
  /// rebuilds the extent so a compressed plan never reads a stale sibling.
  /// Null disables the tier. Must outlive the engine.
  CompressedExtentMap* compressed = nullptr;
  /// Unified memory broker (src/mem/): the engine registers the shared
  /// buffer pool's frames, and every query executes under a QueryMemoryScope
  /// charging its batch-pool memory here. Governance only — simulated cost
  /// is bit-identical with and without a broker. Must outlive the engine.
  MemoryBroker* broker = nullptr;
  /// Per-query execution-memory quota (batch-pool bytes). A breach sheds the
  /// query's recycled batch storage instead of failing it. Unlimited by
  /// default; meaningful with or without `broker`.
  uint64_t query_quota_bytes = UINT64_MAX;
  /// Unified metrics registry (src/obs/): the engine registers its admission
  /// counters/gauges/latency histograms and adds each query's buffer-pool
  /// and batch-pool stats at completion (plus the shared pool's own
  /// traffic); every access path adds its operator stats when it closes
  /// (parallel scans' morsel pools, SmoothScan morph steps, ResultCache
  /// spills). Pure bookkeeping — simulated per-query cost is bit-identical
  /// with and without a registry.
  /// Null disables. Must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-query trace spans + morph-event timeline (src/obs/), exported as
  /// Chrome trace-event JSON. Off (null) by default; when set, every query
  /// gets a submit instant and a query/lease/scan span tree, parallel leaves
  /// stamp per-morsel worker spans, and SmoothScan emits its morph timeline.
  /// Near-zero cost disabled, bookkeeping only when enabled. Must outlive
  /// the engine.
  obs::TraceCollector* tracing = nullptr;
};

class QueryEngine {
 public:
  using QueryId = uint64_t;

  QueryEngine(Engine* engine, QueryEngineOptions options);
  /// Drains queued and running queries, then joins the executors.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Observability (values are instantaneous snapshots).
  size_t queue_depth() const EXCLUDES(mu_);
  uint32_t admitted() const EXCLUDES(mu_);  ///< Queries executing right now.
  /// High-water mark; never exceeds the cap.
  uint32_t peak_admitted() const EXCLUDES(mu_);
  uint64_t completed() const EXCLUDES(mu_);
  const QueryEngineOptions& options() const { return options_; }

 private:
  // Spec-level submission: the surface beneath the client API. Only Session
  // and QueryHandle (engine/session.h) reach it; every caller, in-tree or
  // not, opens a Session.
  friend class Session;
  friend class QueryHandle;

  /// Enqueues the query; returns immediately with its ticket, which holds
  /// one of `session`'s window slots until the query finishes.
  std::shared_ptr<QueryTicket> SubmitSpec(QuerySpec spec, Session* session,
                                          bool streamed) EXCLUDES(mu_);

  /// The second half of QueryHandle::Cancel, once the ticket's flag is up.
  /// Still queued: the query is removed unadmitted and completes at once
  /// with StatusCode::kCancelled (queue-wait accounted, zero execution
  /// charges). Admitted: nothing to do here — the executor sees the flag at
  /// admission (no charges either) or between result batches, where a
  /// shared-scan consumer Detaches mid-lap (the existing cancelled-consumer
  /// path), any other read path closes early, and the query completes with
  /// kCancelled and the charges accrued so far. Write queries cancel before
  /// Apply only; a batch mid-Apply runs to completion (its mutations are
  /// real).
  void CancelQueued(QueryTicket* ticket) EXCLUDES(mu_);

  struct Pending {
    std::shared_ptr<QueryTicket> ticket;
    QuerySpec spec;
    std::chrono::steady_clock::time_point submitted;
    /// Times a younger share-eligible query was admitted over this one (the
    /// share-aware pop's aging bound: see kMaxShareBypasses).
    uint32_t bypassed = 0;
    /// This query will resolve to the cooperative shared scan (explicit
    /// kSharedScan, or the chooser's actual verdict — computed once at
    /// Submit), so admitting it while a shared scan runs on its table joins
    /// the live lap.
    bool share_eligible = false;
  };

  /// `sla_only` executors (the first `sla_reserved_slots` of the pool) pop
  /// nothing but the SLA lane.
  void ExecutorLoop(bool sla_only) EXCLUDES(mu_);
  /// The ticket's id attributes the query's trace spans and morph instants;
  /// it never influences planning or accounting. Its cancel flag is polled
  /// between result batches.
  QueryResult Execute(QueryTicket* ticket, QuerySpec spec) EXCLUDES(mu_);
  QueryResult ExecuteWrite(QueryId id, QuerySpec spec);
  /// Whether the query will resolve to a shared scan (Pending::share_eligible
  /// — the plan Execute resolves, chooser included, so a selective query
  /// that will pick an index path never jumps the FIFO for nothing).
  bool ShareEligible(const QuerySpec& spec) const;
  /// The table's published compressed extent, when the tier is enabled and
  /// serves this spec (key-column predicate, no interesting order). Null
  /// otherwise — including right after a publish invalidated it, which is
  /// the graceful-staleness fallback to the heap paths.
  CompressedExtentRef CompressedExtentFor(const QuerySpec& spec) const;
  /// Completion, shared by the executor (`admitted`) and the in-queue
  /// cancel: the engine's counts, the registry's engine.completed /
  /// engine.cancelled and the shared pool's fold under mu_, then — outside
  /// it — the ticket's result and the session's window slot.
  void Complete(Pending* p, QueryResult result, bool admitted)
      EXCLUDES(mu_);
  /// Adds the shared pool's stats delta since the last fold to the registry.
  void FoldSharedPoolLocked() REQUIRES(mu_);

  Engine* engine_;
  QueryEngineOptions options_;
  // Registry handles, resolved once in the constructor (all null without
  // options_.metrics): engine-level admission telemetry.
  obs::Counter* c_submitted_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_cancelled_ = nullptr;
  obs::Counter* c_compressed_fallbacks_ = nullptr;
  obs::Gauge* g_lane_depth_[2] = {nullptr, nullptr};  ///< By QueryLane.
  obs::Gauge* g_running_ = nullptr;
  obs::Histogram* h_queue_wait_us_ = nullptr;
  obs::Histogram* h_exec_us_ = nullptr;
  obs::Histogram* h_latency_us_ = nullptr;
  /// Broker charge for the shared buffer pool's frame memory (capacity
  /// bytes, charged once for the engine's lifetime).
  MemoryBroker::Consumer pool_consumer_;
  /// Registry publish-hook registration (0 = none wired).
  uint64_t publish_hook_token_ = 0;

  /// Control-plane latch (admission queue + engine counts). Top of the
  /// hierarchy: nothing below it (executors release it before running a
  /// query, which acquires every other latch in the engine).
  mutable latch::Latch mu_{latch::LatchRank::kQueryEngine,
                           "QueryEngine::mu_"};
  std::condition_variable_any cv_submit_;  ///< Executors wait for work here.
  std::deque<Pending> lanes_[2] GUARDED_BY(mu_);  ///< Indexed by QueryLane.
  QueryId next_id_ GUARDED_BY(mu_) = 1;
  /// Tables with a shared scan executing right now (value = running count);
  /// the share-aware batch pop admits matching queued queries first.
  std::unordered_map<FileId, uint32_t> running_shared_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  uint32_t admitted_now_ GUARDED_BY(mu_) = 0;
  uint32_t peak_admitted_ GUARDED_BY(mu_) = 0;
  uint64_t completed_ GUARDED_BY(mu_) = 0;
  /// The shared pool's stats as of the last fold into the registry. Query
  /// pools are folded whole at completion; the shared pool's own traffic
  /// (shared-scan chunk production, flush write-backs — mirror pins are
  /// unaccounted) is folded as a delta at each completion and at shutdown.
  BufferPoolStats shared_pool_folded_ GUARDED_BY(mu_);

  std::vector<std::thread> executors_;
};

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 on empty input.
/// Sorts a copy — fine for per-run latency vectors.
double LatencyPercentile(std::vector<double> values, double q);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ENGINE_QUERY_ENGINE_H_
