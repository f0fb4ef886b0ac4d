// Session / QueryHandle: the client API over the QueryEngine — the one
// submission surface shared by in-process callers (examples, tests,
// WorkloadDriver) and the network server's per-connection sessions
// (src/net/server.h). The engine's spec-level submit/cancel are private and
// befriend only these two classes; a caller holding a bound QuerySpec
// submits it with Query().FromSpec(spec).
//
//   Session session(&qe);
//   QueryHandle h = session.Query()
//                       .Table(db.index())
//                       .Range(lo, hi)
//                       .Policy(PathKind::kSmoothScan)
//                       .Submit();
//   ...
//   QueryResult r = h.Wait();
//
// A Session owns a tenant lane default and an *outstanding-query window*:
// Submit() blocks while `window()` queries are in flight, which is the
// client-side half of the engine's admission control (and the knob the
// network server turns for backpressure — see net/server.h). A QueryHandle
// is a reference to one query's QueryTicket (engine/query_engine.h), which
// the engine's lane entry shares: Wait() (idempotent), Cancel() (in-queue
// or mid-execution — see QueryEngine::CancelQueued; safe while another
// thread drains or waits), Metrics(), and — for Stream() queries —
// NextBatch() pulling result batches as the executor produces them. Destroying a handle
// of an unfinished query cancels it and waits, so a dropped connection
// leaves no query behind. The query's completion frees its window slot.
//
// Determinism contract, inherited verbatim from the engine: a query
// submitted through a Session is charged bit-identically to a solo cold
// QuerySpec run. The session layer adds window bookkeeping and batch
// routing; it never touches the accounting stack.

#ifndef SMOOTHSCAN_ENGINE_SESSION_H_
#define SMOOTHSCAN_ENGINE_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "engine/query_engine.h"

namespace smoothscan {

class Session;
class QueryBuilder;

struct SessionOptions {
  /// Default lane for queries of this session (the tenant lane); a builder's
  /// Lane() overrides per query.
  QueryLane lane = QueryLane::kBatch;
  /// Outstanding-query window: Submit() blocks while this many of the
  /// session's queries are in flight. The network server shrinks it under
  /// overload (see net/server.h "backpressure").
  uint32_t max_outstanding = 8;
};

/// Completion handle of one submitted query: a reference to its
/// QueryTicket, which the engine's lane entry shares. Move-only.
class QueryHandle {
 public:
  QueryHandle() = default;
  /// An unfinished query is cancelled and waited for.
  ~QueryHandle();
  QueryHandle(QueryHandle&& other) noexcept = default;
  QueryHandle& operator=(QueryHandle&& other) noexcept;
  QueryHandle(const QueryHandle&) = delete;
  QueryHandle& operator=(const QueryHandle&) = delete;

  bool valid() const { return ticket_ != nullptr; }
  uint64_t id() const { return ticket_ == nullptr ? 0 : ticket_->id(); }

  /// Streamed result batches (queries built with Stream()): blocks for the
  /// next batch; false once the query finished and the stream drained.
  /// The rows `*out` held before the call go back to the executor for
  /// reuse (QueryTicket::Pop). Always false for non-streamed queries.
  bool NextBatch(TupleBatch* out) { return valid() && ticket_->Pop(out); }

  /// Blocks until the query completes; idempotent.
  const QueryResult& Wait() { return ticket_->Wait(); }

  /// Moves the result out (after which Wait() returns the hollow shell).
  QueryResult Take() { return std::move(ticket_->Wait()); }

  /// Cancels the query: in-queue it never runs (kCancelled, zero execution
  /// charges); mid-execution it stops between batches — a shared-scan
  /// consumer Detaches mid-lap. A finished query is left alone. Safe to call
  /// while another thread drains or waits on this handle.
  void Cancel();

  /// The query's metrics (blocks until completion).
  const QueryMetrics& Metrics() { return Wait().metrics; }

 private:
  friend class Session;
  explicit QueryHandle(std::shared_ptr<QueryTicket> ticket)
      : ticket_(std::move(ticket)) {}

  std::shared_ptr<QueryTicket> ticket_;
};

/// Fluent spec assembly; terminal calls are Submit() (handle) and Run()
/// (submit + wait, for the common synchronous case).
class QueryBuilder {
 public:
  /// The table to read, via its (key-column) index.
  QueryBuilder& Table(const BPlusTree* index) {
    spec_.index = index;
    return *this;
  }
  /// Key-column range predicate [lo, hi) — the paper's selection shape.
  QueryBuilder& Range(int64_t lo, int64_t hi) {
    spec_.predicate = ScanPredicate{};
    spec_.predicate.lo = lo;
    spec_.predicate.hi = hi;
    return *this;
  }
  /// Arbitrary predicate (residual / non-key column).
  QueryBuilder& Predicate(ScanPredicate predicate) {
    spec_.predicate = std::move(predicate);
    return *this;
  }
  /// Fixed access-path policy (default kSmoothScan, the paper's operator).
  QueryBuilder& Policy(PathKind kind) {
    spec_.use_chooser = false;
    spec_.kind = kind;
    return *this;
  }
  /// Cost-based choice over (possibly lying) statistics instead of a fixed
  /// policy.
  QueryBuilder& UseChooser(const TableStats* stats, const CostModel* model) {
    spec_.use_chooser = true;
    spec_.stats = stats;
    spec_.cost_model = model;
    return *this;
  }
  /// Cardinality estimate handed to the path (Switch threshold / Smooth
  /// trigger) when no chooser runs.
  QueryBuilder& Estimate(uint64_t estimate) {
    spec_.estimate = estimate;
    return *this;
  }
  QueryBuilder& Ordered(bool need_order = true) {
    spec_.need_order = need_order;
    return *this;
  }
  QueryBuilder& Lane(QueryLane lane) {
    spec_.lane = lane;
    return *this;
  }
  QueryBuilder& CollectKeys(bool collect = true) {
    spec_.collect_keys = collect;
    return *this;
  }
  /// Deliver result batches through QueryHandle::NextBatch as they are
  /// produced, instead of discarding them engine-side.
  QueryBuilder& Stream(bool stream = true) {
    stream_ = stream;
    return *this;
  }
  /// Write query: `ops` applied through `writer` as one admission-controlled
  /// batch (requires the engine's snapshot machinery).
  QueryBuilder& Write(TableWriter* writer, std::vector<WriteOp> ops) {
    spec_.writer = writer;
    spec_.write_ops = std::move(ops);
    return *this;
  }
  /// Replaces the assembled spec wholesale — the hook for in-tree callers
  /// that bind a QuerySpec elsewhere (the network server binds from query
  /// text via plan/query_text.h). Resets the session's lane default; the
  /// caller owns the lane decision.
  QueryBuilder& FromSpec(QuerySpec spec) {
    spec_ = std::move(spec);
    return *this;
  }

  /// Submits through the session (blocking on its window) and returns the
  /// completion handle.
  QueryHandle Submit();
  /// Submit + Wait + Take, for synchronous callers.
  QueryResult Run() { return Submit().Take(); }

 private:
  friend class Session;
  explicit QueryBuilder(Session* session);

  Session* session_;
  QuerySpec spec_;
  bool stream_ = false;
};

class Session {
 public:
  explicit Session(QueryEngine* engine, SessionOptions options = {});
  /// Blocks until every query submitted through this session completed (the
  /// handles own the results; the session only tracks the window).
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Starts a query builder with this session's defaults.
  QueryBuilder Query() { return QueryBuilder(this); }

  QueryEngine* engine() const { return engine_; }
  const SessionOptions& options() const { return options_; }

  /// Live window size (see SessionOptions::max_outstanding). Shrinking it
  /// below the in-flight count stalls the next Submit until enough queries
  /// drain — the server's backpressure lever. Must stay >= 1.
  void SetWindow(uint32_t window) EXCLUDES(mu_);
  uint32_t window() const EXCLUDES(mu_);
  /// Queries of this session in flight right now.
  uint32_t outstanding() const EXCLUDES(mu_);
  /// Submits that blocked on a full window (backpressure visibility).
  uint64_t window_stalls() const EXCLUDES(mu_);

 private:
  friend class QueryBuilder;
  friend class QueryHandle;

  friend class QueryEngine;

  /// Blocks on the window and submits.
  QueryHandle SubmitSpec(QuerySpec spec, bool stream) EXCLUDES(mu_);
  /// Frees the finished query's window slot (engine completion, no engine
  /// latches held).
  void OnComplete() EXCLUDES(mu_);

  QueryEngine* const engine_;
  const SessionOptions options_;

  /// Window state. Rank above kQueryEngine: Submit may reach the engine
  /// latch from under it, and the completion callback takes it bare.
  mutable latch::Latch mu_{latch::LatchRank::kNetSession, "Session::mu_"};
  std::condition_variable_any cv_;
  uint32_t window_ GUARDED_BY(mu_);
  uint32_t outstanding_ GUARDED_BY(mu_) = 0;
  uint64_t window_stalls_ GUARDED_BY(mu_) = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ENGINE_SESSION_H_
