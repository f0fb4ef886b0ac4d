#include "engine/query_engine.h"

#include <algorithm>
#include <cmath>

#include "compress/compressed_scan.h"
#include "engine/session.h"
#include "mem/batch_pool.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sharing/shared_scan_path.h"
#include "storage/buffer_pool.h"

namespace smoothscan {

namespace {

/// Aging bound of the share-aware batch pop: after this many bypasses the
/// front query is admitted next no matter what is sharable behind it.
constexpr uint32_t kMaxShareBypasses = 16;

/// CPU constants handed to the chooser whenever a compressed extent is on
/// offer: the compressed path trades key-check CPU for page I/O, so pricing
/// it against the heap paths on I/O alone would systematically flatter it.
/// Queries with no compressed candidate keep the paper's I/O-only ranking.
constexpr CalibratedCpuModel kChooserCpuModel{};

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The chooser's plan for `spec`, pricing `extent` when one is on offer.
PlanChoice ChoosePlan(const QuerySpec& spec, const CompressedExtentRef& extent,
                      bool sharing_available) {
  ChooserOptions copts;
  copts.need_order = spec.need_order;
  copts.dop = std::max<uint32_t>(1, spec.dop);
  copts.sharing_available = sharing_available;
  CompressedPathInfo cinfo;
  if (extent != nullptr) {
    cinfo.pages = extent->num_pages();
    cinfo.tuples = extent->num_tuples;
    cinfo.avg_run_length = extent->avg_run_length();
    copts.compressed = &cinfo;
    copts.cpu = &kChooserCpuModel;
  }
  return AccessPathChooser::Choose(*spec.stats, *spec.cost_model,
                                   spec.predicate.lo, spec.predicate.hi,
                                   copts);
}

/// A read's plan once resolved: the kind Execute builds, the estimate it
/// hands the path, and whether the run joins a cooperative shared scan.
struct ReadPlan {
  PathKind kind = PathKind::kFullScan;
  uint64_t estimate = 0;
  bool shared = false;
  /// A compressed kind fell back to the heap full scan: no usable extent.
  bool compressed_fallback = false;
};

/// Resolves `spec` (its table's current `extent`, and whether a sharing
/// coordinator serves it). The share-aware batch pop and Execute both call
/// it, so the admission verdict is the plan that runs.
ReadPlan ResolveRead(const QuerySpec& spec, const CompressedExtentRef& extent,
                     bool sharing_on) {
  ReadPlan plan{spec.kind, spec.estimate};
  if (spec.use_chooser) {
    const PlanChoice choice = ChoosePlan(spec, extent, sharing_on);
    plan.kind = choice.kind;
    plan.estimate = choice.estimated_cardinality;
  }
  if (plan.kind == PathKind::kSharedScan && (!sharing_on || spec.need_order)) {
    plan.kind = PathKind::kFullScan;  // The exact solo-equivalent plan.
  }
  if (plan.kind == PathKind::kCompressedScan && extent == nullptr) {
    // The extent a fixed-kind spec counted on is absent — never built, or
    // not keyed on this predicate's column. The heap full scan produces the
    // identical multiset from the identical snapshot.
    plan.kind = PathKind::kFullScan;
    plan.compressed_fallback = true;
  }
  // A serial compressed plan attaches to the sibling file's cooperative
  // scan, so it groups onto a running lap exactly like kSharedScan.
  plan.shared = plan.kind == PathKind::kSharedScan ||
                (plan.kind == PathKind::kCompressedScan && sharing_on &&
                 spec.dop == 0);
  return plan;
}

/// The result of a query cancelled before it ran: zero execution charges,
/// and the spec's kind as given.
QueryResult CancelledResult(const QuerySpec& spec, const char* why) {
  QueryResult res;
  res.status = Status::Cancelled(why);
  res.metrics.cancelled = true;
  res.metrics.lane = spec.lane;
  res.metrics.write = spec.writer != nullptr;
  res.metrics.kind = spec.kind;
  return res;
}

/// Reports the charges of a query's private stack (also for a cancelled or
/// failed query: the work done up to the break point was real).
void RecordCost(AccountingStack& stack, QueryMetrics* m) {
  const IoStats io = stack.disk().stats();
  m->io_time = io.io_time;
  m->cpu_time = stack.cpu().time();
  m->sim_time = m->io_time + m->cpu_time;
  m->io_requests = io.io_requests;
  m->random_ios = io.random_ios;
  m->seq_ios = io.seq_ios;
  m->pages_read = io.pages_read;
}

}  // namespace

const char* QueryLaneToString(QueryLane lane) {
  switch (lane) {
    case QueryLane::kBatch:
      return "batch";
    case QueryLane::kSla:
      return "sla";
  }
  return "?";
}

QueryEngine::QueryEngine(Engine* engine, QueryEngineOptions options)
    : engine_(engine), options_(options) {
  SMOOTHSCAN_CHECK(options_.max_admitted >= 1);
  SMOOTHSCAN_CHECK(options_.sla_reserved_slots < options_.max_admitted);
  if (options_.broker != nullptr) {
    // The shared pool's frame memory is a fixed, engine-lifetime footprint:
    // charge it once so every other consumer competes for what remains.
    pool_consumer_ = options_.broker->Register(MemoryClass::kBufferPool,
                                               "buffer_pool_frames");
    pool_consumer_.Charge(
        static_cast<uint64_t>(engine_->options().buffer_pool_pages) *
        engine_->options().page_size);
  }
  if (options_.versions != nullptr &&
      (options_.sharing != nullptr || options_.compressed != nullptr)) {
    // Snapshot publish stales any parked shared scan of the table (its chunk
    // decomposition was sized to the old page count) and any compressed
    // sibling built from the pre-publish snapshot. Order matters: the
    // sibling's own shared-scan group must retire (dropping its window pins)
    // *before* Rebuild evicts and rebuilds the sibling file. Captures the
    // collaborators, not `this` — they must outlive the registry's last
    // publish.
    ScanSharingCoordinator* sharing = options_.sharing;
    CompressedExtentMap* compressed = options_.compressed;
    publish_hook_token_ =
        options_.versions->AddPublishHook([sharing, compressed](FileId file) {
          if (sharing != nullptr) sharing->InvalidateFile(file);
          if (compressed != nullptr) {
            if (sharing != nullptr) {
              if (CompressedExtentRef extent = compressed->Lookup(file)) {
                sharing->InvalidateFile(extent->file);
              }
            }
            compressed->Rebuild(file);
          }
        });
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* r = options_.metrics;
    c_submitted_ = r->counter("engine.submitted");
    c_completed_ = r->counter("engine.completed");
    c_cancelled_ = r->counter("engine.cancelled");
    c_compressed_fallbacks_ = r->counter("engine.compressed_fallbacks");
    g_lane_depth_[static_cast<int>(QueryLane::kBatch)] =
        r->gauge("engine.lane_batch_depth");
    g_lane_depth_[static_cast<int>(QueryLane::kSla)] =
        r->gauge("engine.lane_sla_depth");
    g_running_ = r->gauge("engine.running");
    h_queue_wait_us_ = r->histogram("engine.queue_wait_us");
    h_exec_us_ = r->histogram("engine.exec_us");
    h_latency_us_ = r->histogram("engine.latency_us");
    // The shared pool's traffic before this engine existed is not its own.
    shared_pool_folded_ = engine_->pool().stats();
  }
  if (options_.versions != nullptr && options_.tracing != nullptr) {
    // Publish-at-quiescence instants land on whichever thread drops the last
    // lease. Set before the executors spawn, so before the first lease.
    options_.versions->SetTrace(options_.tracing);
  }
  executors_.reserve(options_.max_admitted);
  for (uint32_t i = 0; i < options_.max_admitted; ++i) {
    const bool sla_only = i < options_.sla_reserved_slots;
    executors_.emplace_back([this, sla_only] { ExecutorLoop(sla_only); });
  }
}

QueryEngine::~QueryEngine() {
  {
    latch::LatchGuard lock(mu_);
    shutdown_ = true;
  }
  cv_submit_.notify_all();
  for (std::thread& t : executors_) t.join();
  {
    // Executors are joined: the shared pool's last communal traffic (e.g. a
    // flush after the final query) is this engine's to count.
    latch::LatchGuard lock(mu_);
    FoldSharedPoolLocked();
  }
  if (options_.versions != nullptr && options_.tracing != nullptr) {
    // Like the publish hook below: a registry outliving this engine must not
    // emit into a possibly-freed collector at its next publish.
    options_.versions->SetTrace(nullptr);
  }
  if (publish_hook_token_ != 0) {
    // The hook captured the coordinator and extent map; a registry outliving
    // this engine must not call into possibly-freed collaborators on its
    // next publish.
    options_.versions->RemovePublishHook(publish_hook_token_);
  }
}

std::shared_ptr<QueryTicket> QueryEngine::SubmitSpec(QuerySpec spec,
                                                     Session* session,
                                                     bool streamed) {
  SMOOTHSCAN_CHECK(spec.index != nullptr || spec.writer != nullptr);
  // Write queries need the snapshot machinery: without leases, a publish
  // could land under an in-flight scan.
  SMOOTHSCAN_CHECK(spec.writer == nullptr || options_.versions != nullptr);
  SMOOTHSCAN_CHECK(!spec.use_chooser ||
                   (spec.stats != nullptr && spec.cost_model != nullptr));
  Pending p;
  p.spec = std::move(spec);
  p.share_eligible = ShareEligible(p.spec);  // Once, outside the lock.
  p.submitted = std::chrono::steady_clock::now();
  const QueryLane lane = p.spec.lane;
  const bool share_eligible = p.share_eligible;
  std::shared_ptr<QueryTicket> ticket;
  {
    latch::LatchGuard lock(mu_);
    ticket = std::make_shared<QueryTicket>(next_id_++, session, streamed);
    p.ticket = ticket;
    std::deque<Pending>& q = lanes_[static_cast<int>(lane)];
    q.push_back(std::move(p));
    if (g_lane_depth_[static_cast<int>(lane)] != nullptr) {
      g_lane_depth_[static_cast<int>(lane)]->Set(
          static_cast<int64_t>(q.size()));
    }
  }
  // notify_all: with an SLA reserve, notify_one could wake a reserved
  // executor for a batch query it will never pop (a lost wakeup).
  cv_submit_.notify_all();
  if (c_submitted_ != nullptr) c_submitted_->Add();
  if (options_.tracing != nullptr) {
    options_.tracing->Instant(ticket->id(), "submit", "share_eligible",
                              share_eligible ? 1 : 0, nullptr, 0, nullptr, 0,
                              "lane", QueryLaneToString(lane));
  }
  return ticket;
}

void QueryEngine::CancelQueued(QueryTicket* ticket) {
  Pending p;
  bool queued = false;
  {
    latch::LatchGuard lock(mu_);
    for (int lane = 0; lane < 2 && !queued; ++lane) {
      std::deque<Pending>& q = lanes_[lane];
      auto it = std::find_if(q.begin(), q.end(), [ticket](const Pending& e) {
        return e.ticket.get() == ticket;
      });
      if (it == q.end()) continue;
      p = std::move(*it);
      q.erase(it);
      if (g_lane_depth_[lane] != nullptr) {
        g_lane_depth_[lane]->Set(static_cast<int64_t>(q.size()));
      }
      queued = true;
    }
  }
  if (!queued) return;  // An executor owns it now.
  QueryResult result = CancelledResult(p.spec, "cancelled in queue");
  result.metrics.queue_wait_ms =
      MsBetween(p.submitted, std::chrono::steady_clock::now());
  result.metrics.latency_ms = result.metrics.queue_wait_ms;
  if (options_.tracing != nullptr) {
    options_.tracing->Instant(ticket->id(), "cancel", "in_queue", 1);
  }
  Complete(&p, std::move(result), /*admitted=*/false);
}

size_t QueryEngine::queue_depth() const {
  latch::LatchGuard lock(mu_);
  return lanes_[0].size() + lanes_[1].size();
}

uint32_t QueryEngine::admitted() const {
  latch::LatchGuard lock(mu_);
  return admitted_now_;
}

uint32_t QueryEngine::peak_admitted() const {
  latch::LatchGuard lock(mu_);
  return peak_admitted_;
}

uint64_t QueryEngine::completed() const {
  latch::LatchGuard lock(mu_);
  return completed_;
}

void QueryEngine::Complete(Pending* p, QueryResult result, bool admitted) {
  {
    latch::LatchGuard lock(mu_);
    if (admitted) {
      --admitted_now_;
      if (g_running_ != nullptr) {
        g_running_->Set(static_cast<int64_t>(admitted_now_));
      }
    }
    ++completed_;
    if (c_completed_ != nullptr) c_completed_->Add();
    if (result.metrics.cancelled && c_cancelled_ != nullptr) {
      c_cancelled_->Add();
    }
    FoldSharedPoolLocked();
  }
  // Outside mu_: a waiting handle wakes here, and the window release climbs
  // to the Session latch (rank 740). The session outlives its last release
  // (~Session waits for it); the ticket lives on in `p`.
  p->ticket->Finish(std::move(result));
  p->ticket->session()->OnComplete();
}

void QueryEngine::FoldSharedPoolLocked() {
  if (options_.metrics == nullptr) return;
  const BufferPoolStats now = engine_->pool().stats();
  const obs::ObsContext registry{options_.metrics};
  AddPoolStats(&registry, {now.hits - shared_pool_folded_.hits,
                           now.misses - shared_pool_folded_.misses,
                           now.write_backs - shared_pool_folded_.write_backs});
  shared_pool_folded_ = now;
}

void QueryEngine::ExecutorLoop(bool sla_only) {
  for (;;) {
    Pending p;
    std::chrono::steady_clock::time_point admit_time;
    {
      latch::UniqueLatch lock(mu_);
      // Explicit loop: the guarded lane/shutdown state is not visible to the
      // analysis inside a predicate lambda. A reserved executor ignores the
      // batch lane entirely — that is the reserve.
      while (!shutdown_ && lanes_[static_cast<int>(QueryLane::kSla)].empty() &&
             (sla_only || lanes_[0].empty())) {
        cv_submit_.wait(lock);
      }
      // Drain remaining queries before honoring shutdown, like the task
      // scheduler does for its deques (reserved executors leave the batch
      // lane to the general pool).
      if (lanes_[static_cast<int>(QueryLane::kSla)].empty() &&
          (sla_only || lanes_[0].empty())) {
        return;
      }
      std::deque<Pending>& lane =
          !lanes_[static_cast<int>(QueryLane::kSla)].empty()
              ? lanes_[static_cast<int>(QueryLane::kSla)]
              : lanes_[static_cast<int>(QueryLane::kBatch)];
      auto it = lane.begin();
      if (options_.sharing != nullptr &&
          &lane == &lanes_[static_cast<int>(QueryLane::kBatch)] &&
          it->bypassed < kMaxShareBypasses) {
        // Share-aware pop: a queued query that can attach to a shared scan
        // already in flight over its table jumps the batch FIFO — grouping
        // same-table arrivals onto one lap instead of serializing passes.
        // The front query's bypass budget bounds the reordering: once spent,
        // plain FIFO resumes and it is admitted next.
        for (auto cand = lane.begin(); cand != lane.end(); ++cand) {
          if (cand->share_eligible &&
              running_shared_.count(cand->spec.index->heap()->file_id()) >
                  0) {
            it = cand;
            break;
          }
        }
        if (it != lane.begin()) ++lane.front().bypassed;
      }
      p = std::move(*it);
      lane.erase(it);
      ++admitted_now_;
      peak_admitted_ = std::max(peak_admitted_, admitted_now_);
      for (int i = 0; i < 2; ++i) {
        if (g_lane_depth_[i] != nullptr) {
          g_lane_depth_[i]->Set(static_cast<int64_t>(lanes_[i].size()));
        }
      }
      if (g_running_ != nullptr) {
        g_running_->Set(static_cast<int64_t>(admitted_now_));
      }
      admit_time = std::chrono::steady_clock::now();
    }

    QueryResult result;
    if (p.ticket->cancelled()) {
      // Cancelled between the pop and here: never run, nothing charged.
      result = CancelledResult(p.spec, "cancelled at admission");
      if (options_.tracing != nullptr) {
        options_.tracing->Instant(p.ticket->id(), "cancel", "at_admission", 1);
      }
    } else {
      // The "query" span covers admission → completion on this executor;
      // queue wait rides along as an arg so the span tree alone tells the
      // whole submit → done story.
      obs::TraceSpan query_span(
          options_.tracing, p.ticket->id(), "query", "lane",
          static_cast<int64_t>(p.spec.lane), "queue_us",
          static_cast<int64_t>(MsBetween(p.submitted, admit_time) * 1000.0));
      result = Execute(p.ticket.get(), std::move(p.spec));
    }
    const auto end = std::chrono::steady_clock::now();
    result.metrics.queue_wait_ms = MsBetween(p.submitted, admit_time);
    result.metrics.exec_ms = MsBetween(admit_time, end);
    result.metrics.latency_ms = MsBetween(p.submitted, end);
    if (h_latency_us_ != nullptr) {
      h_queue_wait_us_->Record(
          static_cast<uint64_t>(result.metrics.queue_wait_ms * 1000.0));
      h_exec_us_->Record(
          static_cast<uint64_t>(result.metrics.exec_ms * 1000.0));
      h_latency_us_->Record(
          static_cast<uint64_t>(result.metrics.latency_ms * 1000.0));
    }
    Complete(&p, std::move(result), /*admitted=*/true);
  }
}

CompressedExtentRef QueryEngine::CompressedExtentFor(
    const QuerySpec& spec) const {
  if (options_.compressed == nullptr || spec.index == nullptr ||
      spec.need_order) {
    return nullptr;
  }
  CompressedExtentRef extent =
      options_.compressed->Lookup(spec.index->heap()->file_id());
  // The extent serves range predicates on its key column only.
  if (extent == nullptr || extent->key_column != spec.predicate.column) {
    return nullptr;
  }
  return extent;
}

bool QueryEngine::ShareEligible(const QuerySpec& spec) const {
  if (spec.writer != nullptr || options_.sharing == nullptr ||
      !spec.allow_sharing) {
    return false;
  }
  return ResolveRead(spec, CompressedExtentFor(spec), /*sharing_on=*/true)
      .shared;
}

QueryResult QueryEngine::ExecuteWrite(QueryId id, QuerySpec spec) {
  // Past the admission check the batch runs to completion — its mutations
  // are real and will publish.
  QueryResult res;
  QueryMetrics& m = res.metrics;
  m.lane = spec.lane;
  m.write = true;

  // Per-query accounting stack, exactly like a read: the fetches that pull
  // target pages into the buffer are this query's cost, bit-identical at any
  // admission level. Write-back I/O is communal (charged on the engine
  // stream at flush; see write/table_writer.h).
  AccountingStack qctx(engine_, &engine_->pool());
  uint64_t applied = 0;
  {
    // Covers the ticket wait inside Apply too — publish waits show up as
    // span length, never as simulated cost.
    obs::TraceSpan apply_span(options_.tracing, id, "write_apply", "ops",
                              static_cast<int64_t>(spec.write_ops.size()));
    res.status = spec.writer->Apply(spec.write_ops, qctx.ctx(), &applied);
  }
  // Metrics are captured even on a mid-batch failure: the ops before the
  // error were applied (and will publish), so their cost is real.
  m.tuples = applied;
  RecordCost(qctx, &m);
  const obs::ObsContext registry{options_.metrics};
  AddPoolStats(&registry, qctx.pool().stats());
  return res;
}

QueryResult QueryEngine::Execute(QueryTicket* ticket, QuerySpec spec) {
  const QueryId id = ticket->id();
  if (spec.writer != nullptr) return ExecuteWrite(id, std::move(spec));
  QueryResult res;
  QueryMetrics& m = res.metrics;
  m.lane = spec.lane;

  // Per-query observability context, threaded to the access path via
  // SetObs. Emission is atomics + wall clock only — the accounting stack
  // built below never sees it, which is what keeps simulated cost
  // bit-identical with observability on or off.
  obs::ObsContext octx;
  octx.metrics = options_.metrics;
  octx.trace = options_.tracing;
  octx.query_id = id;
  const obs::ObsContext* obs_ctx =
      (octx.metrics != nullptr || octx.trace != nullptr) ? &octx : nullptr;

  // Snapshot pin: for the scan's lifetime the table's base pages are frozen
  // (writers go copy-on-write; publish waits for the last lease), so the
  // result multiset and the simulated cost are those of a solo run against
  // this snapshot.
  TableVersionRegistry::ReadLease lease;
  if (options_.versions != nullptr) {
    // AcquireRead publishes a pending era inline at quiescence, so this span
    // is where a reader's publish wait becomes visible.
    obs::TraceSpan lease_span(
        options_.tracing, id, "lease", "file",
        static_cast<int64_t>(spec.index->heap()->file_id()));
    lease = options_.versions->AcquireRead(spec.index->heap()->file_id());
  }

  // Plan: reuse the cost-based chooser per stream query. With corrupted stats
  // the choice (and the estimate handed to the path) is faithfully wrong —
  // the paper's mis-estimation scenario, replayed at stream scale.
  const bool sharing_on = options_.sharing != nullptr && spec.allow_sharing;
  // Looked up after the lease: the snapshot this query reads is the one the
  // extent (if current) was folded from, so compressed and heap answers
  // agree. A publish between planning and here is impossible — publishes
  // need quiescence and we hold a lease.
  const CompressedExtentRef extent = CompressedExtentFor(spec);
  const ReadPlan plan = ResolveRead(spec, extent, sharing_on);
  const PathKind kind = plan.kind;
  if (plan.compressed_fallback) {
    if (c_compressed_fallbacks_ != nullptr) c_compressed_fallbacks_->Add();
    obs::EmitInstant(obs_ctx, "compressed_fallback", "file",
                     static_cast<int64_t>(spec.index->heap()->file_id()));
  }
  m.kind = kind;

  // Per-query accounting stack; page pins mirror into the shared pool. The
  // private pool is where this query's hits and misses are counted, so its
  // stats — not the mirror's — are added to the registry at completion.
  AccountingStack qctx(engine_, &engine_->pool());
  // Per-query execution-memory account, charged by the query's batch pool;
  // a quota breach or global broker pressure sheds its recycled storage.
  // Pure governance — the accounting stack above is untouched. The pool is
  // declared before the path, so every batch the path holds goes home first.
  QueryMemoryScope mem_scope(options_.broker, options_.query_quota_bytes);
  BatchPool batch_pool(BatchPoolOptions(), &mem_scope);
  qctx.SetBatchPool(&batch_pool);
  if (options_.scheduler != nullptr) qctx.SetScheduler(options_.scheduler);

  // One switch builds the serial, parallel or shared form of the resolved
  // kind. Parallel paths merge their morsel streams into qctx and inherit its
  // mirror, batch pool and scheduler (see parallel_scan.h); a kind with no
  // parallel form for this spec (MakeParallelPath returns null) runs
  // serially.
  ParallelScanOptions po;
  po.dop = spec.dop;
  std::unique_ptr<AccessPath> path;
  switch (kind) {
    case PathKind::kSharedScan:
      path = std::make_unique<SharedScanPath>(
          options_.sharing, spec.index->heap(), spec.predicate);
      break;
    case PathKind::kCompressedScan:
      if (spec.dop >= 1) {
        path = MakeParallelCompressedScan(engine_, extent, spec.predicate,
                                          CompressedScanOptions(), po);
        m.parallel = true;
      } else if (plan.shared) {
        // Shared-compressed: join (or start) the cooperative circular scan
        // over the sibling extent, grouped under the *table* id below.
        path = std::make_unique<CompressedScan>(options_.sharing, extent,
                                                spec.predicate);
      } else {
        path = std::make_unique<CompressedScan>(engine_, extent,
                                                spec.predicate);
      }
      break;
    default:  // Full, Index, Sort, Switch and Smooth Scan.
      if (spec.dop >= 1) {
        path = MakeParallelPath(kind, spec.index, spec.predicate,
                                spec.need_order, plan.estimate, po);
        m.parallel = path != nullptr;
      }
      if (path != nullptr) break;
      if (kind == PathKind::kSmoothScan) {
        // Every serial Smooth Scan: its Result Cache answers to the engine's
        // broker. Serial with sharing on, it also feeds (and profits from)
        // the table's common Page ID Cache. Results are solo-identical;
        // charged I/O is not — peer-probed resident pages come free, which
        // is the point.
        SmoothScanOptions so;
        so.preserve_order = spec.need_order;
        so.broker = options_.broker;
        if (sharing_on && spec.dop == 0) {
          so.shared_group =
              options_.sharing->SmoothSharingFor(spec.index->heap());
        }
        path = std::make_unique<SmoothScan>(spec.index, spec.predicate, so);
      } else {
        path = MakePath(kind, spec.index, spec.predicate, spec.need_order,
                        plan.estimate);
      }
      break;
  }
  const FileId table = spec.index->heap()->file_id();
  if (plan.shared) {
    // Visible to the share-aware batch pop while this scan is in flight.
    latch::LatchGuard lock(mu_);
    ++running_shared_[table];
  }
  path->SetExecContext(&qctx.ctx());
  path->SetObs(obs_ctx);

  {
    // One span per scan regardless of which branch built the path; morph
    // instants and per-morsel worker spans nest (logically) inside it.
    obs::TraceSpan scan_span(options_.tracing, id, "scan", "kind",
                             static_cast<int64_t>(kind), "dop",
                             static_cast<int64_t>(spec.dop));
    res.status = path->Open();
    if (res.status.ok()) {
      TupleBatch batch;
      while (path->NextBatch(&batch)) {
        m.tuples += batch.size();
        if (spec.collect_keys) {
          for (size_t i = 0; i < batch.size(); ++i) {
            res.keys.push_back(batch.row(i)[0].AsInt64());
          }
        }
        if (ticket->streamed()) ticket->Push(&batch);
        // Polled between batches: path->Close() below is the teardown — for
        // a shared-scan consumer that is Detach mid-lap, the existing
        // cancelled-consumer path, and the peers' laps proceed untouched.
        if (ticket->cancelled()) {
          res.status = Status::Cancelled("cancelled mid-execution");
          m.cancelled = true;
          obs::EmitInstant(obs_ctx, "cancel", "mid_execution", 1);
          break;
        }
      }
      path->Close();
    }
  }
  if (plan.shared) {
    latch::LatchGuard lock(mu_);
    auto it = running_shared_.find(table);
    if (--it->second == 0) running_shared_.erase(it);
  }

  RecordCost(qctx, &m);
  AddPoolStats(obs_ctx, qctx.pool().stats());
  AddBatchPoolStats(obs_ctx, batch_pool.stats());
  m.mem_peak_bytes = mem_scope.peak_bytes();
  m.mem_quota_breaches = mem_scope.quota_breaches();
  return res;
}

double LatencyPercentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t i = static_cast<size_t>(std::ceil(rank));
  i = std::min(std::max<size_t>(i, 1), values.size());
  return values[i - 1];
}

}  // namespace smoothscan
