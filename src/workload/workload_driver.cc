#include "workload/workload_driver.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "engine/session.h"
#include "obs/sampler.h"
#include "plan/table_stats.h"

namespace smoothscan {

const char* DriverPolicyToString(DriverPolicy policy) {
  switch (policy) {
    case DriverPolicy::kOptimizer:
      return "optimizer";
    case DriverPolicy::kSmoothScan:
      return "smooth";
    case DriverPolicy::kFullScan:
      return "full";
    case DriverPolicy::kIndexScan:
      return "index";
    case DriverPolicy::kSharedScan:
      return "shared";
  }
  return "?";
}

std::vector<StreamPhase> WorkloadOptions::DriftingPhases(
    uint32_t queries_per_phase) {
  // Phase 1: point-ish queries the frozen statistics estimate fine.
  StreamPhase trickle;
  trickle.selectivity_lo = 0.0005;
  trickle.selectivity_hi = 0.002;
  trickle.estimate_error = 1.0;
  trickle.queries = queries_per_phase;
  // Phase 2: the workload drifts to mid selectivity but the statistics lag
  // 100x behind — the optimizer keeps picking index-driven paths.
  StreamPhase drifted;
  drifted.selectivity_lo = 0.05;
  drifted.selectivity_hi = 0.2;
  drifted.estimate_error = 0.01;
  drifted.queries = queries_per_phase;
  // Phase 3: reporting-style queries, estimates off by 1000x.
  StreamPhase report;
  report.selectivity_lo = 0.5;
  report.selectivity_hi = 1.0;
  report.estimate_error = 0.001;
  report.queries = queries_per_phase;
  return {trickle, drifted, report};
}

std::vector<StreamPhase> WorkloadOptions::HotSpotPhases(
    uint32_t queries_per_client) {
  StreamPhase hot;
  hot.selectivity_lo = 0.3;
  hot.selectivity_hi = 0.8;
  hot.estimate_error = 1.0;  // Honest stats: the full pass is genuinely best.
  hot.queries = queries_per_client;
  return {hot};
}

std::vector<StreamPhase> WorkloadOptions::MixedWritePhases(
    uint32_t queries_per_phase, uint32_t write_queries_per_phase) {
  // The statistics are computed once, before any write; the phases then
  // mutate the low-key range the read predicates cover, so the true
  // qualifying counts drift away under the chooser's feet even at
  // estimate_error = 1 ("honest but stale").
  StreamPhase warm;  // Insert-heavy: the hot range densifies.
  warm.selectivity_lo = 0.02;
  warm.selectivity_hi = 0.1;
  warm.queries = queries_per_phase;
  warm.write_queries = write_queries_per_phase;
  warm.insert_sel_lo = 0.0;
  warm.insert_sel_hi = 0.1;
  warm.insert_weight = 4.0;
  warm.update_weight = 1.0;
  warm.delete_weight = 1.0;
  StreamPhase churn;  // Balanced churn at mid selectivity.
  churn.selectivity_lo = 0.05;
  churn.selectivity_hi = 0.25;
  churn.queries = queries_per_phase;
  churn.write_queries = write_queries_per_phase;
  churn.insert_sel_lo = 0.0;
  churn.insert_sel_hi = 0.3;
  churn.insert_weight = 1.0;
  churn.update_weight = 2.0;
  churn.delete_weight = 1.0;
  StreamPhase thin;  // Delete-heavy: the hot range hollows out again.
  thin.selectivity_lo = 0.1;
  thin.selectivity_hi = 0.4;
  thin.queries = queries_per_phase;
  thin.write_queries = write_queries_per_phase;
  thin.insert_sel_lo = 0.5;
  thin.insert_sel_hi = 1.0;
  thin.insert_weight = 1.0;
  thin.update_weight = 1.0;
  thin.delete_weight = 4.0;
  return {warm, churn, thin};
}

WorkloadDriver::WorkloadDriver(Engine* engine, const MicroBenchDb* db,
                               QueryEngine* qe)
    : engine_(engine), db_(db), qe_(qe) {}

QuerySpec WorkloadDriver::SpecFor(const StreamPhase& phase, double selectivity,
                                  const TableStats* phase_stats,
                                  const CostModel* model,
                                  const WorkloadOptions& options) const {
  QuerySpec spec;
  spec.index = &db_->index();
  spec.predicate = db_->PredicateForSelectivity(selectivity);
  spec.dop = options.dop;
  spec.lane = phase.lane;
  switch (options.policy) {
    case DriverPolicy::kOptimizer:
      spec.use_chooser = true;
      spec.stats = phase_stats;
      spec.cost_model = model;
      break;
    case DriverPolicy::kSmoothScan:
      spec.kind = PathKind::kSmoothScan;
      break;
    case DriverPolicy::kFullScan:
      spec.kind = PathKind::kFullScan;
      break;
    case DriverPolicy::kIndexScan:
      spec.kind = PathKind::kIndexScan;
      break;
    case DriverPolicy::kSharedScan:
      spec.kind = PathKind::kSharedScan;
      break;
  }
  return spec;
}

std::vector<WriteOp> WorkloadDriver::GenWriteOps(const StreamPhase& phase,
                                                 Rng* rng,
                                                 WriteGenState* state) const {
  const Schema& schema = db_->heap().schema();
  const int64_t value_max = db_->value_max();
  const double total_weight =
      phase.insert_weight + phase.update_weight + phase.delete_weight;
  // Insert and update payloads share one generator: unique c1, indexed key
  // from the phase's drift window, the rest uniform like the table's.
  auto drift_tuple = [&] {
    Tuple tuple(schema.num_columns());
    tuple[0] = Value::Int64(state->next_c1++);
    const double frac =
        rng->UniformDouble(phase.insert_sel_lo, phase.insert_sel_hi);
    tuple[MicroBenchDb::kIndexedColumn] = Value::Int64(
        static_cast<int64_t>(frac * static_cast<double>(value_max)));
    for (size_t c = 2; c < schema.num_columns(); ++c) {
      tuple[c] = Value::Int64(rng->UniformInt(0, value_max));
    }
    return tuple;
  };
  std::vector<WriteOp> ops;
  ops.reserve(phase.write_ops);
  for (uint32_t i = 0; i < phase.write_ops; ++i) {
    const double pick = rng->UniformDouble() * total_weight;
    if (pick < phase.insert_weight || total_weight == 0.0) {
      ops.push_back(WriteOp::MakeInsert(drift_tuple()));
      continue;
    }
    // Update/delete target a uniformly drawn Tid over the table's original
    // extent. A draw landing on a dead (or never-populated) slot is applied
    // as a deterministic no-op — the op *stream* stays a pure function of
    // the seed either way.
    const Tid tid{
        static_cast<PageId>(rng->UniformInt(0, state->target_pages - 1)),
        static_cast<SlotId>(rng->UniformInt(0, state->slot_range - 1))};
    if (pick < phase.insert_weight + phase.update_weight) {
      ops.push_back(WriteOp::MakeUpdate(tid, drift_tuple()));
    } else {
      ops.push_back(WriteOp::MakeDelete(tid));
    }
  }
  return ops;
}

WorkloadReport WorkloadDriver::Run(const WorkloadOptions& options) {
  SMOOTHSCAN_CHECK(options.clients >= 1);
  SMOOTHSCAN_CHECK(!options.phases.empty());
  bool any_writes = false;
  for (const StreamPhase& phase : options.phases) {
    any_writes = any_writes || phase.write_queries > 0;
  }
  SMOOTHSCAN_CHECK(!any_writes || options.writer != nullptr);

  // Statistics are computed once (the paper's frozen-stats scenario) and
  // corrupted per phase; each phase owns its copy so concurrent clients of
  // different phases never share mutable stats.
  const TableStats base =
      TableStats::Compute(db_->heap(), MicroBenchDb::kIndexedColumn);
  std::vector<TableStats> phase_stats;
  phase_stats.reserve(options.phases.size());
  for (const StreamPhase& phase : options.phases) {
    phase_stats.push_back(base);
    phase_stats.back().CorruptScale(phase.estimate_error);
  }
  CostModelParams params;
  params.num_tuples = db_->heap().num_tuples();
  params.tuple_size =
      engine_->options().page_size /
      std::max<uint64_t>(1, db_->heap().num_tuples() / db_->heap().num_pages());
  params.page_size = engine_->options().page_size;
  params.rand_cost = engine_->options().device.rand_cost;
  params.seq_cost = engine_->options().device.seq_cost;
  const CostModel model(params);

  // Closed loop: each client thread submits one query, waits for it, then
  // submits the next — the queue depth the engine sees is bounded by the
  // client count, and queue wait only appears once clients outnumber the
  // admission cap. Client 0 doubles as the writer client in phases with a
  // write mix, interleaving write queries proportionally among its reads.
  const FileId table = db_->heap().file_id();
  const bool pin_phases = options.versions != nullptr && options.phase_barrier;
  TableVersionRegistry::ReadLease phase_lease;
  if (pin_phases) phase_lease = options.versions->AcquireRead(table);
  // Phase barrier: the completion step (run by exactly one thread, between
  // generations) rotates the snapshot lease, so pending eras publish at the
  // boundary and nowhere else.
  size_t completed_phases = 0;
  auto rotate_lease = [&]() noexcept {
    ++completed_phases;
    if (!pin_phases) return;
    phase_lease.Release();
    if (completed_phases < options.phases.size()) {
      phase_lease = options.versions->AcquireRead(table);
    }
  };
  std::barrier barrier(static_cast<std::ptrdiff_t>(options.clients),
                       rotate_lease);

  // Update/delete targets draw over the table's extent at workload start —
  // frozen here so the op stream is identical however many phases already
  // ran in another configuration of the same seed.
  WriteGenState write_state;
  write_state.next_c1 = static_cast<int64_t>(db_->heap().num_tuples());
  write_state.target_pages = static_cast<PageId>(db_->heap().num_pages());
  write_state.slot_range = static_cast<uint32_t>(std::max<uint64_t>(
      1, 2 * db_->heap().num_tuples() /
             std::max<uint64_t>(1, db_->heap().num_pages())));

  // Periodic snapshot reporter: while the clients run, a sampler thread
  // pulls broker state into registry gauges every tick; Stop()
  // samples once more, so the report's snapshot is the end state.
  std::unique_ptr<obs::RegistrySampler> sampler;
  if (options.metrics != nullptr) {
    obs::RegistrySampler::Sources sources;
    sources.registry = options.metrics;
    sources.broker = options.broker;
    sampler = std::make_unique<obs::RegistrySampler>(sources);
    sampler->Start(std::chrono::milliseconds(options.snapshot_period_ms));
  }

  std::vector<std::vector<QueryMetrics>> per_client(options.clients);
  const Rng root(options.seed);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  for (uint32_t c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng = root.Fork(c);
      std::vector<QueryMetrics>& out = per_client[c];
      // Each client is one tenant with its own Session: the closed loop
      // submits, waits, repeats.
      Session session(qe_);
      for (size_t ph = 0; ph < options.phases.size(); ++ph) {
        const StreamPhase& phase = options.phases[ph];
        const bool writer_client =
            c == 0 && options.writer != nullptr && phase.write_queries > 0;
        uint32_t reads = 0;
        uint32_t writes = 0;
        while (reads < phase.queries ||
               (writer_client && writes < phase.write_queries)) {
          const bool do_write =
              writer_client && writes < phase.write_queries &&
              (reads >= phase.queries ||
               static_cast<uint64_t>(writes) * phase.queries <=
                   static_cast<uint64_t>(reads) * phase.write_queries);
          QueryResult result;
          if (do_write) {
            std::vector<WriteOp> ops = GenWriteOps(phase, &rng, &write_state);
            result = session.Query()
                         .Write(options.writer, std::move(ops))
                         .Lane(phase.lane)
                         .Run();
            ++writes;
          } else {
            const double sel = rng.UniformDouble(phase.selectivity_lo,
                                                 phase.selectivity_hi);
            QuerySpec spec =
                SpecFor(phase, sel, &phase_stats[ph], &model, options);
            result = session.Query().FromSpec(std::move(spec)).Run();
            ++reads;
          }
          SMOOTHSCAN_CHECK(result.status.ok());
          out.push_back(result.metrics);
        }
        if (options.phase_barrier) barrier.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  phase_lease.Release();
  const auto wall_end = std::chrono::steady_clock::now();
  // After the wall-clock stamp so the final synchronous sample never
  // inflates wall_ms.
  if (sampler != nullptr) sampler->Stop();

  WorkloadReport report;
  report.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  std::vector<double> latencies;
  for (const std::vector<QueryMetrics>& metrics : per_client) {
    for (const QueryMetrics& m : metrics) {
      report.total_sim_time += m.sim_time;
      report.mem_quota_breaches += m.mem_quota_breaches;
      report.mem_peak_bytes = std::max(report.mem_peak_bytes, m.mem_peak_bytes);
      report.per_query.push_back(m);
      if (m.write) {
        // Writes are tracked apart so the classic read-side metrics stay
        // comparable with read-only configurations.
        ++report.write_queries;
        report.write_ops += m.tuples;
        continue;
      }
      ++report.queries;
      report.tuples += m.tuples;
      report.mean_latency_ms += m.latency_ms;
      report.mean_queue_ms += m.queue_wait_ms;
      report.max_latency_ms = std::max(report.max_latency_ms, m.latency_ms);
      ++report.path_counts[static_cast<int>(m.kind)];
      latencies.push_back(m.latency_ms);
    }
  }
  if (report.queries > 0) {
    report.mean_latency_ms /= static_cast<double>(report.queries);
    report.mean_queue_ms /= static_cast<double>(report.queries);
  }
  if (report.wall_ms > 0.0) {
    report.qps = static_cast<double>(report.queries) / (report.wall_ms / 1e3);
  }
  report.p50_latency_ms = LatencyPercentile(latencies, 0.50);
  report.p95_latency_ms = LatencyPercentile(latencies, 0.95);
  report.p99_latency_ms = LatencyPercentile(latencies, 0.99);
  if (options.broker != nullptr) {
    report.mem_peak_total_bytes = options.broker->peak_total_bytes();
    report.mem_pressure_epochs = options.broker->pressure_epoch();
    for (size_t i = 0; i < kNumMemoryClasses; ++i) {
      report.mem_class_bytes[i] =
          options.broker->class_bytes(static_cast<MemoryClass>(i));
    }
  }
  if (options.metrics != nullptr) {
    report.metrics = options.metrics->Snapshot();
  }
  return report;
}

}  // namespace smoothscan
