// wire_mixed: four closed-loop pipe connections to a net::Server over an
// engine with scan sharing, snapshot versions, a memory broker and a
// metrics registry.
//
// Why: the whole front end as a user sees it — frames, parse/bind,
// sessions, admission, sharing and publish all run, and writes sit beside
// reads on the same access layer, so a read-side gain that costs writes or
// the wire shows here. The table (120k tuples, ~1.2k pages) fits in the
// 8,192-page pool; the server's statistics are frozen at setup.
//
// Connections 1-3 send seeded SELECT text (POLICY=auto|smooth, DOP=0|2,
// log-uniform selectivity 0.01%..100%, drawn from stratified decks).
// Connection 0 alternates one chained 32-op INSERT/UPDATE/DELETE batch with
// four such reads, its inserts and updates drifting into the low-key window
// every read predicate covers.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "exec/task_scheduler.h"
#include "harness.h"
#include "mem/memory_broker.h"
#include "net/server.h"
#include "net/wire_client.h"
#include "obs/metrics.h"
#include "plan/query_text.h"
#include "plan/table_stats.h"
#include "sharing/scan_sharing.h"
#include "workload/micro_bench.h"
#include "write/table_version.h"
#include "write/table_writer.h"

namespace perfbench {
namespace {

using namespace smoothscan;

constexpr uint64_t kTuples = 120000;
constexpr size_t kPoolPages = 8192;
constexpr uint32_t kConnections = 4;
constexpr uint32_t kWorkers = 4;
constexpr size_t kStrata = 8;
constexpr double kSelLo = 1e-4;
constexpr double kSelHi = 1.0;
constexpr uint32_t kOpsPerWrite = 32;
constexpr uint32_t kReadsPerWrite = 4;
/// Inserts and updates draw c2 from this low slice of the value domain.
constexpr double kDriftWindow = 0.1;
constexpr int kSetups = 9;
/// Thousands of reads per run: p99 keeps ten samples beyond it.
constexpr double kTailQ = 0.99;
const char* const kTable = "t";

EngineOptions WireEngineOptions() {
  EngineOptions options;
  options.buffer_pool_pages = kPoolPages;
  return options;
}

MicroBenchSpec WireSpec(uint64_t seed) {
  MicroBenchSpec spec;
  spec.num_tuples = kTuples;
  spec.seed = Rng(seed).Fork(4).Next();
  return spec;
}

struct Fixture {
  explicit Fixture(uint64_t seed)
      : engine(WireEngineOptions()),
        db(&engine, WireSpec(seed)),
        versions(&engine),
        writer(db.mutable_heap(), {db.mutable_index()}, &versions),
        scheduler(kWorkers),
        sharing(&engine, SharingOptions(&scheduler, &broker)),
        stats(TableStats::Compute(db.heap(), MicroBenchDb::kIndexedColumn)),
        model(CostModelFor(engine, db.heap())),
        qe(&engine, EngineOptionsFor(this)),
        server(&qe, &catalog) {
    catalog.Register(kTable,
                     TableBinding{&db.index(), &stats, &model, &writer});
  }

  static SharedScanOptions SharingOptions(TaskScheduler* scheduler,
                                          MemoryBroker* broker) {
    SharedScanOptions options;
    options.scheduler = scheduler;
    options.broker = broker;
    return options;
  }
  static QueryEngineOptions EngineOptionsFor(Fixture* f) {
    QueryEngineOptions options;
    options.max_admitted = kWorkers;
    options.scheduler = &f->scheduler;
    options.sharing = &f->sharing;
    options.versions = &f->versions;
    options.broker = &f->broker;
    options.metrics = &f->registry;
    return options;
  }

  Engine engine;
  MicroBenchDb db;
  TableVersionRegistry versions;
  TableWriter writer;
  MemoryBroker broker;
  obs::MetricsRegistry registry;
  TaskScheduler scheduler;
  ScanSharingCoordinator sharing;
  const TableStats stats;  ///< Frozen at setup.
  const CostModel model;
  QueryCatalog catalog;
  QueryEngine qe;
  net::Server server;
};

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out->append(buf);
}

std::string SelectText(const ScanPredicate& p, const char* policy,
                       uint32_t dop, bool sharing = true) {
  std::string text = std::string("SELECT * FROM ") + kTable + " WHERE C";
  AppendI64(&text, p.column);
  text += " >= ";
  AppendI64(&text, p.lo);
  text += " AND C";
  AppendI64(&text, p.column);
  text += " < ";
  AppendI64(&text, p.hi);
  text += std::string(" WITH (POLICY=") + policy + ", DOP=";
  AppendI64(&text, dop);
  if (!sharing) text += ", SHARING=0";
  text += ")";
  return text;
}

/// Connection 0's op stream: unique c1 for inserts, c2 drifting into the
/// low-key window, update/delete targets uniform over the table's extent at
/// setup (a dead target is a deterministic no-op).
class WriteGen {
 public:
  WriteGen(const MicroBenchDb& db, Rng* rng)
      : rng_(rng),
        columns_(db.heap().schema().num_columns()),
        value_max_(db.value_max()),
        next_c1_(static_cast<int64_t>(db.heap().num_tuples())),
        pages_(static_cast<int64_t>(db.heap().num_pages())),
        slots_(static_cast<int64_t>(
            2 * db.heap().num_tuples() /
            std::max<size_t>(1, db.heap().num_pages()))) {}

  std::string Next() {
    std::string text;
    for (uint32_t i = 0; i < kOpsPerWrite; ++i) {
      if (!text.empty()) text += "; ";
      // Insert : update : delete = 2 : 1 : 1.
      const int64_t kind = rng_->UniformInt(0, 3);
      if (kind <= 1) {
        text += std::string("INSERT INTO ") + kTable + " VALUES";
        AppendRow(&text);
      } else if (kind == 2) {
        text += std::string("UPDATE ") + kTable + " SET ROW";
        AppendRow(&text);
        text += " WHERE";
        AppendTid(&text);
      } else {
        text += std::string("DELETE FROM ") + kTable + " WHERE";
        AppendTid(&text);
      }
    }
    return text;
  }

 private:
  void AppendRow(std::string* text) {
    *text += " (";
    AppendI64(text, next_c1_++);
    *text += ", ";
    const double window = kDriftWindow * static_cast<double>(value_max_);
    AppendI64(text, rng_->UniformInt(0, static_cast<int64_t>(window)));
    for (size_t c = 2; c < columns_; ++c) {
      *text += ", ";
      AppendI64(text, rng_->UniformInt(0, value_max_));
    }
    *text += ")";
  }
  void AppendTid(std::string* text) {
    *text += " TID (";
    AppendI64(text, rng_->UniformInt(0, pages_ - 1));
    *text += ", ";
    AppendI64(text, rng_->UniformInt(0, slots_ - 1));
    *text += ")";
  }

  Rng* rng_;
  size_t columns_;
  int64_t value_max_;
  int64_t next_c1_;
  int64_t pages_;
  int64_t slots_;
};

struct ClientTally {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t ops_sent = 0;
  StorageTally storage;  ///< Every completed read and write.
  uint64_t path_counts[kNumPathKinds] = {};
  std::vector<double> read_ms;
};

struct PhaseResult {
  ClientTally total;
  double seconds = 0.0;
  double communal_sim = 0.0;
};

class WireRun {
 public:
  WireRun(Fixture* f, Report* report, uint64_t seed)
      : f_(f), report_(report), root_(seed) {}

  /// All four connections for `seconds`. With `windows`, a sampler closes
  /// a throughput window every second.
  PhaseResult Phase(double seconds, Tracer* tracer, bool windows) {
    std::vector<ClientTally> tallies(kConnections);
    std::vector<std::thread> threads;
    const double sim0 = f_->engine.TotalTime();
    completed_.store(0);
    rows_.store(0);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    ++phase_;
    for (uint32_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([this, c, deadline, tracer, &tallies] {
        Client(c, deadline, tracer, &tallies[c]);
      });
    }
    if (windows) {
      WindowMeter meter(report_);
      for (Clock::time_point at = t0 + std::chrono::seconds(1); at <= deadline;
           at += std::chrono::seconds(1)) {
        std::this_thread::sleep_until(at);
        meter.Close(completed_.load(), rows_.load());
      }
    }
    for (std::thread& t : threads) t.join();
    PhaseResult out;
    out.seconds = SecondsSince(t0);
    out.communal_sim = f_->engine.TotalTime() - sim0;
    for (const ClientTally& t : tallies) {
      out.total.reads += t.reads;
      out.total.writes += t.writes;
      out.total.ops_sent += t.ops_sent;
      out.total.storage.Merge(t.storage);
      for (int k = 0; k < kNumPathKinds; ++k) {
        out.total.path_counts[k] += t.path_counts[k];
      }
      out.total.read_ms.insert(out.total.read_ms.end(), t.read_ms.begin(),
                               t.read_ms.end());
    }
    WaitForTeardown();
    return out;
  }

  /// With the load stopped: full, index and smooth must agree on the count
  /// of a few predicates.
  void QuiescentCheck() {
    net::WireClient client(f_->server.ConnectPipe());
    for (const double sel : {0.001, 0.05, 0.5}) {
      const ScanPredicate p = f_->db.PredicateForSelectivity(sel);
      std::vector<uint64_t> counts;
      for (const char* policy : {"full", "index", "smooth"}) {
        const net::WireResult r =
            client.Wait(client.Submit(SelectText(p, policy, 0, false)));
        const bool ok = r.complete && r.status.ok();
        report_->Record(
            ok ? "" : std::string("quiescent ") + policy + " read failed");
        counts.push_back(ok ? r.rows.size() : UINT64_MAX);
      }
      report_->Record(counts[0] == counts[1] && counts[1] == counts[2]
                          ? ""
                          : "quiescent counts disagree: full " +
                                std::to_string(counts[0]) + ", index " +
                                std::to_string(counts[1]) + ", smooth " +
                                std::to_string(counts[2]));
    }
  }

 private:
  void Client(uint32_t c, Clock::time_point deadline, Tracer* tracer,
              ClientTally* tally) {
    Rng rng = root_.Fork(phase_ * kConnections + c);
    Deck deck(kStrata * 4, &rng);
    std::unique_ptr<WriteGen> writes;
    if (c == 0) writes = std::make_unique<WriteGen>(f_->db, &rng);
    net::WireClient client(f_->server.ConnectPipe());
    uint64_t n = 0;
    while (Clock::now() < deadline) {
      const uint64_t request = (static_cast<uint64_t>(c) << 40) | ++n;
      if (writes != nullptr && n % (kReadsPerWrite + 1) == 1) {
        Write(&client, writes->Next(), request, tracer, tally);
      } else {
        Read(&client, deck.Next(), &rng, request, tracer, tally);
      }
    }
  }

  void Write(net::WireClient* client, const std::string& text,
             uint64_t request, Tracer* tracer, ClientTally* tally) {
    const Clock::time_point t0 = Clock::now();
    net::WireResult r;
    {
      Span span(tracer, request, "net.write");
      r = client->Wait(client->Submit(text));
    }
    const double ms = MsBetween(t0, Clock::now());
    ++tally->writes;
    tally->ops_sent += kOpsPerWrite;
    completed_.fetch_add(1);
    report_->Record(r.complete && r.status.ok()
                        ? ""
                        : "write not acknowledged: " + r.status.ToString());
    Account(r.metrics, tally);
    if (tracer != nullptr) {
      report_->Sample("write.latency_ms", ms);
      report_->Sample("write.exec_ms", r.metrics.exec_ms);
    }
  }

  void Read(net::WireClient* client, size_t card, Rng* rng, uint64_t request,
            Tracer* tracer, ClientTally* tally) {
    const size_t stratum = card / 4;
    const bool smooth = (card / 2) % 2 == 1;
    const uint32_t dop = card % 2 == 1 ? 2 : 0;
    const double sel = LogUniformInStratum(kSelLo, kSelHi, stratum, kStrata,
                                           rng->UniformDouble());
    const ScanPredicate p = f_->db.PredicateForSelectivity(sel);
    const std::string text = SelectText(p, smooth ? "smooth" : "auto", dop);

    uint64_t estimate = 0;
    if (tracer != nullptr) {
      {
        Span span(tracer, request, "plan.parse_bind");
        Result<ParsedStatement> parsed = ParseQueryText(text);
        if (parsed.ok()) (void)BindStatement(f_->catalog, *parsed);
      }
      if (!smooth) {
        Span span(tracer, request, "plan.choose");
        ChooserOptions options;
        options.dop = std::max<uint32_t>(1, dop);
        options.sharing_available = true;
        estimate = AccessPathChooser::Choose(f_->stats, f_->model, p.lo, p.hi,
                                             options)
                       .estimated_cardinality;
      }
    }
    const Clock::time_point t0 = Clock::now();
    net::WireResult r;
    {
      Span span(tracer, request, "net.read");
      r = client->Wait(client->Submit(text));
    }
    const double ms = MsBetween(t0, Clock::now());
    tally->read_ms.push_back(ms);
    ++tally->reads;
    completed_.fetch_add(1);
    rows_.fetch_add(r.rows.size());

    std::string error;
    if (!r.complete || !r.status.ok()) {
      error = "read failed: " + r.status.ToString();
    } else if (r.metrics.tuples != r.rows.size()) {
      error = "DONE tuples " + std::to_string(r.metrics.tuples) + " but " +
              std::to_string(r.rows.size()) + " rows received";
    } else {
      for (const std::vector<int64_t>& row : r.rows) {
        if (row.size() <= static_cast<size_t>(p.column) ||
            !p.MatchesKey(row[p.column])) {
          error = "received row outside the predicate";
          break;
        }
      }
    }
    report_->Record(error);
    ++tally->path_counts[static_cast<int>(r.metrics.kind)];
    Account(r.metrics, tally);
    if (tracer != nullptr) {
      report_->Sample("net.overhead_ms", ms - r.metrics.latency_ms);
      report_->Sample("engine.queue_wait_ms", r.metrics.queue_wait_ms);
      report_->Sample("engine.exec_ms", r.metrics.exec_ms);
      if (!smooth) {
        report_->Sample("plan.qerror",
                        QError(static_cast<double>(estimate),
                               static_cast<double>(r.rows.size())));
      }
    }
  }

  static void Account(const QueryMetrics& m, ClientTally* tally) {
    tally->storage.Add(m.pages_read, m.random_ios, m.seq_ios, m.io_time,
                       m.sim_time);
  }

  /// Connections close asynchronously; wait until the server tore them down
  /// so its counters are final.
  void WaitForTeardown() {
    const Clock::time_point t0 = Clock::now();
    while (f_->server.stats().connections_active != 0 && SecondsSince(t0) < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Fixture* f_;
  Report* report_;
  const Rng root_;
  uint64_t phase_ = 0;
  /// Operations and rows completed in the current phase (window sampler).
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rows_{0};
};

/// The coordinator's counters summed across group retirements: a publish
/// retires parked groups and their counts leave stats(), so totals are
/// summed from the increases seen by polling every millisecond.
class SharingSampler {
 public:
  explicit SharingSampler(const ScanSharingCoordinator* sharing)
      : sharing_(sharing), last_(sharing->stats()) {
    poller_ = std::thread([this] {
      while (!stop_.load()) {
        Poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Poll();
    });
  }
  ~SharingSampler() { Stop(); }
  SharingSampler(const SharingSampler&) = delete;
  SharingSampler& operator=(const SharingSampler&) = delete;

  /// Stops polling; the totals are final afterwards.
  void Stop() {
    if (!poller_.joinable()) return;
    stop_.store(true);
    poller_.join();
  }
  uint64_t consumers() const { return consumers_; }
  uint64_t pages() const { return pages_; }
  uint64_t claims() const { return claims_; }
  uint64_t chunks() const { return chunks_; }

 private:
  void Poll() {
    const ScanSharingStats now = sharing_->stats();
    auto add = [](uint64_t now_v, uint64_t last_v, uint64_t* total) {
      if (now_v > last_v) *total += now_v - last_v;
    };
    add(now.consumers_attached, last_.consumers_attached, &consumers_);
    add(now.pages_fetched, last_.pages_fetched, &pages_);
    add(now.chunk_claims, last_.chunk_claims, &claims_);
    add(now.chunks_produced, last_.chunks_produced, &chunks_);
    last_ = now;
  }

  const ScanSharingCoordinator* sharing_;
  ScanSharingStats last_;
  uint64_t consumers_ = 0;
  uint64_t pages_ = 0;
  uint64_t claims_ = 0;
  uint64_t chunks_ = 0;
  std::atomic<bool> stop_{false};
  std::thread poller_;
};

/// Registry and subsystem counters sampled around the traced phase.
struct Counters {
  explicit Counters(Fixture* f) {
    const obs::MetricsSnapshot snap = f->registry.Snapshot();
    bp_hits = snap.Value("bufferpool.hits");
    bp_misses = snap.Value("bufferpool.misses");
    batch_acquires = snap.Value("batchpool.acquires");
    batch_reuses = snap.Value("batchpool.reuses");
    const TableWriterStats& w = f->writer.stats();
    ops_applied = w.inserts + w.updates + w.deletes;
    publishes = f->versions.published_epoch(f->db.heap().file_id());
    window_stalls = f->server.stats().window_stalls;
  }
  double bp_hits, bp_misses, batch_acquires, batch_reuses;
  uint64_t ops_applied, publishes, window_stalls;
};

void ReportEndToEnd(const PhaseResult& r, Report* report) {
  const double completed = static_cast<double>(r.total.reads + r.total.writes);
  report->Samples("read_ms", r.total.read_ms);
  report->Set("tail_q", kTailQ);
  report->Set("sim_cost_per_query",
              (r.total.storage.sim_time + r.communal_sim) / completed);
}

}  // namespace

int RunWireMixed(const Args& args, Report* report) {
  std::unique_ptr<Fixture> f = TimedSetup<Fixture>(
      kSetups, report, [&] { return std::make_unique<Fixture>(args.seed); });
  std::fprintf(stderr,
               "wire_mixed: %llu tuples, %zu pages, pool %zu pages, %u "
               "connections\n",
               static_cast<unsigned long long>(f->db.heap().num_tuples()),
               f->db.heap().num_pages(), kPoolPages, kConnections);
  WireRun run(f.get(), report, args.seed);

  if (!args.trace) {
    const PhaseResult r = run.Phase(args.seconds, nullptr, /*windows=*/true);
    run.QuiescentCheck();
    ReportEndToEnd(r, report);
    report->Set("peak_rss_mb", PeakRssMb());
    return 0;
  }

  const PhaseResult untraced =
      run.Phase(args.seconds / 2, nullptr, /*windows=*/false);
  obs::TraceCollector collector(1u << 16);
  Tracer tracer(&collector, report);
  const Counters before(f.get());
  PhaseResult traced;
  int threads_peak = 0;
  SharingSampler sharing(&f->sharing);
  {
    ThreadMonitor monitor;
    traced = run.Phase(args.seconds / 2, &tracer, /*windows=*/false);
    threads_peak = monitor.peak();
  }
  sharing.Stop();
  const Counters after(f.get());
  run.QuiescentCheck();

  const ClientTally& t = traced.total;
  const double completed = static_cast<double>(t.reads + t.writes);
  report->Set("bench.trace_overhead_frac",
              1.0 - (completed / traced.seconds) /
                        (static_cast<double>(untraced.total.reads +
                                             untraced.total.writes) /
                         untraced.seconds));
  report->Set("net.threads_peak", threads_peak);
  report->Set("net.window_stalls",
              static_cast<double>(after.window_stalls - before.window_stalls));
  report->Set("engine.admitted_peak", f->qe.peak_admitted());
  for (int k = 0; k < kNumPathKinds; ++k) {
    report->Set(std::string("plan.path.") + KindName(static_cast<PathKind>(k)),
                static_cast<double>(t.path_counts[k]));
  }
  t.storage.ReportTo(report, after.bp_hits - before.bp_hits,
                     after.bp_misses - before.bp_misses);
  const double acquires = after.batch_acquires - before.batch_acquires;
  const double reuses = after.batch_reuses - before.batch_reuses;
  report->Set("mem.batchpool_reuse_frac",
              acquires > 0 ? reuses / acquires : 0.0);
  report->Set("mem.broker_peak_mb",
              static_cast<double>(f->broker.peak_total_bytes()) / (1 << 20));
  // Consumers served per produced chunk: how many queries share one pass.
  report->Set("sharing.consumers_per_group",
              sharing.chunks() > 0 ? static_cast<double>(sharing.claims()) /
                                         static_cast<double>(sharing.chunks())
                                   : 0.0);
  report->Set("sharing.pages_per_consumer",
              sharing.consumers() > 0
                  ? static_cast<double>(sharing.pages()) /
                        static_cast<double>(sharing.consumers())
                  : 0.0);
  report->Set("write.ops_applied_frac",
              t.ops_sent > 0 ? static_cast<double>(after.ops_applied -
                                                   before.ops_applied) /
                                   static_cast<double>(t.ops_sent)
                             : 0.0);
  report->Set("write.publishes",
              static_cast<double>(after.publishes - before.publishes));
  if (!args.trace_path.empty() && !collector.ExportJsonFile(args.trace_path)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_path.c_str());
  }
  return 0;
}

}  // namespace perfbench
