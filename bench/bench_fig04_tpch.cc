// Figure 4 + Table II: TPC-H queries Q1, Q4, Q6, Q7, Q14 executed with the
// access path plain PostgreSQL chose in the paper's experiment versus
// PostgreSQL with Smooth Scan replacing the LINEITEM access path (the rest
// of every plan is identical). Prints the Fig. 4 execution-time breakdown
// (CPU vs I/O wait) and the Table II I/O analysis (#I/O requests, data read).
// Expected shape: large wins on Q6/Q7/Q14 (bad index choices), ~no loss on
// Q1/Q4 (optimal plain choices).

#include <cstdio>

#include "bench_util.h"
#include "tpch/queries.h"

using namespace smoothscan;
using namespace smoothscan::tpch;
using bench::MeasureCold;
using bench::RunMetrics;

int main() {
  bench::OpenJson("fig04_tpch");
  EngineOptions options;
  options.buffer_pool_pages = 512;
  Engine engine(options);
  TpchSpec spec;
  spec.scale_factor = 0.02;
  TpchDb db(&engine, spec);
  std::printf("# TPC-H SF %.3f: %llu lineitems (%zu pages), %llu orders\n\n",
              spec.scale_factor,
              static_cast<unsigned long long>(db.lineitem().num_tuples()),
              db.lineitem().num_pages(),
              static_cast<unsigned long long>(db.orders().num_tuples()));

  const int queries[] = {1, 4, 6, 7, 14};
  struct Row {
    int query;
    RunMetrics plain;
    RunMetrics smooth;
  };
  std::vector<Row> rows;

  std::printf("# Fig 4: execution time breakdown (simulated units)\n");
  std::printf("%-6s %-6s %-12s %12s %12s %12s\n", "query", "sel%", "plan",
              "total", "cpu", "io_wait");
  for (const int q : queries) {
    Row row;
    row.query = q;
    const PathKind plain_kind = PlainPostgresChoice(q);
    row.plain = MeasureCold(&engine, [&]() -> uint64_t {
      return RunQuery(q, db, plain_kind).lineitem_stats.tuples_produced;
    });
    row.smooth = MeasureCold(&engine, [&]() -> uint64_t {
      return RunQuery(q, db, PathKind::kSmoothScan)
          .lineitem_stats.tuples_produced;
    });
    char plan[32];
    std::snprintf(plan, sizeof(plan), "pSQL(%s)", PathKindToString(plain_kind));
    std::printf("%-6d %-6.0f %-12s %12.1f %12.1f %12.1f\n", q,
                PaperLineitemSelectivity(q) * 100.0, plan,
                row.plain.total_time, row.plain.cpu_time, row.plain.io_time);
    std::printf("%-6s %-6s %-12s %12.1f %12.1f %12.1f\n", "", "",
                "pSQL+Smooth", row.smooth.total_time, row.smooth.cpu_time,
                row.smooth.io_time);
    rows.push_back(row);
  }

  std::printf("\n# Table II: I/O analysis\n");
  std::printf("%-6s %18s %18s %18s %18s\n", "query", "pSQL #IO-req",
              "SS #IO-req", "pSQL read(MB)", "SS read(MB)");
  for (const Row& row : rows) {
    std::printf("%-6d %18llu %18llu %18.1f %18.1f\n", row.query,
                static_cast<unsigned long long>(row.plain.io_requests),
                static_cast<unsigned long long>(row.smooth.io_requests),
                static_cast<double>(row.plain.bytes_read) / (1024.0 * 1024.0),
                static_cast<double>(row.smooth.bytes_read) /
                    (1024.0 * 1024.0));
    char series[48];
    std::snprintf(series, sizeof(series), "Q%d pSQL", row.query);
    bench::RecordRow(series, PaperLineitemSelectivity(row.query) * 100.0,
                     row.plain);
    std::snprintf(series, sizeof(series), "Q%d Smooth", row.query);
    bench::RecordRow(series, PaperLineitemSelectivity(row.query) * 100.0,
                     row.smooth);
  }

  // Morsel-driven variant: the Smooth Scan LINEITEM leaf runs on the worker
  // pool. Simulated time and #I/O requests stay DOP-invariant by design; the
  // workers only buy wall-clock time.
  std::printf("\n# Fig 4b: parallel Smooth Scan leaf\n");
  std::printf("%-6s %-6s %12s %12s %10s %12s\n", "query", "dop", "total",
              "io_reqs", "wall_ms", "speedup");
  for (const int q : queries) {
    double base_ms = 0.0;
    for (const uint32_t dop : {1u, 8u}) {
      RunMetrics m = MeasureCold(&engine, [&]() -> uint64_t {
        return RunQuery(q, db, PathKind::kSmoothScan, dop)
            .lineitem_stats.tuples_produced;
      });
      m.threads = dop;
      if (dop == 1) base_ms = m.wall_ms;
      std::printf("%-6d %-6u %12.1f %12llu %10.2f %11.2fx\n", q, dop,
                  m.total_time, static_cast<unsigned long long>(m.io_requests),
                  m.wall_ms, m.wall_ms > 0 ? base_ms / m.wall_ms : 0.0);
      char series[48];
      std::snprintf(series, sizeof(series), "Q%d Smooth dop=%u", q, dop);
      bench::RecordRow(series, PaperLineitemSelectivity(q) * 100.0, m);
    }
  }
  bench::CloseJson();
  return 0;
}
