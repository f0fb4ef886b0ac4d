// Textual query front for the plan layer: the SQL-ish grammar the network
// protocol (src/net/) carries, parsed into a ParsedStatement and bound
// against a QueryCatalog into the engine's internal QuerySpec.
//
// Grammar (keywords case-insensitive, one statement per line; write
// statements may be chained with ';' into one batched write query):
//
//   SELECT * FROM <table> WHERE C<col> >= <lo> AND C<col> < <hi>
//       [ORDER BY KEY]
//       [WITH (POLICY=<auto|full|index|sort|switch|smooth|shared|compressed>,
//              DOP=<n>, LANE=<batch|sla>, ESTIMATE=<n>,
//              SHARING=<0|1>, KEYS=<0|1>)]
//   INSERT INTO <table> VALUES (<v>, ...) [, (<v>, ...)]...
//   UPDATE <table> SET ROW (<v>, ...) WHERE TID (<page>, <slot>)
//   DELETE FROM <table> WHERE TID (<page>, <slot>)
//
// POLICY=auto (the default) runs the cost-based chooser against the bound
// table's statistics — faithfully wrong when they lie, exactly like an
// in-process chooser query. ORDER BY KEY returns the rows in non-decreasing
// order of the predicate column under every policy: Index and Smooth Scan
// keep the index order, and any other plan ends in a posterior sort on that
// column (MakePath), charged to the query. All values are INT64 (the engine's schema
// currency). The parser owns syntax, the binder owns resolution; neither
// touches execution or accounting.

#ifndef SMOOTHSCAN_PLAN_QUERY_TEXT_H_
#define SMOOTHSCAN_PLAN_QUERY_TEXT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/query_engine.h"
#include "plan/access_path_chooser.h"
#include "write/table_writer.h"

namespace smoothscan {

enum class StatementKind { kSelect, kWrite };

/// One parsed mutation (all payloads INT64 columns).
struct ParsedWriteOp {
  WriteOp::Kind kind = WriteOp::Kind::kInsert;
  std::vector<int64_t> values;  ///< Row image (insert/update).
  Tid tid;                      ///< Target (update/delete).
};

/// Parse result: syntax only — table names are unresolved strings until
/// BindStatement.
struct ParsedStatement {
  StatementKind kind = StatementKind::kSelect;
  std::string table;

  // SELECT.
  int column = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  bool need_order = false;
  /// POLICY=auto → cost-based chooser; else the fixed kind below.
  bool use_chooser = true;
  PathKind policy = PathKind::kSmoothScan;
  uint32_t dop = 0;
  bool has_lane = false;  ///< LANE given (else the session default applies).
  QueryLane lane = QueryLane::kBatch;
  uint64_t estimate = 0;
  bool allow_sharing = true;
  bool collect_keys = false;

  // WRITE (possibly several chained statements batched into one query).
  std::vector<ParsedWriteOp> ops;
};

/// Parses one request payload: a single SELECT, or one-or-more ';'-chained
/// write statements on the same table (batched into one ParsedStatement, the
/// unit the engine admits as one write query). kInvalidArgument on any
/// syntax error — the caller (the server) answers with an error frame and
/// keeps the connection.
Result<ParsedStatement> ParseQueryText(std::string_view text);

/// What a table name resolves to. `stats` + `cost_model` enable POLICY=auto;
/// `writer` enables DML.
struct TableBinding {
  const BPlusTree* index = nullptr;
  const TableStats* stats = nullptr;
  const CostModel* cost_model = nullptr;
  TableWriter* writer = nullptr;
};

/// Name → binding map the server owns (register once before serving; lookups
/// are read-only thereafter).
class QueryCatalog {
 public:
  void Register(std::string name, TableBinding binding) {
    tables_[std::move(name)] = binding;
  }
  const TableBinding* Lookup(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<std::string, TableBinding> tables_;
};

/// Resolves a ParsedStatement into the engine's QuerySpec. Errors: unknown
/// table, POLICY=auto without statistics, DML without a writer, a read over
/// a table whose rows a BATCH frame cannot carry (a column other than
/// INT64/DATE, or more than net::kMaxBatchColumns columns).
Result<QuerySpec> BindStatement(const QueryCatalog& catalog,
                                const ParsedStatement& stmt);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_PLAN_QUERY_TEXT_H_
