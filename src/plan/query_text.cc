#include "plan/query_text.h"

#include <cctype>
#include <limits>
#include <utility>

#include "common/parse.h"
#include "net/frame.h"

namespace smoothscan {
namespace {

/// Hand-rolled tokenizer: identifiers/numbers are maximal runs of
/// [A-Za-z0-9_.-]; everything else meaningful is a single-char symbol.
/// Keywords compare case-insensitively; table names are taken verbatim.
struct Lexer {
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Next token, or empty at end of input.
  std::string_view Peek() {
    if (!peeked_) {
      tok_ = Lex();
      peeked_ = true;
    }
    return tok_;
  }
  std::string_view Next() {
    std::string_view t = Peek();
    peeked_ = false;
    return t;
  }
  bool AtEnd() { return Peek().empty(); }

 private:
  std::string_view Lex() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ >= text_.size()) return {};
    const char c = text_[pos_];
    const auto is_word = [](char ch) {
      return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_' ||
             ch == '.';
    };
    // A '-' only glues to a word when it starts a negative number.
    if (is_word(c) ||
        (c == '-' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])) != 0)) {
      size_t begin = pos_++;
      while (pos_ < text_.size() && is_word(text_[pos_])) ++pos_;
      return text_.substr(begin, pos_ - begin);
    }
    // Two-char comparison operators.
    if ((c == '>' || c == '<' || c == '!') && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] == '=') {
      size_t begin = pos_;
      pos_ += 2;
      return text_.substr(begin, 2);
    }
    return text_.substr(pos_++, 1);
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string_view tok_;
  bool peeked_ = false;
};

Status SyntaxError(std::string_view what, std::string_view got) {
  std::string msg = "expected ";
  msg.append(what);
  msg.append(", got '");
  msg.append(got.empty() ? std::string_view("<end>") : got);
  msg.append("'");
  return Status::InvalidArgument(std::move(msg));
}

/// Consumes one keyword (case-insensitive) or fails.
Status Expect(Lexer& lex, std::string_view kw) {
  std::string_view t = lex.Next();
  if (!EqualsIgnoreCase(t, kw)) return SyntaxError(kw, t);
  return Status::OK();
}

Status ParseInt64(std::string_view tok, int64_t* out) {
  if (!ParseInteger(tok, out)) return SyntaxError("integer", tok);
  return Status::OK();
}

Status ParseUInt64(std::string_view tok, uint64_t* out) {
  if (ParseInteger(tok, out)) return Status::OK();
  int64_t negative = 0;
  return SyntaxError(ParseInteger(tok, &negative) ? "non-negative integer"
                                                  : "integer",
                     tok);
}

/// `C<n>` column reference → n.
Status ParseColumnRef(std::string_view tok, int* out) {
  if (tok.size() < 2 ||
      (tok[0] != 'C' && tok[0] != 'c')) {
    return SyntaxError("column reference C<n>", tok);
  }
  int n = 0;
  if (!ParseInteger(tok.substr(1), &n) || n < 0) {
    return SyntaxError("column reference C<n>", tok);
  }
  *out = n;
  return Status::OK();
}

Status ParsePolicy(std::string_view tok, ParsedStatement* stmt) {
  if (EqualsIgnoreCase(tok, "auto")) {
    stmt->use_chooser = true;
    return Status::OK();
  }
  stmt->use_chooser = false;
  if (EqualsIgnoreCase(tok, "full")) {
    stmt->policy = PathKind::kFullScan;
  } else if (EqualsIgnoreCase(tok, "index")) {
    stmt->policy = PathKind::kIndexScan;
  } else if (EqualsIgnoreCase(tok, "sort")) {
    stmt->policy = PathKind::kSortScan;
  } else if (EqualsIgnoreCase(tok, "switch")) {
    stmt->policy = PathKind::kSwitchScan;
  } else if (EqualsIgnoreCase(tok, "smooth")) {
    stmt->policy = PathKind::kSmoothScan;
  } else if (EqualsIgnoreCase(tok, "shared")) {
    stmt->policy = PathKind::kSharedScan;
  } else if (EqualsIgnoreCase(tok, "compressed")) {
    stmt->policy = PathKind::kCompressedScan;
  } else {
    return SyntaxError("POLICY value", tok);
  }
  return Status::OK();
}

/// WITH (K=V, ...) hint list; the paren is already consumed.
Status ParseHints(Lexer& lex, ParsedStatement* stmt) {
  for (;;) {
    std::string_view key = lex.Next();
    Status s = Expect(lex, "=");
    if (!s.ok()) return s;
    std::string_view val = lex.Next();
    if (EqualsIgnoreCase(key, "POLICY")) {
      s = ParsePolicy(val, stmt);
    } else if (EqualsIgnoreCase(key, "DOP")) {
      uint64_t v = 0;
      s = ParseUInt64(val, &v);
      if (s.ok() && v > std::numeric_limits<uint32_t>::max()) {
        s = Status::InvalidArgument("DOP must fit in 32 bits");
      }
      stmt->dop = static_cast<uint32_t>(v);
    } else if (EqualsIgnoreCase(key, "LANE")) {
      stmt->has_lane = true;
      if (EqualsIgnoreCase(val, "batch")) {
        stmt->lane = QueryLane::kBatch;
      } else if (EqualsIgnoreCase(val, "sla")) {
        stmt->lane = QueryLane::kSla;
      } else {
        s = SyntaxError("LANE value (batch|sla)", val);
      }
    } else if (EqualsIgnoreCase(key, "ESTIMATE")) {
      s = ParseUInt64(val, &stmt->estimate);
    } else if (EqualsIgnoreCase(key, "SHARING")) {
      uint64_t v = 0;
      s = ParseUInt64(val, &v);
      stmt->allow_sharing = v != 0;
    } else if (EqualsIgnoreCase(key, "KEYS")) {
      uint64_t v = 0;
      s = ParseUInt64(val, &v);
      stmt->collect_keys = v != 0;
    } else {
      s = SyntaxError("hint key", key);
    }
    if (!s.ok()) return s;
    std::string_view sep = lex.Next();
    if (sep == ")") return Status::OK();
    if (sep != ",") return SyntaxError("',' or ')'", sep);
  }
}

Status ParseSelect(Lexer& lex, ParsedStatement* stmt) {
  stmt->kind = StatementKind::kSelect;
  Status s = Expect(lex, "*");
  if (!s.ok()) return s;
  if (!(s = Expect(lex, "FROM")).ok()) return s;
  std::string_view table = lex.Next();
  if (table.empty()) return SyntaxError("table name", table);
  stmt->table = std::string(table);
  if (!(s = Expect(lex, "WHERE")).ok()) return s;

  int col_lo = 0;
  if (!(s = ParseColumnRef(lex.Next(), &col_lo)).ok()) return s;
  if (!(s = Expect(lex, ">=")).ok()) return s;
  if (!(s = ParseInt64(lex.Next(), &stmt->lo)).ok()) return s;
  if (!(s = Expect(lex, "AND")).ok()) return s;
  int col_hi = 0;
  if (!(s = ParseColumnRef(lex.Next(), &col_hi)).ok()) return s;
  if (col_hi != col_lo) {
    return Status::InvalidArgument(
        "range predicate must bound a single column");
  }
  stmt->column = col_lo;
  if (!(s = Expect(lex, "<")).ok()) return s;
  if (!(s = ParseInt64(lex.Next(), &stmt->hi)).ok()) return s;

  while (!lex.AtEnd()) {
    std::string_view t = lex.Next();
    if (EqualsIgnoreCase(t, "ORDER")) {
      if (!(s = Expect(lex, "BY")).ok()) return s;
      if (!(s = Expect(lex, "KEY")).ok()) return s;
      stmt->need_order = true;
    } else if (EqualsIgnoreCase(t, "WITH")) {
      if (!(s = Expect(lex, "(")).ok()) return s;
      if (!(s = ParseHints(lex, stmt)).ok()) return s;
    } else {
      return SyntaxError("ORDER BY KEY, WITH (...), or end", t);
    }
  }
  return Status::OK();
}

/// `(<v>, <v>, ...)` integer tuple; the open paren is consumed here.
Status ParseValueList(Lexer& lex, std::vector<int64_t>* out) {
  Status s = Expect(lex, "(");
  if (!s.ok()) return s;
  for (;;) {
    int64_t v = 0;
    if (!(s = ParseInt64(lex.Next(), &v)).ok()) return s;
    out->push_back(v);
    std::string_view sep = lex.Next();
    if (sep == ")") return Status::OK();
    if (sep != ",") return SyntaxError("',' or ')'", sep);
  }
}

/// `TID (<page>, <slot>)`; the TID keyword is consumed here.
Status ParseTid(Lexer& lex, Tid* out) {
  Status s = Expect(lex, "TID");
  if (!s.ok()) return s;
  std::vector<int64_t> v;
  if (!(s = ParseValueList(lex, &v)).ok()) return s;
  if (v.size() != 2 || v[0] < 0 ||
      v[0] > std::numeric_limits<PageId>::max() || v[1] < 0 ||
      v[1] > std::numeric_limits<SlotId>::max()) {
    return Status::InvalidArgument("TID wants (page, slot) in range");
  }
  out->page_id = static_cast<PageId>(v[0]);
  out->slot = static_cast<SlotId>(v[1]);
  return Status::OK();
}

/// One write statement; `kw` (INSERT/UPDATE/DELETE) is already consumed.
/// Appends ops and sets/validates the statement's table.
Status ParseWrite(Lexer& lex, std::string_view kw, ParsedStatement* stmt) {
  stmt->kind = StatementKind::kWrite;
  Status s = Status::OK();
  std::string table;
  if (EqualsIgnoreCase(kw, "INSERT")) {
    if (!(s = Expect(lex, "INTO")).ok()) return s;
    table = std::string(lex.Next());
    if (!(s = Expect(lex, "VALUES")).ok()) return s;
    for (;;) {
      ParsedWriteOp op;
      op.kind = WriteOp::Kind::kInsert;
      if (!(s = ParseValueList(lex, &op.values)).ok()) return s;
      stmt->ops.push_back(std::move(op));
      if (lex.Peek() != ",") break;
      lex.Next();
    }
  } else if (EqualsIgnoreCase(kw, "UPDATE")) {
    table = std::string(lex.Next());
    if (!(s = Expect(lex, "SET")).ok()) return s;
    if (!(s = Expect(lex, "ROW")).ok()) return s;
    ParsedWriteOp op;
    op.kind = WriteOp::Kind::kUpdate;
    if (!(s = ParseValueList(lex, &op.values)).ok()) return s;
    if (!(s = Expect(lex, "WHERE")).ok()) return s;
    if (!(s = ParseTid(lex, &op.tid)).ok()) return s;
    stmt->ops.push_back(std::move(op));
  } else if (EqualsIgnoreCase(kw, "DELETE")) {
    if (!(s = Expect(lex, "FROM")).ok()) return s;
    table = std::string(lex.Next());
    if (!(s = Expect(lex, "WHERE")).ok()) return s;
    ParsedWriteOp op;
    op.kind = WriteOp::Kind::kDelete;
    if (!(s = ParseTid(lex, &op.tid)).ok()) return s;
    stmt->ops.push_back(std::move(op));
  } else {
    return SyntaxError("SELECT, INSERT, UPDATE, or DELETE", kw);
  }
  if (table.empty()) return SyntaxError("table name", table);
  if (stmt->table.empty()) {
    stmt->table = std::move(table);
  } else if (stmt->table != table) {
    // One batched write query charges one table's writer; cross-table
    // batches would need two admission records.
    return Status::InvalidArgument(
        "chained write statements must target one table");
  }
  return Status::OK();
}

Tuple MakeTuple(const std::vector<int64_t>& values) {
  Tuple t;
  t.reserve(values.size());
  for (int64_t v : values) t.push_back(Value::Int64(v));
  return t;
}

}  // namespace

Result<ParsedStatement> ParseQueryText(std::string_view text) {
  Lexer lex(text);
  ParsedStatement stmt;
  bool any = false;
  while (!lex.AtEnd()) {
    std::string_view kw = lex.Next();
    if (kw == ";") continue;  // Empty statement / trailing terminator.
    if (EqualsIgnoreCase(kw, "SELECT")) {
      if (any) {
        return Status::InvalidArgument(
            "SELECT cannot be chained with other statements");
      }
      Status s = ParseSelect(lex, &stmt);
      if (!s.ok()) return s;
      if (!lex.AtEnd()) {
        return Status::InvalidArgument(
            "SELECT cannot be chained with other statements");
      }
      return stmt;
    }
    Status s = ParseWrite(lex, kw, &stmt);
    if (!s.ok()) return s;
    any = true;
    if (!lex.AtEnd()) {
      std::string_view sep = lex.Next();
      if (sep != ";") return SyntaxError("';' between statements", sep);
    }
  }
  if (!any) return Status::InvalidArgument("empty query text");
  return stmt;
}

Result<QuerySpec> BindStatement(const QueryCatalog& catalog,
                                const ParsedStatement& stmt) {
  const TableBinding* binding = catalog.Lookup(stmt.table);
  if (binding == nullptr) {
    return Status::InvalidArgument("unknown table '" + stmt.table + "'");
  }
  QuerySpec spec;
  if (stmt.kind == StatementKind::kWrite) {
    if (binding->writer == nullptr) {
      return Status::InvalidArgument("table '" + stmt.table +
                                     "' is read-only (no writer bound)");
    }
    spec.writer = binding->writer;
    spec.index = binding->index;
    for (const ParsedWriteOp& op : stmt.ops) {
      switch (op.kind) {
        case WriteOp::Kind::kInsert:
          spec.write_ops.push_back(WriteOp::MakeInsert(MakeTuple(op.values)));
          break;
        case WriteOp::Kind::kUpdate:
          spec.write_ops.push_back(
              WriteOp::MakeUpdate(op.tid, MakeTuple(op.values)));
          break;
        case WriteOp::Kind::kDelete:
          spec.write_ops.push_back(WriteOp::MakeDelete(op.tid));
          break;
      }
    }
    if (stmt.has_lane) spec.lane = stmt.lane;
    return spec;
  }

  if (binding->index == nullptr) {
    return Status::InvalidArgument("table '" + stmt.table +
                                   "' has no index bound");
  }
  // Rows go back as BATCH frames of integer text, so every column must be
  // INT64 or DATE and a full batch of rows must fit one frame.
  const Schema& schema = binding->index->heap()->schema();
  if (schema.num_columns() > net::kMaxBatchColumns) {
    return Status::InvalidArgument(
        "table '" + stmt.table + "' is too wide for the wire (" +
        std::to_string(schema.num_columns()) + " columns, at most " +
        std::to_string(net::kMaxBatchColumns) + ")");
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ValueType type = schema.column(c).type;
    if (type != ValueType::kInt64 && type != ValueType::kDate) {
      return Status::InvalidArgument("table '" + stmt.table + "' column C" +
                                     std::to_string(c) +
                                     " is not INT64 or DATE");
    }
  }
  // The range column must be a column of the table and, for any policy
  // that may walk the index (the chooser included), the index key itself.
  std::string column = "C";
  column += std::to_string(stmt.column);
  if (stmt.column < 0 ||
      static_cast<size_t>(stmt.column) >= schema.num_columns()) {
    return Status::InvalidArgument("column " + column + " is not in table '" +
                                   stmt.table + "'");
  }
  const bool heap_only_policy =
      !stmt.use_chooser && (stmt.policy == PathKind::kFullScan ||
                            stmt.policy == PathKind::kSharedScan ||
                            stmt.policy == PathKind::kCompressedScan);
  if (!heap_only_policy && stmt.column != binding->index->key_column()) {
    std::string msg = "this POLICY needs a range on the index key column C";
    msg += std::to_string(binding->index->key_column());
    msg += ", not " + column;
    return Status::InvalidArgument(std::move(msg));
  }
  spec.index = binding->index;
  spec.predicate = ScanPredicate{};
  spec.predicate.column = stmt.column;
  spec.predicate.lo = stmt.lo;
  spec.predicate.hi = stmt.hi;
  spec.need_order = stmt.need_order;
  spec.dop = stmt.dop;
  spec.collect_keys = stmt.collect_keys;
  spec.allow_sharing = stmt.allow_sharing;
  spec.estimate = stmt.estimate;
  if (stmt.has_lane) spec.lane = stmt.lane;
  if (stmt.use_chooser) {
    if (binding->stats == nullptr || binding->cost_model == nullptr) {
      return Status::InvalidArgument(
          "POLICY=auto needs statistics and a cost model bound for table '" +
          stmt.table + "'");
    }
    spec.use_chooser = true;
    spec.stats = binding->stats;
    spec.cost_model = binding->cost_model;
  } else {
    spec.use_chooser = false;
    spec.kind = stmt.policy;
  }
  return spec;
}

}  // namespace smoothscan
