#include "net/frame.h"

#include <charconv>
#include <system_error>

#include "common/parse.h"

namespace smoothscan {
namespace net {
namespace {

constexpr size_t kHeaderBytes = 5;

bool KnownFrameType(uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kQuery:
    case FrameType::kCancel:
    case FrameType::kMetrics:
    case FrameType::kBatch:
    case FrameType::kDone:
    case FrameType::kError:
    case FrameType::kMetricsText:
      return true;
  }
  return false;
}

uint32_t ReadU32Le(const char* p) {
  const auto b = [p](int i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

/// Appends a header whose length EndFrame patches once the payload is in;
/// returns the header's offset.
size_t BeginFrame(FrameType type, std::string* wire) {
  const size_t at = wire->size();
  wire->append(4, '\0');
  wire->push_back(static_cast<char>(type));
  return at;
}

void EndFrame(size_t at, std::string* wire) {
  const auto len = static_cast<uint32_t>(wire->size() - at - kHeaderBytes);
  char* p = wire->data() + at;
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((len >> (8 * i)) & 0xff);
}

template <typename T>
void AppendInt(T v, std::string* out) {
  char buf[kMaxI64Chars];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out->append(buf, static_cast<size_t>(r.ptr - buf));
}

template <typename T>
void AppendIntField(std::string_view key, T v, std::string* out) {
  out->append(key);
  AppendInt(v, out);
}

/// %.17g: shortest-round-trip is overkill, 17 significant digits is the
/// classic sufficient precision for binary64 — these fields are the
/// bit-identical simulated-cost contract crossing the wire. to_chars in
/// general format with a precision prints exactly what printf's %.17g does.
void AppendF64Field(std::string_view key, double v, std::string* out) {
  out->append(key);
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out->append(buf, static_cast<size_t>(r.ptr - buf));
}

/// Integer fields: empty, malformed and out-of-range text are all errors.
template <typename T>
Status ParseIntField(std::string_view tok, T* out) {
  if (tok.empty()) return Status::InvalidArgument("empty integer field");
  if (!ParseInteger(tok, out)) {
    return Status::InvalidArgument("bad integer '" + std::string(tok) + "'");
  }
  return Status::OK();
}

Status ParseF64(std::string_view tok, double* out) {
  double v = 0.0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("bad double '" + std::string(tok) + "'");
  }
  *out = v;
  return Status::OK();
}

/// Parses "v,v,...,v" at `p` into `out`, stopping at `end` or at a '|' that
/// follows a value. Returns where it stopped, or null on malformed text.
const char* ParseI64Run(const char* p, const char* end,
                        std::vector<int64_t>* out) {
  for (;;) {
    int64_t v = 0;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) return nullptr;
    out->push_back(v);
    p = next;
    if (p == end || *p == '|') return p;
    if (*p != ',') return nullptr;
    ++p;
  }
}

/// "v1,v2,..." → out (empty input → no values).
Status ParseI64List(std::string_view s, std::vector<int64_t>* out) {
  if (s.empty()) return Status::OK();
  const char* end = s.data() + s.size();
  if (ParseI64Run(s.data(), end, out) != end) {
    return Status::InvalidArgument("bad integer list '" + std::string(s) +
                                   "'");
  }
  return Status::OK();
}

}  // namespace

void EncodeFrame(const Frame& frame, std::string* wire) {
  const size_t at = BeginFrame(frame.type, wire);
  wire->append(frame.payload);
  EndFrame(at, wire);
}

void AppendTaggedFrame(FrameType type, uint64_t tag, std::string_view text,
                       std::string* wire) {
  const size_t at = BeginFrame(type, wire);
  AppendInt(tag, wire);
  if (!text.empty()) {
    wire->push_back(' ');
    wire->append(text);
  }
  EndFrame(at, wire);
}

void AppendBatchFrame(uint64_t tag, const TupleBatch& batch,
                      std::string* wire) {
  const size_t at = BeginFrame(FrameType::kBatch, wire);
  AppendInt(tag, wire);
  wire->push_back(' ');
  // A value prints in at most kMaxI64Chars characters plus a separator.
  // Space is reserved once per batch; each row then grows the string by its
  // bound, prints its values in place and trims back.
  const auto row_bound = [](const Tuple& row) {
    return row.size() * (kMaxI64Chars + 1) + 1;
  };
  if (!batch.empty()) {
    wire->reserve(wire->size() + batch.size() * row_bound(batch.row(0)));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& row = batch.row(i);
    const size_t n = wire->size();
    wire->resize(n + row_bound(row));
    char* const base = wire->data();
    char* p = base + n;
    if (i != 0) *p++ = '|';
    for (size_t c = 0; c < row.size(); ++c) {
      if (c != 0) *p++ = ',';
      p = std::to_chars(p, p + kMaxI64Chars, row[c].AsInt64()).ptr;
    }
    wire->resize(static_cast<size_t>(p - base));
  }
  EndFrame(at, wire);
}

void AppendDoneFrame(uint64_t tag, const QueryResult& result,
                     std::string* wire) {
  const size_t at = BeginFrame(FrameType::kDone, wire);
  const QueryMetrics& m = result.metrics;
  AppendInt(tag, wire);
  AppendIntField(" status=", static_cast<int>(result.status.code()), wire);
  AppendIntField(" kind=", static_cast<int>(m.kind), wire);
  AppendIntField(" lane=", static_cast<int>(m.lane), wire);
  AppendIntField(" cancelled=", m.cancelled ? 1 : 0, wire);
  AppendIntField(" write=", m.write ? 1 : 0, wire);
  AppendIntField(" parallel=", m.parallel ? 1 : 0, wire);
  AppendIntField(" tuples=", m.tuples, wire);
  AppendIntField(" io_requests=", m.io_requests, wire);
  AppendIntField(" random_ios=", m.random_ios, wire);
  AppendIntField(" seq_ios=", m.seq_ios, wire);
  AppendIntField(" pages_read=", m.pages_read, wire);
  AppendIntField(" mem_peak_bytes=", m.mem_peak_bytes, wire);
  AppendIntField(" mem_quota_breaches=", m.mem_quota_breaches, wire);
  AppendF64Field(" sim_time=", m.sim_time, wire);
  AppendF64Field(" io_time=", m.io_time, wire);
  AppendF64Field(" cpu_time=", m.cpu_time, wire);
  AppendF64Field(" queue_wait_ms=", m.queue_wait_ms, wire);
  AppendF64Field(" exec_ms=", m.exec_ms, wire);
  AppendF64Field(" latency_ms=", m.latency_ms, wire);
  if (!result.keys.empty()) {
    wire->append(" keys=");
    for (size_t i = 0; i < result.keys.size(); ++i) {
      if (i != 0) wire->push_back(',');
      AppendInt(result.keys[i], wire);
    }
  }
  if (!result.status.message().empty()) {
    // msg= is free text through end-of-payload; must stay the last field.
    wire->append(" msg=");
    wire->append(result.status.message());
  }
  EndFrame(at, wire);
}

Status FrameDecoder::Feed(const char* data, size_t n) {
  if (poisoned_) return Status::InvalidArgument("frame stream poisoned");
  buf_.Append(data, n);
  // Validate every complete header immediately, even before its payload
  // arrives: a hostile length must be rejected without buffering toward it.
  const char* const base = buf_.unread_data();
  const size_t size = buf_.unread();
  size_t p = 0;
  while (size - p >= kHeaderBytes) {
    const uint32_t len = ReadU32Le(base + p);
    const uint8_t type = static_cast<uint8_t>(base[p + 4]);
    if (len > kMaxFramePayload) {
      poisoned_ = true;
      return Status::InvalidArgument("oversized frame payload");
    }
    if (!KnownFrameType(type)) {
      poisoned_ = true;
      return Status::InvalidArgument("unknown frame type");
    }
    if (size - p - kHeaderBytes < len) break;
    p += kHeaderBytes + len;
  }
  return Status::OK();
}

bool FrameDecoder::Pop(Frame* out) {
  const size_t size = buf_.unread();
  if (poisoned_ || size < kHeaderBytes) return false;
  const char* const base = buf_.unread_data();
  const uint32_t len = ReadU32Le(base);
  if (size - kHeaderBytes < len) return false;
  out->type = static_cast<FrameType>(base[4]);
  out->payload.assign(base + kHeaderBytes, len);
  buf_.Consume(kHeaderBytes + len);
  return true;
}

Status ParseTagged(std::string_view payload, uint64_t* tag,
                   std::string_view* rest) {
  const size_t sp = payload.find(' ');
  std::string_view head =
      sp == std::string_view::npos ? payload : payload.substr(0, sp);
  Status s = ParseIntField(head, tag);
  if (!s.ok()) return s;
  *rest = sp == std::string_view::npos ? std::string_view()
                                       : payload.substr(sp + 1);
  return Status::OK();
}

Status ParseBatchRows(std::string_view body,
                      std::vector<std::vector<int64_t>>* rows) {
  const size_t first = rows->size();
  const char* p = body.data();
  const char* const end = p + body.size();
  size_t width = 0;
  while (p != end) {
    std::vector<int64_t>& row = rows->emplace_back();
    row.reserve(width);
    p = ParseI64Run(p, end, &row);
    // A '|' must be followed by another row.
    if (p != nullptr && p != end && ++p == end) p = nullptr;
    if (p == nullptr) {
      rows->resize(first);
      return Status::InvalidArgument("malformed batch rows");
    }
    if (width == 0) width = row.size();
  }
  return Status::OK();
}

Status ParseBatchPayload(std::string_view payload, uint64_t* tag,
                         std::vector<std::vector<int64_t>>* rows) {
  std::string_view body;
  Status s = ParseTagged(payload, tag, &body);
  if (!s.ok()) return s;
  return ParseBatchRows(body, rows);
}

Status ParseDonePayload(std::string_view payload, uint64_t* tag,
                        QueryResult* result) {
  std::string_view body;
  Status s = ParseTagged(payload, tag, &body);
  if (!s.ok()) return s;
  QueryMetrics& m = result->metrics;
  int status_code = 0;
  std::string message;
  while (!body.empty()) {
    const size_t eq = body.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("done payload field without '='");
    }
    std::string_view key = body.substr(0, eq);
    if (key == "msg") {  // Free text through end-of-payload.
      message = std::string(body.substr(eq + 1));
      break;
    }
    const size_t sp = body.find(' ', eq + 1);
    std::string_view val = body.substr(
        eq + 1, sp == std::string_view::npos ? std::string_view::npos
                                             : sp - eq - 1);
    uint64_t u = 0;
    if (key == "status") {
      if (!(s = ParseIntField(val, &u)).ok()) return s;
      status_code = static_cast<int>(u);
    } else if (key == "kind") {
      if (!(s = ParseIntField(val, &u)).ok()) return s;
      if (u >= static_cast<uint64_t>(kNumPathKinds)) {
        return Status::InvalidArgument("bad path kind");
      }
      m.kind = static_cast<PathKind>(u);
    } else if (key == "lane") {
      if (!(s = ParseIntField(val, &u)).ok()) return s;
      m.lane = u != 0 ? QueryLane::kSla : QueryLane::kBatch;
    } else if (key == "cancelled") {
      if (!(s = ParseIntField(val, &u)).ok()) return s;
      m.cancelled = u != 0;
    } else if (key == "write") {
      if (!(s = ParseIntField(val, &u)).ok()) return s;
      m.write = u != 0;
    } else if (key == "parallel") {
      if (!(s = ParseIntField(val, &u)).ok()) return s;
      m.parallel = u != 0;
    } else if (key == "tuples") {
      if (!(s = ParseIntField(val, &m.tuples)).ok()) return s;
    } else if (key == "io_requests") {
      if (!(s = ParseIntField(val, &m.io_requests)).ok()) return s;
    } else if (key == "random_ios") {
      if (!(s = ParseIntField(val, &m.random_ios)).ok()) return s;
    } else if (key == "seq_ios") {
      if (!(s = ParseIntField(val, &m.seq_ios)).ok()) return s;
    } else if (key == "pages_read") {
      if (!(s = ParseIntField(val, &m.pages_read)).ok()) return s;
    } else if (key == "mem_peak_bytes") {
      if (!(s = ParseIntField(val, &m.mem_peak_bytes)).ok()) return s;
    } else if (key == "mem_quota_breaches") {
      if (!(s = ParseIntField(val, &m.mem_quota_breaches)).ok()) return s;
    } else if (key == "sim_time") {
      if (!(s = ParseF64(val, &m.sim_time)).ok()) return s;
    } else if (key == "io_time") {
      if (!(s = ParseF64(val, &m.io_time)).ok()) return s;
    } else if (key == "cpu_time") {
      if (!(s = ParseF64(val, &m.cpu_time)).ok()) return s;
    } else if (key == "queue_wait_ms") {
      if (!(s = ParseF64(val, &m.queue_wait_ms)).ok()) return s;
    } else if (key == "exec_ms") {
      if (!(s = ParseF64(val, &m.exec_ms)).ok()) return s;
    } else if (key == "latency_ms") {
      if (!(s = ParseF64(val, &m.latency_ms)).ok()) return s;
    } else if (key == "keys") {
      if (!(s = ParseI64List(val, &result->keys)).ok()) return s;
    }
    // Unknown fields are skipped: forward compatibility for added metrics.
    if (sp == std::string_view::npos) break;
    body.remove_prefix(sp + 1);
  }
  result->status = status_code == 0
                       ? Status::OK()
                       : Status(static_cast<StatusCode>(status_code),
                                std::move(message));
  return Status::OK();
}

}  // namespace net
}  // namespace smoothscan
