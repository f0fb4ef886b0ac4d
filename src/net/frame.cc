#include "net/frame.h"

#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/parse.h"

namespace smoothscan {
namespace net {
namespace {

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

void AppendU32Le(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t ReadU32Le(const char* p) {
  const auto b = [p](int i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

void AppendFmt(std::string* out, const char* fmt, ...) {
  char buf[64];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
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
  std::string buf(tok);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == buf.c_str()) {
    return Status::InvalidArgument("bad double '" + buf + "'");
  }
  *out = v;
  return Status::OK();
}

/// "v1,v2,..." → out (empty input → no values).
Status ParseI64List(std::string_view s, std::vector<int64_t>* out) {
  while (!s.empty()) {
    const size_t comma = s.find(',');
    std::string_view tok = s.substr(0, comma);
    int64_t v = 0;
    Status st = ParseIntField(tok, &v);
    if (!st.ok()) return st;
    out->push_back(v);
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return Status::OK();
}

}  // namespace

void EncodeFrame(const Frame& frame, std::string* wire) {
  AppendU32Le(static_cast<uint32_t>(frame.payload.size()), wire);
  wire->push_back(static_cast<char>(frame.type));
  wire->append(frame.payload);
}

Status FrameDecoder::Feed(const char* data, size_t n) {
  if (poisoned_) return Status::InvalidArgument("frame stream poisoned");
  buf_.append(data, n);
  // Validate every complete header immediately, even before its payload
  // arrives: a hostile length must be rejected without buffering toward it.
  size_t p = pos_;
  while (buf_.size() - p >= 5) {
    const uint32_t len = ReadU32Le(buf_.data() + p);
    const uint8_t type = static_cast<uint8_t>(buf_[p + 4]);
    if (len > kMaxFramePayload) {
      poisoned_ = true;
      return Status::InvalidArgument("oversized frame payload");
    }
    if (!KnownFrameType(type)) {
      poisoned_ = true;
      return Status::InvalidArgument("unknown frame type");
    }
    if (buf_.size() - p - 5 < len) break;
    p += 5 + len;
  }
  return Status::OK();
}

bool FrameDecoder::Pop(Frame* out) {
  if (poisoned_ || buf_.size() - pos_ < 5) return false;
  const uint32_t len = ReadU32Le(buf_.data() + pos_);
  if (buf_.size() - pos_ - 5 < len) return false;
  out->type = static_cast<FrameType>(buf_[pos_ + 4]);
  out->payload.assign(buf_, pos_ + 5, len);
  pos_ += 5 + len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return true;
}

std::string EncodeTagged(uint64_t tag, std::string_view text) {
  std::string out;
  AppendFmt(&out, "%" PRIu64, tag);
  if (!text.empty()) {
    out.push_back(' ');
    out.append(text);
  }
  return out;
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

std::string EncodeBatchPayload(uint64_t tag, const TupleBatch& batch) {
  std::string out;
  AppendFmt(&out, "%" PRIu64 " ", tag);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i != 0) out.push_back('|');
    const Tuple& row = batch.row(i);
    for (size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out.push_back(',');
      AppendFmt(&out, "%" PRId64, row[c].AsInt64());
    }
  }
  return out;
}

Status ParseBatchPayload(std::string_view payload, uint64_t* tag,
                         std::vector<std::vector<int64_t>>* rows) {
  std::string_view body;
  Status s = ParseTagged(payload, tag, &body);
  if (!s.ok()) return s;
  while (!body.empty()) {
    const size_t bar = body.find('|');
    std::string_view row = body.substr(0, bar);
    rows->emplace_back();
    if (!(s = ParseI64List(row, &rows->back())).ok()) return s;
    if (bar == std::string_view::npos) break;
    body.remove_prefix(bar + 1);
  }
  return Status::OK();
}

std::string EncodeDonePayload(uint64_t tag, const QueryResult& result) {
  const QueryMetrics& m = result.metrics;
  std::string out;
  AppendFmt(&out, "%" PRIu64, tag);
  AppendFmt(&out, " status=%d", static_cast<int>(result.status.code()));
  AppendFmt(&out, " kind=%d", static_cast<int>(m.kind));
  AppendFmt(&out, " lane=%d", static_cast<int>(m.lane));
  AppendFmt(&out, " cancelled=%d", m.cancelled ? 1 : 0);
  AppendFmt(&out, " write=%d", m.write ? 1 : 0);
  AppendFmt(&out, " parallel=%d", m.parallel ? 1 : 0);
  AppendFmt(&out, " tuples=%" PRIu64, m.tuples);
  AppendFmt(&out, " io_requests=%" PRIu64, m.io_requests);
  AppendFmt(&out, " random_ios=%" PRIu64, m.random_ios);
  AppendFmt(&out, " seq_ios=%" PRIu64, m.seq_ios);
  AppendFmt(&out, " pages_read=%" PRIu64, m.pages_read);
  AppendFmt(&out, " mem_peak_bytes=%" PRIu64, m.mem_peak_bytes);
  AppendFmt(&out, " mem_quota_breaches=%" PRIu64, m.mem_quota_breaches);
  // %.17g: shortest-round-trip is overkill, 17 significant digits is the
  // classic sufficient precision for binary64 — these fields are the
  // bit-identical simulated-cost contract crossing the wire.
  AppendFmt(&out, " sim_time=%.17g", m.sim_time);
  AppendFmt(&out, " io_time=%.17g", m.io_time);
  AppendFmt(&out, " cpu_time=%.17g", m.cpu_time);
  AppendFmt(&out, " queue_wait_ms=%.17g", m.queue_wait_ms);
  AppendFmt(&out, " exec_ms=%.17g", m.exec_ms);
  AppendFmt(&out, " latency_ms=%.17g", m.latency_ms);
  if (!result.keys.empty()) {
    out.append(" keys=");
    for (size_t i = 0; i < result.keys.size(); ++i) {
      if (i != 0) out.push_back(',');
      AppendFmt(&out, "%" PRId64, result.keys[i]);
    }
  }
  if (!result.status.message().empty()) {
    // msg= is free text through end-of-payload; must stay the last field.
    out.append(" msg=");
    out.append(result.status.message());
  }
  return out;
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
    double d = 0.0;
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
    } else {
      // Unknown fields are skipped: forward compatibility for added metrics.
      (void)d;
    }
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
