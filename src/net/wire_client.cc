#include "net/wire_client.h"

#include <cstdio>
#include <string_view>
#include <utility>

namespace smoothscan {
namespace net {
namespace {

void SendTagged(Transport* t, FrameType type, uint64_t tag,
                std::string_view text) {
  std::string wire;
  AppendTaggedFrame(type, tag, text, &wire);
  t->WriteAll(wire.data(), wire.size());
}

}  // namespace

void WireClient::Hello(const std::string& lane, uint32_t window) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "LANE=%s WINDOW=%u", lane.c_str(), window);
  std::string wire;
  EncodeFrame({FrameType::kHello, buf}, &wire);
  transport_->WriteAll(wire.data(), wire.size());
}

uint64_t WireClient::Submit(const std::string& text) {
  const uint64_t tag = next_tag_++;
  pending_[tag];  // Open the accumulator before any frame can arrive.
  SendTagged(transport_.get(), FrameType::kQuery, tag, text);
  return tag;
}

void WireClient::Cancel(uint64_t tag) {
  SendTagged(transport_.get(), FrameType::kCancel, tag, {});
}

WireResult WireClient::Wait(uint64_t tag) {
  WireResult result;
  auto it = pending_.find(tag);
  if (it == pending_.end()) {
    result.status = Status::IoError("no query in flight with this tag");
    return result;
  }
  while (!it->second.complete && !down_) {
    if (!PumpOnce()) down_ = true;
  }
  result = std::move(it->second);
  pending_.erase(it);
  if (!result.complete) {
    result.status = Status::IoError("connection lost before the query's DONE");
  }
  return result;
}

std::string WireClient::MetricsText() {
  metrics_ready_ = false;
  metrics_text_.clear();
  SendTagged(transport_.get(), FrameType::kMetrics, 0, {});
  while (!metrics_ready_ && !down_) {
    if (!PumpOnce()) down_ = true;
  }
  return std::move(metrics_text_);
}

void WireClient::Close() {
  if (transport_ != nullptr) transport_->Shutdown();
}

bool WireClient::PumpOnce() {
  const int n = transport_->Read(read_buf_.get(), kReadChunk);
  if (n <= 0) return false;
  if (!decoder_.Feed(read_buf_.get(), static_cast<size_t>(n)).ok()) {
    return false;
  }
  while (decoder_.Pop(&frame_)) Dispatch(frame_);
  return true;
}

void WireClient::Dispatch(const Frame& frame) {
  uint64_t tag = 0;
  std::string_view body;
  if (!ParseTagged(frame.payload, &tag, &body).ok()) {
    // Unroutable: the frame may have belonged to any pending query.
    FailPending(0, "server frame with an unreadable tag");
    if (frame.type == FrameType::kMetricsText) metrics_ready_ = true;
    return;
  }
  if (frame.type == FrameType::kMetricsText) {
    metrics_text_ = std::string(body);
    metrics_ready_ = true;
    return;
  }
  if (frame.type == FrameType::kError) {
    FailPending(tag, body);  // Tag 0: every in-flight query is dead.
    return;
  }
  auto it = pending_.find(tag);
  if (it == pending_.end() || it->second.complete) return;
  WireResult& r = it->second;
  switch (frame.type) {
    case FrameType::kBatch: {
      const Status s = ParseBatchRows(body, &r.rows);
      if (!s.ok()) FailPending(tag, "BATCH frame: " + s.message());
      return;
    }
    case FrameType::kDone: {
      QueryResult result;
      const Status s = ParseDonePayload(frame.payload, &tag, &result);
      if (!s.ok()) {
        FailPending(tag, "DONE frame: " + s.message());
        return;
      }
      r.complete = true;
      r.status = std::move(result.status);
      r.metrics = result.metrics;
      r.keys = std::move(result.keys);
      return;
    }
    default:
      return;  // Client-to-server type echoed back: ignore.
  }
}

void WireClient::FailPending(uint64_t tag, std::string_view message) {
  const auto fail = [message](WireResult* r) {
    if (r->complete) return;
    r->complete = true;
    r->status = Status::InvalidArgument(std::string(message));
  };
  if (tag != 0) {
    auto it = pending_.find(tag);
    if (it != pending_.end()) fail(&it->second);
    return;
  }
  for (auto& [t, r] : pending_) fail(&r);
}

}  // namespace net
}  // namespace smoothscan
