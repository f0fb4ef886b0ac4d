#include "net/server.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <utility>

#include "obs/metrics.h"

namespace smoothscan {
namespace net {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Server::Server(QueryEngine* engine, const QueryCatalog* catalog,
               ServerOptions options)
    : engine_(engine),
      catalog_(catalog),
      options_(std::move(options)),
      broker_(options_.broker != nullptr ? options_.broker
                                         : engine_->options().broker) {}

Server::~Server() { Stop(); }

void Server::Serve(std::unique_ptr<Transport> transport) {
  latch::LatchGuard lock(mu_);
  if (stopped_) return;  // Late arrival during shutdown: drop it.
  // Reap connections whose reader already finished (their threads are done;
  // join is immediate).
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(kRelaxed)) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  conns_.push_back(std::make_unique<Conn>(engine_, std::move(transport),
                                          options_.session));
  Conn* conn = conns_.back().get();
  conn->lane = options_.session.lane;
  conn->configured_window = options_.session.max_outstanding;
  connections_opened_.fetch_add(1, kRelaxed);
  conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
}

std::unique_ptr<Transport> Server::ConnectPipe() {
  auto [server_end, client_end] = MakePipePair();
  Serve(std::move(server_end));
  return std::move(client_end);
}

bool Server::ListenTcp(uint16_t port) {
  auto listener = TcpListener::Listen(port);
  if (listener == nullptr) return false;
  listener_ = std::move(listener);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

uint16_t Server::tcp_port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

void Server::AcceptLoop() {
  for (;;) {
    std::unique_ptr<Transport> t = listener_->Accept();
    if (t == nullptr) return;  // Listener closed.
    Serve(std::move(t));
  }
}

void Server::Stop() {
  {
    latch::LatchGuard lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (listener_ != nullptr) listener_->Close();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<Conn*> conns;
  {
    latch::LatchGuard lock(mu_);
    for (auto& c : conns_) {
      c->transport->Shutdown();
      conns.push_back(c.get());
    }
  }
  for (Conn* c : conns) {
    if (c->reader.joinable()) c->reader.join();
  }
  latch::LatchGuard lock(mu_);
  conns_.clear();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_opened = connections_opened_.load(kRelaxed);
  s.queries_ok = queries_ok_.load(kRelaxed);
  s.queries_error = queries_error_.load(kRelaxed);
  s.queries_cancelled = queries_cancelled_.load(kRelaxed);
  s.frames_malformed = frames_malformed_.load(kRelaxed);
  s.backpressure_shrinks = backpressure_shrinks_.load(kRelaxed);
  s.window_stalls = closed_window_stalls_.load(kRelaxed);
  latch::LatchGuard lock(mu_);
  for (const auto& c : conns_) {
    if (!c->done.load(kRelaxed)) {
      ++s.connections_active;
      s.window_stalls += c->session.window_stalls();
    }
  }
  return s;
}

void Server::ReaderLoop(Conn* conn) {
  char buf[4096];
  FrameDecoder decoder;
  for (;;) {
    const int n = conn->transport->Read(buf, sizeof buf);
    if (n <= 0) break;  // EOF / shutdown / error.
    Status s = decoder.Feed(buf, static_cast<size_t>(n));
    if (!s.ok()) {
      // Unrecoverable framing (oversized length, unknown type): report and
      // close this connection; the server itself keeps serving.
      frames_malformed_.fetch_add(1, kRelaxed);
      WriteFrame(conn, FrameType::kError, EncodeTagged(0, s.message()));
      break;
    }
    Frame frame;
    while (decoder.Pop(&frame)) HandleFrame(conn, frame);
  }
  TeardownConn(conn);
  conn->done.store(true, kRelaxed);
}

void Server::HandleFrame(Conn* conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      // "LANE=batch|sla WINDOW=n" (either optional; unknown keys ignored).
      std::string_view body = frame.payload;
      while (!body.empty()) {
        const size_t sp = body.find(' ');
        std::string_view tok = body.substr(0, sp);
        const size_t eq = tok.find('=');
        if (eq != std::string_view::npos) {
          std::string_view key = tok.substr(0, eq);
          std::string_view val = tok.substr(eq + 1);
          if (EqualsIgnoreCase(key, "LANE")) {
            conn->lane = EqualsIgnoreCase(val, "sla") ? QueryLane::kSla
                                                      : QueryLane::kBatch;
          } else if (EqualsIgnoreCase(key, "WINDOW")) {
            const int w = std::atoi(std::string(val).c_str());
            if (w >= 1) {
              conn->configured_window = static_cast<uint32_t>(w);
              conn->session.SetWindow(conn->configured_window);
            }
          }
        }
        if (sp == std::string_view::npos) break;
        body.remove_prefix(sp + 1);
      }
      return;
    }
    case FrameType::kQuery: {
      uint64_t tag = 0;
      std::string_view text;
      Status s = ParseTagged(frame.payload, &tag, &text);
      if (!s.ok()) {
        queries_error_.fetch_add(1, kRelaxed);
        WriteFrame(conn, FrameType::kError, EncodeTagged(0, s.message()));
        return;
      }
      HandleQuery(conn, tag, text);
      return;
    }
    case FrameType::kCancel: {
      uint64_t tag = 0;
      std::string_view rest;
      if (!ParseTagged(frame.payload, &tag, &rest).ok()) return;
      std::shared_ptr<QueryHandle> handle;
      {
        latch::LatchGuard lock(conn->mu);
        auto it = conn->active.find(tag);
        if (it != conn->active.end()) handle = it->second;
      }
      // Outside the conn latch: Cancel reaches the engine latch.
      if (handle != nullptr) handle->Cancel();
      return;
    }
    case FrameType::kMetrics: {
      uint64_t tag = 0;
      std::string_view rest;
      if (!ParseTagged(frame.payload, &tag, &rest).ok()) return;
      std::string text;
      obs::MetricsRegistry* registry = engine_->options().metrics;
      if (registry != nullptr) {
        const obs::MetricsSnapshot snap = registry->Snapshot();
        char line[160];
        for (const obs::MetricValue& v : snap.values) {
          const int n = std::snprintf(line, sizeof line, "%s %.17g\n",
                                      v.name.c_str(), v.value);
          if (n > 0) text.append(line, static_cast<size_t>(n));
        }
      }
      WriteFrame(conn, FrameType::kMetricsText, EncodeTagged(tag, text));
      return;
    }
    default:
      // A server-to-client frame type arriving here is client confusion;
      // answer an error and carry on.
      WriteFrame(conn, FrameType::kError,
                 EncodeTagged(0, "unexpected frame type"));
      return;
  }
}

void Server::HandleQuery(Conn* conn, uint64_t tag, std::string_view text) {
  bool duplicate = false;
  {
    // Duplicate live tag: the client could not demux the two streams. Only
    // the reader inserts tags, so the check-then-insert below is race-free.
    latch::LatchGuard lock(conn->mu);
    duplicate = conn->active.count(tag) != 0;
  }
  if (duplicate) {
    queries_error_.fetch_add(1, kRelaxed);
    WriteFrame(conn, FrameType::kError,
               EncodeTagged(tag, "tag already in flight"));
    return;
  }
  Result<ParsedStatement> parsed = ParseQueryText(text);
  if (!parsed.ok()) {
    queries_error_.fetch_add(1, kRelaxed);
    WriteFrame(conn, FrameType::kError,
               EncodeTagged(tag, parsed.status().message()));
    return;
  }
  Result<QuerySpec> bound = BindStatement(*catalog_, *parsed);
  if (!bound.ok()) {
    queries_error_.fetch_add(1, kRelaxed);
    WriteFrame(conn, FrameType::kError,
               EncodeTagged(tag, bound.status().message()));
    return;
  }
  QuerySpec spec = std::move(bound).value();
  if (!parsed->has_lane) spec.lane = conn->lane;
  ApplyBackpressure(conn, spec.lane);
  // Blocks on the session window under backpressure — the client's own
  // pipeline stalls; Session counts the stall.
  QueryHandle h =
      conn->session.Query().FromSpec(std::move(spec)).Stream().Submit();
  auto handle = std::make_shared<QueryHandle>(std::move(h));
  std::list<Drainer> finished;
  {
    latch::LatchGuard lock(conn->mu);
    conn->active[tag] = handle;
    // Reap drainers that finished: their threads are exiting, so the joins
    // below return at once.
    for (auto it = conn->drainers.begin(); it != conn->drainers.end();) {
      auto next = std::next(it);
      if (it->done) finished.splice(finished.end(), conn->drainers, it);
      it = next;
    }
    Drainer* d = &conn->drainers.emplace_back();
    d->thread = std::thread(
        [this, conn, tag, handle, d] { DrainQuery(conn, tag, handle, d); });
  }
  for (Drainer& d : finished) d.thread.join();
}

void Server::DrainQuery(Conn* conn, uint64_t tag,
                        std::shared_ptr<QueryHandle> handle, Drainer* self) {
  TupleBatch batch;
  while (handle->NextBatch(&batch)) {
    if (batch.size() != 0) {
      WriteFrame(conn, FrameType::kBatch, EncodeBatchPayload(tag, batch));
    }
  }
  const QueryResult& result = handle->Wait();
  if (result.metrics.cancelled) {
    queries_cancelled_.fetch_add(1, kRelaxed);
  } else if (result.status.ok()) {
    queries_ok_.fetch_add(1, kRelaxed);
  } else {
    queries_error_.fetch_add(1, kRelaxed);
  }
  WriteFrame(conn, FrameType::kDone, EncodeDonePayload(tag, result));
  latch::LatchGuard lock(conn->mu);
  conn->active.erase(tag);
  self->done = true;
}

void Server::WriteFrame(Conn* conn, FrameType type, std::string payload) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  std::string wire;
  EncodeFrame(frame, &wire);
  latch::LatchGuard lock(conn->write_mu);
  // A down transport drops the frame; the reader notices EOF separately.
  conn->transport->WriteAll(wire.data(), wire.size());
}

void Server::ApplyBackpressure(Conn* conn, QueryLane lane) {
  if (lane == QueryLane::kSla) return;  // The SLA lane is never shrunk.
  const uint32_t cap = engine_->options().max_admitted;
  const bool deep =
      engine_->queue_depth() >
      static_cast<size_t>(options_.backpressure_queue_factor) * cap;
  const bool pressured =
      deep || (broker_ != nullptr && broker_->UnderPressure());
  const uint32_t target = pressured
                              ? std::max(1u, options_.backpressure_window)
                              : conn->configured_window;
  if (conn->session.window() != target) {
    conn->session.SetWindow(target);
    if (pressured) backpressure_shrinks_.fetch_add(1, kRelaxed);
  }
}

void Server::TeardownConn(Conn* conn) {
  // The reader spawned every drainer and has exited its loop, so `active`
  // and `drainers` only shrink from here on.
  std::vector<std::shared_ptr<QueryHandle>> live;
  std::list<Drainer> drainers;
  {
    latch::LatchGuard lock(conn->mu);
    live.reserve(conn->active.size());
    for (auto& [tag, handle] : conn->active) live.push_back(handle);
    drainers.swap(conn->drainers);
  }
  // A dropped connection cancels everything it had in flight (in-queue
  // queries never run; executing ones stop at the next batch boundary).
  for (auto& handle : live) handle->Cancel();
  live.clear();
  for (Drainer& d : drainers) d.thread.join();
  // Both directions down: the peer's next read sees EOF (the close a
  // framing error promised), and late writes fail instead of buffering.
  conn->transport->Shutdown();
  closed_window_stalls_.fetch_add(conn->session.window_stalls(), kRelaxed);
}

}  // namespace net
}  // namespace smoothscan
