// The network front-end: a Server accepting Transport connections (TCP or
// in-process pipes), speaking the frame protocol (net/frame.h), parsing
// query text (plan/query_text.h) and running each connection as a Session
// over the QueryEngine — the same client API in-process callers use
// (engine/session.h), so the wire adds transport and nothing else to the
// semantics.
//
// Connection shape: one reader thread per connection decodes frames and
// handles control (HELLO, CANCEL, METRICS) inline; each QUERY is submitted
// through the connection's Session (blocking on its outstanding-query
// window — the client-visible backpressure) and drained to the client by a
// per-query drainer thread (BATCH frames as the executor produces batches,
// one DONE frame with the full result). A drainer builds every frame of its
// stream in place in one buffer it owns (net/frame.h): the first batch
// sizes it, later frames reuse it with no allocation, and each is written
// to the transport from where it was built. The row text is the protocol's
// unchanged "<tag> v,v|v,v" format. Frame writes from concurrent drainers
// are serialized by a per-connection write latch. A drainer marks
// itself done as its last step; the reader joins the done ones before it
// spawns the next, so a long-lived connection holds one thread per query in
// flight, not one per query it ever ran.
//
// Backpressure: before admitting a batch-lane query the server consults the
// engine's queue depth and the memory broker's pressure flag; overloaded, it
// shrinks the connection's session window to 1, so batch clients stall in
// their own submit path while the SLA lane (whose window is never shrunk,
// and which the engine's reserved SLA executors serve) holds its latency
// floor — bench_server_overload pins exactly this.
//
// Cancellation: a CANCEL frame (or the connection dropping — teardown
// cancels every active query) reaches the query's ticket through the
// handle: in-queue queries never run; mid-execution shared-scan consumers
// Detach mid-lap without perturbing their peers' accounting.

#ifndef SMOOTHSCAN_NET_SERVER_H_
#define SMOOTHSCAN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "engine/session.h"
#include "net/frame.h"
#include "net/transport.h"
#include "plan/query_text.h"

namespace smoothscan {
namespace net {

struct ServerOptions {
  /// Per-connection session defaults (lane, outstanding window). HELLO may
  /// override both per connection.
  SessionOptions session;
  /// Overload threshold: the engine's admission queue is "deep" beyond
  /// `backpressure_queue_factor * max_admitted` queued queries.
  uint32_t backpressure_queue_factor = 2;
};

/// Monotonic server counters (snapshot; individually relaxed).
struct ServerStats {
  uint64_t connections_opened = 0;
  uint64_t connections_active = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_error = 0;     ///< Parse/bind rejections + failed queries.
  uint64_t queries_cancelled = 0;
  uint64_t frames_malformed = 0;  ///< Framing errors (connection closed).
  uint64_t backpressure_shrinks = 0;  ///< Times a window was shrunk.
  uint64_t window_stalls = 0;  ///< Session submits that blocked on a window.
};

class Server {
 public:
  /// `catalog` resolves table names in query text; borrowed, must outlive
  /// the server (as must the engine).
  Server(QueryEngine* engine, const QueryCatalog* catalog,
         ServerOptions options = {});
  ~Server();  ///< Stop() + join everything.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adopts a connected transport endpoint and serves it (spawns the
  /// connection's reader thread).
  void Serve(std::unique_ptr<Transport> transport);

  /// In-process client: creates a pipe pair, serves one end, returns the
  /// other (the shape every test and bench uses — no ports).
  std::unique_ptr<Transport> ConnectPipe();

  /// TCP front: binds 127.0.0.1:`port` (0 = ephemeral) and accepts in a
  /// background thread. False on bind failure.
  bool ListenTcp(uint16_t port);
  /// Bound port (valid after ListenTcp succeeded).
  uint16_t tcp_port() const;

  /// Shuts every connection down and joins all threads. Idempotent; the
  /// destructor calls it.
  void Stop();

  ServerStats stats() const;

 private:
  /// A per-query drainer thread. `done` (guarded by the owning Conn::mu) is
  /// set by the drainer as its last step; only the reader touches `thread`.
  struct Drainer {
    std::thread thread;
    bool done = false;
  };

  /// One connection: transport + session + active-query registry.
  struct Conn {
    explicit Conn(QueryEngine* engine, std::unique_ptr<Transport> t,
                  const SessionOptions& session_options)
        : transport(std::move(t)), session(engine, session_options) {}

    std::unique_ptr<Transport> transport;
    Session session;
    /// The connection's default lane (HELLO may change it).
    QueryLane lane = QueryLane::kBatch;
    /// The window HELLO configured (restored when backpressure lifts).
    uint32_t configured_window = 0;

    /// Serializes whole frames onto the transport (drainers interleave).
    latch::Latch write_mu{latch::LatchRank::kNetWrite,
                          "net::Conn::write_mu"};
    /// Tag → live handle, plus the drainer threads not yet joined (a list:
    /// each drainer holds its own node's address).
    latch::Latch mu{latch::LatchRank::kNetConn, "net::Conn::mu"};
    std::unordered_map<uint64_t, std::shared_ptr<QueryHandle>> active
        GUARDED_BY(mu);
    std::list<Drainer> drainers GUARDED_BY(mu);
    std::thread reader;
    std::atomic<bool> done{false};  ///< Reader finished; conn reapable.
  };

  void ReaderLoop(Conn* conn);
  void HandleFrame(Conn* conn, const Frame& frame);
  void HandleQuery(Conn* conn, uint64_t tag, std::string_view text);
  void DrainQuery(Conn* conn, uint64_t tag,
                  std::shared_ptr<QueryHandle> handle, Drainer* self);
  /// Writes whole frames, built by the frame.h builders, as one unit.
  void WriteWire(Conn* conn, const std::string& wire);
  /// Builds a "<tag> <text>" frame (ERROR, METRICS_TEXT) and writes it.
  void WriteTagged(Conn* conn, FrameType type, uint64_t tag,
                   std::string_view text);
  /// Applies the overload policy to a batch-lane submit (see file comment).
  void ApplyBackpressure(Conn* conn, QueryLane lane);
  /// Cancels every active query, joins the drainers, accumulates the
  /// session's stall count. Runs on the reader thread as it exits.
  void TeardownConn(Conn* conn);
  void AcceptLoop();

  QueryEngine* const engine_;
  const QueryCatalog* const catalog_;
  const ServerOptions options_;

  mutable latch::Latch mu_{latch::LatchRank::kNetListener,
                           "net::Server::mu_"};
  std::list<std::unique_ptr<Conn>> conns_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = false;
  std::unique_ptr<TcpListener> listener_;  ///< Set before the acceptor runs.
  std::thread acceptor_;

  // Counters (relaxed; exact enough for stats()).
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_error_{0};
  std::atomic<uint64_t> queries_cancelled_{0};
  std::atomic<uint64_t> frames_malformed_{0};
  std::atomic<uint64_t> backpressure_shrinks_{0};
  std::atomic<uint64_t> closed_window_stalls_{0};
};

}  // namespace net
}  // namespace smoothscan

#endif  // SMOOTHSCAN_NET_SERVER_H_
