// WireClient: the client half of the frame protocol — submit query text,
// stream result rows, cancel, fetch the server's metrics dump. One client
// drives one connection and is single-threaded by design (the benches run
// one client per simulated tenant thread); multiple queries may be in
// flight on the connection, demultiplexed by tag.
//
// The DONE frame carries the query's full QueryResult with %.17g doubles,
// so WireResult::metrics round-trips the engine's simulated-cost accounting
// bit-identically — the property the wire-vs-direct differential test pins.
//
// A server frame the client cannot parse fails its query with
// kInvalidArgument (every pending query, when even the tag is unreadable):
// a query never completes OK with rows missing, nor waits on a DONE that
// already came and went. BATCH rows are parsed straight into the pending
// query's WireResult::rows.

#ifndef SMOOTHSCAN_NET_WIRE_CLIENT_H_
#define SMOOTHSCAN_NET_WIRE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "net/transport.h"

namespace smoothscan {
namespace net {

/// Everything one query produced over the wire.
struct WireResult {
  /// False when the connection died before the query's DONE arrived, or
  /// the tag named no query in flight; `status` is then kIoError and the
  /// remaining fields are whatever had arrived by then.
  bool complete = false;
  Status status;          ///< The engine's status (or the server's error).
  QueryMetrics metrics;   ///< Bit-identical to the engine's accounting.
  std::vector<std::vector<int64_t>> rows;  ///< Streamed result rows.
  std::vector<int64_t> keys;               ///< KEYS=1 queries.
};

class WireClient {
 public:
  explicit WireClient(std::unique_ptr<Transport> transport)
      : transport_(std::move(transport)) {}
  ~WireClient() { Close(); }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Session setup: tenant lane and outstanding-query window. Fire-and-forget
  /// (the server applies it before any later query on this connection).
  void Hello(const std::string& lane, uint32_t window);

  /// Submits query text (see plan/query_text.h for the grammar); returns the
  /// tag to Wait()/Cancel() on. Does not block on execution.
  uint64_t Submit(const std::string& text);

  /// Requests cancellation of an in-flight query; its Wait() still returns
  /// (with cancelled metrics, or complete results if it won the race).
  void Cancel(uint64_t tag);

  /// Blocks until `tag`'s DONE or ERROR frame arrives (reading and demuxing
  /// frames for other in-flight tags along the way) and returns its result;
  /// a lost connection or an unknown tag returns kIoError, never OK.
  WireResult Wait(uint64_t tag);

  /// The server's metrics dump ("name value" lines); empty without a
  /// registry. Round-trips through the METRICS frame.
  std::string MetricsText();

  /// Shuts the connection down (the server cancels whatever was in flight).
  void Close();

 private:
  /// Reads one transport chunk and dispatches every completed frame. False
  /// on EOF/error.
  bool PumpOnce();
  void Dispatch(const Frame& frame);
  /// Completes `tag`'s pending query with kInvalidArgument, or every
  /// pending query for tag 0 (a connection-level failure, as in ERROR
  /// frames). A query already complete keeps its result.
  void FailPending(uint64_t tag, std::string_view message);

  static constexpr size_t kReadChunk = 64 * 1024;

  std::unique_ptr<Transport> transport_;
  std::unique_ptr<char[]> read_buf_ =
      std::make_unique_for_overwrite<char[]>(kReadChunk);
  FrameDecoder decoder_;
  Frame frame_;  ///< Reused by PumpOnce, so payloads keep their storage.
  uint64_t next_tag_ = 1;
  std::unordered_map<uint64_t, WireResult> pending_;
  std::string metrics_text_;
  bool metrics_ready_ = false;
  bool down_ = false;
};

}  // namespace net
}  // namespace smoothscan

#endif  // SMOOTHSCAN_NET_WIRE_CLIENT_H_
