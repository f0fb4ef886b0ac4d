// Wire frames of the network front-end: a length-prefixed binary envelope
// around text payloads.
//
//   [u32 LE payload length][u8 frame type][payload bytes]
//
// Client → server: HELLO (session setup), QUERY ("<tag> <query text>" — see
// plan/query_text.h for the grammar), CANCEL ("<tag>"), METRICS (empty).
// Server → client: BATCH ("<tag> r0c0,r0c1|r1c0,..."), DONE ("<tag>
// key=value..." carrying the full QueryResult with %.17g doubles so the
// simulated-cost accounting round-trips bit-identically), ERROR ("<tag>
// <message>"; tag 0 = connection-level), METRICS_TEXT (registry dump).
//
// Server frames are built in place: each Append*Frame builder appends the
// header, the tag and the body to a caller-owned string and patches the
// length last, so a caller that clears and reuses one string per result
// stream encodes a warm stream with no allocation and hands the transport
// the frame with no second copy. Numbers go through std::to_chars and come
// back through std::from_chars, which print exactly what printf's "%" PRId64
// and "%.17g" print: the text format is the one the protocol always had.
//
// The payload cap bounds a connection's buffering; an oversized or
// unrecognized header is unrecoverable framing (the decoder cannot resync a
// byte stream) and closes that connection — the server itself stays up.

#ifndef SMOOTHSCAN_NET_FRAME_H_
#define SMOOTHSCAN_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/tuple_batch.h"
#include "engine/query_engine.h"
#include "net/transport.h"

namespace smoothscan {
namespace net {

enum class FrameType : uint8_t {
  // Client → server.
  kHello = 1,
  kQuery = 2,
  kCancel = 3,
  kMetrics = 4,
  // Server → client.
  kBatch = 16,
  kDone = 17,
  kError = 18,
  kMetricsText = 19,
};

/// Largest accepted payload (1 MiB). Result batches are far smaller; query
/// text larger than this is hostile input.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;
/// The longest decimal int64: a sign and 19 digits. The BATCH encoder
/// reserves this plus a separator per value.
inline constexpr size_t kMaxI64Chars = 20;
/// The widest table whose rows fit one BATCH frame: a tag and a full batch
/// of kDefaultBatchSize rows, every value at its longest, within
/// kMaxFramePayload (48 columns). Reads over wider tables are rejected at
/// bind time.
inline constexpr size_t kMaxBatchColumns =
    (kMaxFramePayload - kMaxI64Chars - 1) /
    (kDefaultBatchSize * (kMaxI64Chars + 1));

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Appends the wire encoding of `frame` to `wire`.
void EncodeFrame(const Frame& frame, std::string* wire);

/// Appends a "<tag> <text>" frame of `type` (ERROR, METRICS_TEXT, QUERY,
/// CANCEL, METRICS) to `wire`.
void AppendTaggedFrame(FrameType type, uint64_t tag, std::string_view text,
                       std::string* wire);
/// Appends a BATCH frame of `batch`'s (all-INT64) rows to `wire`.
void AppendBatchFrame(uint64_t tag, const TupleBatch& batch,
                      std::string* wire);
/// Appends the DONE frame of `result` to `wire`.
void AppendDoneFrame(uint64_t tag, const QueryResult& result,
                     std::string* wire);

/// Incremental decoder over a connection's byte stream. Feed() appends raw
/// bytes and validates each header as soon as it is complete; Pop() yields
/// finished frames. After a Feed() error the decoder is poisoned — the
/// stream cannot be resynchronized.
class FrameDecoder {
 public:
  /// kInvalidArgument on an oversized length or an unknown frame type.
  Status Feed(const char* data, size_t n);
  bool Pop(Frame* out);

  /// Bytes held, consumed prefix included: under two frames plus one read
  /// however the stream's reads fall on frame boundaries (see ByteQueue).
  size_t buffered_bytes() const { return buf_.held(); }

 private:
  ByteQueue buf_;
  bool poisoned_ = false;
};

// --- payload codecs -------------------------------------------------------
// All request/response payloads start with a decimal client-chosen tag.

/// Splits "<tag> <rest>"; rest may be empty.
Status ParseTagged(std::string_view payload, uint64_t* tag,
                   std::string_view* rest);

/// Result rows (all-INT64 tuples), the body after a BATCH payload's tag:
/// "r0c0,r0c1|r1c0,r1c1|...". Appends the rows to `rows`, each reserved to
/// the width of the first; on malformed text (an empty field, a sign other
/// than a leading '-', a stray separator, a value outside int64) returns
/// kInvalidArgument and leaves `rows` as it was.
Status ParseBatchRows(std::string_view body,
                      std::vector<std::vector<int64_t>>* rows);
/// A whole BATCH payload: ParseTagged, then ParseBatchRows on the rest.
Status ParseBatchPayload(std::string_view payload, uint64_t* tag,
                         std::vector<std::vector<int64_t>>* rows);

/// A DONE payload: the full QueryResult as key=value pairs. Doubles are
/// printed with %.17g, so the simulated-cost fields parse back
/// bit-identically — the property the wire-vs-direct differential test pins.
Status ParseDonePayload(std::string_view payload, uint64_t* tag,
                        QueryResult* result);

}  // namespace net
}  // namespace smoothscan

#endif  // SMOOTHSCAN_NET_FRAME_H_
