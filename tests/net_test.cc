// Network front-end testing: the frame codec (round-trip, including the
// %.17g DONE payload that carries simulated-cost accounting bit-identically;
// BATCH and DONE bytes pinned to the printf text the protocol always had;
// malformed rows rejected whole), decoder hostility (oversized/unknown/
// truncated frames close only the offending connection) and its bounded
// buffer, the pipe's bounded buffer behind a lagging reader, reads the wire
// cannot carry rejected at bind time, client demux of malformed server
// frames (the query fails, never completes short or hangs), session-window
// backpressure made visible in server stats, wire cancellation detaching a
// shared-scan consumer without perturbing its peers' bit-identical
// accounting, and — the API-redesign invariant — a wire-vs-direct
// differential: every query submitted as text through a server connection
// reports exactly the simulated cost of the same QuerySpec run directly,
// reads and writes, across admission caps 1/2/8.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "engine/session.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire_client.h"
#include "plan/query_text.h"
#include "sharing/scan_sharing.h"
#include "workload/workload_driver.h"
#include "write/table_writer.h"

namespace smoothscan {
namespace net {
namespace {

/// The payload of the one frame a builder appended to an empty `wire`.
std::string PayloadOf(const std::string& wire) { return wire.substr(5); }

std::string DonePayload(uint64_t tag, const QueryResult& result) {
  std::string wire;
  AppendDoneFrame(tag, result, &wire);
  return PayloadOf(wire);
}

// ----------------------------------------------------------- frame codec

TEST(FrameCodecTest, RoundTripsThroughByteDribble) {
  // Several frames, fed to the decoder one byte at a time — the harshest
  // fragmentation a stream transport can produce.
  std::string wire;
  EncodeFrame({FrameType::kHello, "LANE=sla WINDOW=3"}, &wire);
  AppendTaggedFrame(FrameType::kQuery, 42, "SELECT * FROM t", &wire);
  EncodeFrame({FrameType::kBatch, "7 1,2|3,4"}, &wire);
  EncodeFrame({FrameType::kDone, ""}, &wire);  // Empty payload is legal.

  FrameDecoder decoder;
  std::vector<Frame> out;
  for (char c : wire) {
    ASSERT_TRUE(decoder.Feed(&c, 1).ok());
    Frame f;
    while (decoder.Pop(&f)) out.push_back(f);
  }
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].type, FrameType::kHello);
  EXPECT_EQ(out[0].payload, "LANE=sla WINDOW=3");
  EXPECT_EQ(out[1].type, FrameType::kQuery);
  uint64_t tag = 0;
  std::string_view rest;
  ASSERT_TRUE(ParseTagged(out[1].payload, &tag, &rest).ok());
  EXPECT_EQ(tag, 42u);
  EXPECT_EQ(rest, "SELECT * FROM t");
  std::vector<std::vector<int64_t>> rows;
  ASSERT_TRUE(ParseBatchPayload(out[2].payload, &tag, &rows).ok());
  EXPECT_EQ(tag, 7u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(rows[1], (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(out[3].payload, "");
}

TEST(FrameCodecTest, DonePayloadRoundTripsBitIdentically) {
  // Doubles with no short decimal form: %.17g must reproduce them exactly.
  QueryResult result;
  result.status = Status::Cancelled("stopped mid-lap");
  result.metrics.sim_time = 1.0 / 3.0 * 12345.0;
  result.metrics.io_time = std::sqrt(2.0) * 100.0;
  result.metrics.cpu_time = 0.1 + 0.2;  // The classic non-representable sum.
  result.metrics.queue_wait_ms = 1e-9;
  result.metrics.exec_ms = 17.125;
  result.metrics.latency_ms = 1.0 / 7.0;
  result.metrics.io_requests = 123;
  result.metrics.random_ios = 45;
  result.metrics.seq_ios = 78;
  result.metrics.pages_read = 901;
  result.metrics.tuples = 23456;
  result.metrics.mem_peak_bytes = 1u << 20;
  result.metrics.mem_quota_breaches = 3;
  result.metrics.kind = PathKind::kSmoothScan;
  result.metrics.lane = QueryLane::kSla;
  result.metrics.parallel = true;
  result.metrics.cancelled = true;
  result.keys = {-5, 0, 7, 7, 123456789};

  const std::string payload = DonePayload(99, result);
  uint64_t tag = 0;
  QueryResult back;
  ASSERT_TRUE(ParseDonePayload(payload, &tag, &back).ok());
  EXPECT_EQ(tag, 99u);
  EXPECT_EQ(back.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(back.status.message(), "stopped mid-lap");
  EXPECT_EQ(back.metrics.sim_time, result.metrics.sim_time);  // Exact.
  EXPECT_EQ(back.metrics.io_time, result.metrics.io_time);
  EXPECT_EQ(back.metrics.cpu_time, result.metrics.cpu_time);
  EXPECT_EQ(back.metrics.queue_wait_ms, result.metrics.queue_wait_ms);
  EXPECT_EQ(back.metrics.exec_ms, result.metrics.exec_ms);
  EXPECT_EQ(back.metrics.latency_ms, result.metrics.latency_ms);
  EXPECT_EQ(back.metrics.io_requests, result.metrics.io_requests);
  EXPECT_EQ(back.metrics.random_ios, result.metrics.random_ios);
  EXPECT_EQ(back.metrics.seq_ios, result.metrics.seq_ios);
  EXPECT_EQ(back.metrics.pages_read, result.metrics.pages_read);
  EXPECT_EQ(back.metrics.tuples, result.metrics.tuples);
  EXPECT_EQ(back.metrics.mem_peak_bytes, result.metrics.mem_peak_bytes);
  EXPECT_EQ(back.metrics.mem_quota_breaches,
            result.metrics.mem_quota_breaches);
  EXPECT_EQ(back.metrics.kind, PathKind::kSmoothScan);
  EXPECT_EQ(back.metrics.lane, QueryLane::kSla);
  EXPECT_TRUE(back.metrics.parallel);
  EXPECT_TRUE(back.metrics.cancelled);
  EXPECT_EQ(back.keys, result.keys);
}

TEST(FrameCodecTest, DecoderPoisonsOnHostileHeaders) {
  {
    // Oversized declared length: rejected as soon as the header completes,
    // before any payload is buffered.
    FrameDecoder decoder;
    std::string header;
    const uint32_t huge = kMaxFramePayload + 1;
    header.append(reinterpret_cast<const char*>(&huge), 4);
    header.push_back(static_cast<char>(FrameType::kQuery));
    EXPECT_FALSE(decoder.Feed(header.data(), header.size()).ok());
    Frame f;
    EXPECT_FALSE(decoder.Pop(&f));  // Poisoned: nothing ever pops again.
  }
  {
    // Unknown frame type: a stream this far out of sync cannot be resynced.
    FrameDecoder decoder;
    std::string wire;
    EncodeFrame({FrameType::kQuery, "x"}, &wire);
    wire[4] = 99;  // Corrupt the type byte.
    EXPECT_FALSE(decoder.Feed(wire.data(), wire.size()).ok());
  }
  {
    // A truncated frame is not an error — just an incomplete stream.
    FrameDecoder decoder;
    std::string wire;
    AppendTaggedFrame(FrameType::kQuery, 1, "SELECT", &wire);
    ASSERT_TRUE(decoder.Feed(wire.data(), wire.size() - 3).ok());
    Frame f;
    EXPECT_FALSE(decoder.Pop(&f));
    ASSERT_TRUE(decoder.Feed(wire.data() + wire.size() - 3, 3).ok());
    EXPECT_TRUE(decoder.Pop(&f));
  }
}

/// The BATCH frame as the protocol has always printed it: a per-value
/// snprintf("%" PRId64) after a "%" PRIu64 " " tag, wrapped in the header.
std::string PrintfBatchFrame(uint64_t tag,
                             const std::vector<std::vector<int64_t>>& rows) {
  char buf[32];
  std::string payload;
  std::snprintf(buf, sizeof buf, "%" PRIu64 " ", tag);
  payload += buf;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) payload.push_back('|');
    for (size_t c = 0; c < rows[i].size(); ++c) {
      if (c != 0) payload.push_back(',');
      std::snprintf(buf, sizeof buf, "%" PRId64, rows[i][c]);
      payload += buf;
    }
  }
  std::string wire;
  const auto len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<char>(len >> (8 * i)));
  wire.push_back(static_cast<char>(FrameType::kBatch));
  return wire + payload;
}

TEST(FrameCodecTest, BatchFrameBytesMatchThePrintfFormat) {
  // Seeded rows whose values span every decimal length and both signs,
  // with INT64_MIN and INT64_MAX in every batch: the to_chars encoder must
  // print exactly what snprintf printed, and the parser must read it back.
  Rng rng(2718);
  for (const size_t rows : {size_t{0}, size_t{1}, size_t{1024}}) {
    for (size_t width = 1; width <= 16; ++width) {
      std::vector<std::vector<int64_t>> want(rows,
                                             std::vector<int64_t>(width));
      TupleBatch batch;
      for (size_t i = 0; i < rows; ++i) {
        Tuple* slot = batch.AppendSlot();
        slot->resize(width);
        for (size_t c = 0; c < width; ++c) {
          const uint64_t bits = rng.Next() >> rng.UniformInt(1, 63);
          int64_t v = static_cast<int64_t>(bits);
          if (rng.Bernoulli(0.5)) v = -v;
          if ((i + c) % 97 == 0) v = INT64_MIN;
          if ((i + c) % 89 == 1) v = INT64_MAX;
          want[i][c] = v;
          (*slot)[c] = Value::Int64(v);
        }
      }
      const uint64_t tag = rng.Next();
      std::string wire = "prefix";  // The builder appends.
      AppendBatchFrame(tag, batch, &wire);
      const std::string label =
          std::to_string(rows) + " rows x " + std::to_string(width);
      ASSERT_EQ(wire, "prefix" + PrintfBatchFrame(tag, want)) << label;

      FrameDecoder decoder;
      ASSERT_TRUE(decoder.Feed(wire.data() + 6, wire.size() - 6).ok());
      Frame f;
      ASSERT_TRUE(decoder.Pop(&f)) << label;
      uint64_t back_tag = 0;
      std::vector<std::vector<int64_t>> back;
      ASSERT_TRUE(ParseBatchPayload(f.payload, &back_tag, &back).ok())
          << label;
      EXPECT_EQ(back_tag, tag) << label;
      EXPECT_EQ(back, want) << label;
    }
  }
}

TEST(FrameCodecTest, DoneDoublesMatchThePrintfFormat) {
  // The DONE payload's doubles are printed by to_chars; pin them to the
  // %.17g text the protocol carried before, over seeded bit patterns.
  Rng rng(31415);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng.Next();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (!std::isfinite(d)) continue;
    if (i % 2 == 0) d = rng.UniformDouble(0.0, 1e6);  // Cost-like magnitudes.
    QueryResult result;
    result.metrics.sim_time = d;
    const std::string payload = DonePayload(1, result);
    const size_t at = payload.find(" sim_time=") + 10;
    const std::string printed =
        payload.substr(at, payload.find(' ', at) - at);
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", d);
    ASSERT_EQ(printed, want);
  }
}

TEST(FrameCodecTest, MalformedBatchRowsFailAndAppendNothing) {
  for (const char* body :
       {"1,,2", "1,2,", "1,2|", "1,2|3,4|", "+5", " 5", "5 ", "1|,2", "|1",
        ",1", "1;2", "-", "9223372036854775808", "-9223372036854775809",
        "1,2|3,x"}) {
    std::vector<std::vector<int64_t>> rows = {{7, 8}};
    EXPECT_FALSE(ParseBatchRows(body, &rows).ok()) << "'" << body << "'";
    EXPECT_EQ(rows, (std::vector<std::vector<int64_t>>{{7, 8}}))
        << "'" << body << "'";
    uint64_t tag = 0;
    EXPECT_FALSE(
        ParseBatchPayload(std::string("3 ") + body, &tag, &rows).ok())
        << "'" << body << "'";
    EXPECT_EQ(rows.size(), 1u) << "'" << body << "'";
  }
  // The extremes themselves are fine, and an empty body is zero rows.
  std::vector<std::vector<int64_t>> rows;
  ASSERT_TRUE(
      ParseBatchRows("-9223372036854775808,9223372036854775807|0", &rows)
          .ok());
  EXPECT_EQ(rows, (std::vector<std::vector<int64_t>>{
                      {INT64_MIN, INT64_MAX}, {0}}));
  ASSERT_TRUE(ParseBatchRows("", &rows).ok());
  EXPECT_EQ(rows.size(), 2u);
}

TEST(FrameCodecTest, DecoderBufferStaysUnderTwoFramesAndAChunk) {
  // 1,000 frames of seeded sizes, fed in 4,093-byte chunks, so the reads
  // almost never end on a frame boundary. The consumed prefix must not pile
  // up: the decoder holds at most two frames plus one chunk at any time.
  constexpr size_t kChunk = 4093;
  Rng rng(99);
  std::string wire;
  std::vector<std::string> payloads;
  size_t max_frame = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string frame;
    AppendTaggedFrame(FrameType::kBatch, i,
                      std::string(rng.UniformInt(1, 3000), 'a' + i % 26),
                      &frame);
    payloads.push_back(PayloadOf(frame));
    wire += frame;
    max_frame = std::max(max_frame, frame.size());
  }
  FrameDecoder decoder;
  size_t popped = 0;
  size_t peak = 0;
  for (size_t at = 0; at < wire.size(); at += kChunk) {
    const size_t n = std::min(kChunk, wire.size() - at);
    ASSERT_TRUE(decoder.Feed(wire.data() + at, n).ok());
    peak = std::max(peak, decoder.buffered_bytes());
    Frame f;
    while (decoder.Pop(&f)) {
      ASSERT_LT(popped, payloads.size());
      ASSERT_EQ(f.payload, payloads[popped]) << popped;
      ++popped;
    }
  }
  EXPECT_EQ(popped, payloads.size());
  EXPECT_LT(peak, 2 * max_frame + kChunk);
}

TEST(PipeTest, LaggingReaderHoldsUnderTwoWritesAndARead) {
  // A writer of 80 KB frames ahead of a reader that takes only whole 64 KiB
  // chunks, so the reader lags and almost never drains the pipe exactly
  // (the sizes line up once every 512 writes). The pipe's queue must drop
  // what was read, not hold every byte since the reader last caught up.
  constexpr size_t kWrite = 80000;
  constexpr size_t kRead = 64 * 1024;
  constexpr int kWrites = 200;
  std::string frame(kWrite, '\0');
  for (size_t i = 0; i < kWrite; ++i) frame[i] = static_cast<char>(i * 7);

  ByteQueue queue;  // One direction of a pipe, as PipeCore holds it.
  size_t peak = 0;
  for (int w = 0; w < kWrites; ++w) {
    queue.Append(frame.data(), frame.size());
    peak = std::max(peak, queue.held());
    while (queue.unread() >= kRead) queue.Consume(kRead);
  }
  EXPECT_LT(peak, 2 * kWrite + kRead);

  // The same stream through a pipe pair arrives whole and in order.
  auto [writer, reader] = MakePipePair();
  std::vector<char> chunk(kRead);
  size_t unread = 0;
  size_t read_total = 0;
  for (int w = 0; w < kWrites; ++w) {
    ASSERT_TRUE(writer->WriteAll(frame.data(), frame.size()));
    unread += kWrite;
    while (unread >= kRead) {
      size_t got = 0;
      while (got < kRead) {
        const int n = reader->Read(chunk.data() + got, kRead - got);
        ASSERT_GT(n, 0);
        got += static_cast<size_t>(n);
      }
      bool same = true;
      for (size_t i = 0; i < kRead; ++i) {
        same &= chunk[i] == frame[(read_total + i) % kWrite];
      }
      ASSERT_TRUE(same) << read_total;
      read_total += kRead;
      unread -= kRead;
    }
  }
}

// ----------------------------------------------------------- client demux

/// A WireClient whose server end is driven by hand: the test writes
/// frames to `peer` and reads none of the client's.
struct HandFedClient {
  HandFedClient() {
    auto [client_end, server_end] = MakePipePair();
    peer = std::move(server_end);
    client = std::make_unique<WireClient>(std::move(client_end));
  }

  void Send(FrameType type, const std::string& payload) {
    std::string wire;
    EncodeFrame({type, payload}, &wire);
    ASSERT_TRUE(peer->WriteAll(wire.data(), wire.size()));
  }

  std::string Done(uint64_t tag, uint64_t tuples) {
    QueryResult result;
    result.metrics.tuples = tuples;
    return DonePayload(tag, result);
  }

  std::unique_ptr<Transport> peer;
  std::unique_ptr<WireClient> client;
};

TEST(WireClientTest, MalformedBatchFailsItsQueryDespiteALaterDone) {
  // A good BATCH, a malformed one, then an OK DONE: the query must fail
  // with the good frame's rows only, not complete OK with rows missing.
  HandFedClient h;
  const uint64_t tag = h.client->Submit("SELECT * FROM t");
  const uint64_t other = h.client->Submit("SELECT * FROM t");
  h.Send(FrameType::kBatch, std::to_string(tag) + " 1,2|3,4");
  h.Send(FrameType::kBatch, std::to_string(tag) + " 5,6|7,");
  h.Send(FrameType::kBatch, std::to_string(other) + " 9,9");
  h.Send(FrameType::kDone, h.Done(tag, 4));
  h.Send(FrameType::kDone, h.Done(other, 1));
  const WireResult r = h.client->Wait(tag);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.rows, (std::vector<std::vector<int64_t>>{{1, 2}, {3, 4}}));
  // The other query on the connection is untouched.
  const WireResult o = h.client->Wait(other);
  EXPECT_TRUE(o.complete);
  EXPECT_TRUE(o.status.ok());
  EXPECT_EQ(o.rows, (std::vector<std::vector<int64_t>>{{9, 9}}));
}

TEST(WireClientTest, MalformedDoneFailsItsQueryWithoutWaitingForEof) {
  // The DONE cannot be parsed. Its query must fail from that frame: the
  // peer then shuts down, so a client that ignored the frame would see
  // only EOF and return an incomplete result instead.
  HandFedClient h;
  const uint64_t tag = h.client->Submit("SELECT * FROM t");
  h.Send(FrameType::kBatch, std::to_string(tag) + " 1,2");
  h.Send(FrameType::kDone, std::to_string(tag) + " status=0 tuples=x");
  h.peer->Shutdown();
  const WireResult r = h.client->Wait(tag);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(WireClientTest, UnreadableTagFailsEveryPendingQuery) {
  for (const FrameType type : {FrameType::kBatch, FrameType::kDone}) {
    HandFedClient h;
    const uint64_t a = h.client->Submit("SELECT * FROM t");
    const uint64_t b = h.client->Submit("SELECT * FROM t");
    h.Send(type, "x1 1,2");
    h.peer->Shutdown();
    for (const uint64_t tag : {a, b}) {
      const WireResult r = h.client->Wait(tag);
      EXPECT_TRUE(r.complete) << static_cast<int>(type) << " tag " << tag;
      EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
          << static_cast<int>(type) << " tag " << tag;
      EXPECT_TRUE(r.rows.empty());
    }
  }
}

TEST(WireClientTest, ConnectionLostBeforeDoneIsAnIoError) {
  // One BATCH, then the server end closes: the query never completed, and
  // a caller testing only the status must not read it as a success.
  HandFedClient h;
  const uint64_t tag = h.client->Submit("SELECT * FROM t");
  h.Send(FrameType::kBatch, std::to_string(tag) + " 1,2");
  h.peer->Shutdown();
  const WireResult r = h.client->Wait(tag);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.status.code(), StatusCode::kIoError) << r.status.ToString();
  EXPECT_EQ(r.rows, (std::vector<std::vector<int64_t>>{{1, 2}}));
}

TEST(WireClientTest, WaitOnAnUnknownTagIsAnIoError) {
  HandFedClient h;
  const WireResult r = h.client->Wait(41);  // Never submitted.
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.status.code(), StatusCode::kIoError) << r.status.ToString();
}

// ----------------------------------------------------------- server fixture

/// One engine + micro-bench table + catalog + server, the seed fixed so two
/// fixtures are bit-identical worlds (the differential tests build several).
struct ServedDb {
  explicit ServedDb(uint32_t max_admitted, ServerOptions options = {},
                    bool with_writes = false) {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    engine = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 4000;
    spec.seed = 17;
    db = std::make_unique<MicroBenchDb>(engine.get(), spec);

    QueryEngineOptions qeo;
    qeo.max_admitted = max_admitted;
    if (with_writes) {
      versions = std::make_unique<TableVersionRegistry>(engine.get());
      writer = std::make_unique<TableWriter>(
          db->mutable_heap(), std::vector<BPlusTree*>{db->mutable_index()},
          versions.get());
      qeo.versions = versions.get();
    }
    qe = std::make_unique<QueryEngine>(engine.get(), qeo);

    TableBinding binding;
    binding.index = &db->index();
    if (with_writes) binding.writer = writer.get();
    catalog.Register("t", binding);
    server = std::make_unique<Server>(qe.get(), &catalog, options);
  }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<MicroBenchDb> db;
  std::unique_ptr<TableVersionRegistry> versions;
  std::unique_ptr<TableWriter> writer;
  std::unique_ptr<QueryEngine> qe;
  QueryCatalog catalog;
  std::unique_ptr<Server> server;
};

std::string SelectText(const ScanPredicate& pred, const char* policy,
                       uint64_t estimate) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "SELECT * FROM t WHERE C%d >= %lld AND C%d < %lld "
                "WITH (POLICY=%s, ESTIMATE=%llu, KEYS=1)",
                pred.column, static_cast<long long>(pred.lo), pred.column,
                static_cast<long long>(pred.hi), policy,
                static_cast<unsigned long long>(estimate));
  return buf;
}

void ExpectWireMatchesDirect(const QueryMetrics& direct, const WireResult& w,
                             const std::string& label) {
  ASSERT_TRUE(w.complete) << label;
  ASSERT_TRUE(w.status.ok()) << label << ": " << w.status.ToString();
  EXPECT_EQ(direct.sim_time, w.metrics.sim_time) << label;  // Exact.
  EXPECT_EQ(direct.io_time, w.metrics.io_time) << label;
  EXPECT_EQ(direct.cpu_time, w.metrics.cpu_time) << label;
  EXPECT_EQ(direct.io_requests, w.metrics.io_requests) << label;
  EXPECT_EQ(direct.random_ios, w.metrics.random_ios) << label;
  EXPECT_EQ(direct.seq_ios, w.metrics.seq_ios) << label;
  EXPECT_EQ(direct.pages_read, w.metrics.pages_read) << label;
  EXPECT_EQ(direct.tuples, w.metrics.tuples) << label;
  EXPECT_EQ(direct.kind, w.metrics.kind) << label;
}

// ----------------------------------------------------------- server behavior

TEST(NetServerTest, HostileConnectionClosesAloneServerKeepsServing) {
  ServedDb world(/*max_admitted=*/2);

  // A well-behaved client on connection 1...
  WireClient good(world.server->ConnectPipe());
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.01);
  WireResult r = good.Wait(good.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  const uint64_t tuples_before = r.metrics.tuples;
  EXPECT_GT(tuples_before, 0u);

  // ...and a hostile byte stream on connection 2: an oversized header.
  std::unique_ptr<Transport> evil = world.server->ConnectPipe();
  std::string garbage;
  const uint32_t huge = kMaxFramePayload + 7;
  garbage.append(reinterpret_cast<const char*>(&huge), 4);
  garbage.push_back(static_cast<char>(FrameType::kQuery));
  ASSERT_TRUE(evil->WriteAll(garbage.data(), garbage.size()));
  // The server closes that connection: the next read sees EOF.
  char byte;
  int n;
  while ((n = evil->Read(&byte, 1)) > 0) {
  }
  EXPECT_LE(n, 0);

  // A half-written frame on connection 3, then the client walks away:
  // truncation is EOF, not a query.
  {
    std::unique_ptr<Transport> quitter = world.server->ConnectPipe();
    std::string partial;
    AppendTaggedFrame(FrameType::kQuery, 1, "SELECT * FROM t", &partial);
    ASSERT_TRUE(quitter->WriteAll(partial.data(), partial.size() - 4));
  }  // Dropped mid-frame.

  // The good connection is entirely unaffected.
  r = good.Wait(good.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.metrics.tuples, tuples_before);
  EXPECT_GE(world.server->stats().frames_malformed, 1u);
  EXPECT_EQ(world.server->stats().queries_ok, 2u);
}

TEST(NetServerTest, PayloadErrorsKeepTheConnection) {
  ServedDb world(/*max_admitted=*/2);
  WireClient client(world.server->ConnectPipe());

  // Three payload-level rejections — parse error, bind error (unknown
  // table), chooser without statistics — each an ERROR frame, never a close.
  WireResult r = client.Wait(client.Submit("SELEKT * FROM t"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  r = client.Wait(
      client.Submit("SELECT * FROM nope WHERE C1 >= 0 AND C1 < 10"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  r = client.Wait(client.Submit(
      "SELECT * FROM t WHERE C1 >= 0 AND C1 < 10 WITH (POLICY=auto)"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  // Bind-time range-column checks (C1 is the index key): an index-driven
  // policy on a non-key column, a column outside the schema, and a DOP that
  // does not fit in 32 bits. Each used to abort the server or return wrong
  // rows.
  for (const char* hostile :
       {"SELECT * FROM t WHERE C0 >= 0 AND C0 < 100 WITH (POLICY=index)",
        "SELECT * FROM t WHERE C0 >= 0 AND C0 < 100 WITH (POLICY=sort, DOP=2)",
        "SELECT * FROM t WHERE C0 >= 0 AND C0 < 100 WITH (POLICY=smooth)",
        "SELECT * FROM t WHERE C99 >= 0 AND C99 < 100 WITH (POLICY=full)",
        "SELECT * FROM t WHERE C1 >= 0 AND C1 < 100 "
        "WITH (POLICY=full, DOP=4294967296)"}) {
    r = client.Wait(client.Submit(hostile));
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << hostile;
  }
  // A heap-only policy may range over any int64 column.
  r = client.Wait(client.Submit(
      "SELECT * FROM t WHERE C2 >= 0 AND C2 < 100 WITH (POLICY=full)"));
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.metrics.tuples, 0u);
  // The largest 32-bit DOP is legal and runs on one thread per morsel.
  r = client.Wait(client.Submit(
      "SELECT * FROM t WHERE C1 >= 0 AND C1 < 100 "
      "WITH (POLICY=smooth, DOP=4294967295)"));
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.metrics.tuples, 0u);

  const ScanPredicate pred = world.db->PredicateForSelectivity(0.01);
  r = client.Wait(client.Submit(SelectText(pred, "index", 0)));
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.metrics.tuples, 0u);
  EXPECT_EQ(world.server->stats().queries_error, 8u);
  EXPECT_EQ(world.server->stats().frames_malformed, 0u);
}

/// Registers `heap` (2,048 rows, indexed on C0) as table `name` of `world`,
/// reads it over the wire and expects the bind to reject the read with an
/// ERROR frame whose message holds `why`; the same connection then serves a
/// read of table t.
void ExpectReadRejectedAtBind(ServedDb* world, HeapFile* heap,
                              const std::string& name, const char* why) {
  BPlusTree index(world->engine.get(), name + "_c0", heap, 0);
  index.BulkBuild();
  TableBinding binding;
  binding.index = &index;
  world->catalog.Register(name, binding);
  WireClient client(world->server->ConnectPipe());
  WireResult r = client.Wait(client.Submit(
      "SELECT * FROM " + name + " WHERE C0 >= " + std::to_string(INT64_MIN) +
      " AND C0 < " + std::to_string(INT64_MAX) + " WITH (POLICY=full)"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << name;
  EXPECT_NE(r.status.message().find(why), std::string::npos)
      << name << ": " << r.status.ToString();
  EXPECT_TRUE(r.rows.empty()) << name;
  const ScanPredicate pred = world->db->PredicateForSelectivity(0.01);
  r = client.Wait(client.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok()) << name << ": " << r.status.ToString();
  EXPECT_GT(r.metrics.tuples, 0u);
  EXPECT_EQ(world->server->stats().frames_malformed, 0u);
}

TEST(NetServerTest, ReadOverADoubleColumnIsRejectedAtBind) {
  // BATCH rows are integer text: a DOUBLE value has none, and encoding one
  // used to abort the server process.
  ServedDb world(/*max_admitted=*/2);
  HeapFile heap(world.engine.get(), "mixed",
                Schema({{"k", ValueType::kInt64}, {"d", ValueType::kDouble}}));
  for (int64_t i = 0; i < 2048; ++i) {
    ASSERT_TRUE(heap.Append({Value::Int64(i), Value::Double(0.5)}).ok());
  }
  ExpectReadRejectedAtBind(&world, &heap, "mixed", "C1 is not INT64 or DATE");
}

TEST(NetServerTest, ReadOverATableTooWideForABatchFrameIsRejectedAtBind) {
  // One column past kMaxBatchColumns, every value 20 characters long: a
  // full batch overflows kMaxFramePayload, and the client used to drop the
  // whole connection on it.
  ServedDb world(/*max_admitted=*/2);
  const size_t width = kMaxBatchColumns + 1;
  HeapFile heap(world.engine.get(), "wide", MakeIntSchema(width));
  for (int64_t i = 0; i < 2048; ++i) {
    ASSERT_TRUE(heap.Append(Tuple(width, Value::Int64(INT64_MIN + i))).ok());
  }
  ExpectReadRejectedAtBind(&world, &heap, "wide", "too wide");
}

TEST(NetServerTest, OrderByKeyUnderTheChooserComesBackSorted) {
  // POLICY=auto (the default) at 50% picks a plan that loses the index
  // order; ORDER BY KEY must still deliver the rows in key order.
  ServedDb world(/*max_admitted=*/2);
  const TableStats stats = TableStats::Compute(
      world.db->heap(), MicroBenchDb::kIndexedColumn);
  CostModelParams params;
  params.num_tuples = world.db->heap().num_tuples();
  params.tuple_size =
      8192 / (world.db->heap().num_tuples() / world.db->heap().num_pages());
  const CostModel model(params);
  TableBinding binding;
  binding.index = &world.db->index();
  binding.stats = &stats;
  binding.cost_model = &model;
  world.catalog.Register("ts", binding);
  WireClient client(world.server->ConnectPipe());
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.5);
  char text[160];
  std::snprintf(text, sizeof text,
                "SELECT * FROM ts WHERE C%d >= %lld AND C%d < %lld "
                "ORDER BY KEY",
                pred.column, static_cast<long long>(pred.lo), pred.column,
                static_cast<long long>(pred.hi));
  const WireResult r = client.Wait(client.Submit(text));
  ASSERT_TRUE(r.complete);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_NE(r.metrics.kind, PathKind::kIndexScan);
  ASSERT_GT(r.rows.size(), 0u);
  EXPECT_EQ(r.rows.size(), r.metrics.tuples);
  EXPECT_TRUE(std::is_sorted(r.rows.begin(), r.rows.end(),
                             [&](const std::vector<int64_t>& a,
                                 const std::vector<int64_t>& b) {
                               return a[pred.column] < b[pred.column];
                             }));
}

TEST(NetServerTest, SessionWindowBackpressureIsVisible) {
  // Window 1 on a cap-1 engine: with several queries submitted back to back,
  // every submit after the first must stall in the connection's session
  // window until the previous query completes.
  ServedDb world(/*max_admitted=*/1);
  WireClient client(world.server->ConnectPipe());
  client.Hello("batch", /*window=*/1);

  const ScanPredicate pred = world.db->PredicateForSelectivity(0.3);
  std::vector<uint64_t> tags;
  for (int i = 0; i < 6; ++i) {
    tags.push_back(client.Submit(SelectText(pred, "full", 0)));
  }
  for (const uint64_t tag : tags) {
    ASSERT_TRUE(client.Wait(tag).status.ok());
  }
  const ServerStats stats = world.server->stats();
  EXPECT_EQ(stats.queries_ok, 6u);
  EXPECT_GT(stats.window_stalls, 0u);
}

TEST(NetServerTest, HelloWithABadWindowLeavesTheWindowUnchanged) {
  // Out-of-range, negative and trailing-garbage WINDOW values are ignored:
  // the default window (8) stays, so six queries on a cap-1 engine never
  // stall, and each connection keeps serving. WINDOW=1 then shows the
  // stall is observable. Overload backpressure, which shrinks windows on
  // its own, is kept out of reach.
  ServerOptions options;
  options.backpressure_queue_factor = 1000;
  ServedDb world(/*max_admitted=*/1, options);
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.3);
  const auto submit_six = [&](WireClient* client) {
    std::vector<uint64_t> tags;
    for (int i = 0; i < 6; ++i) {
      tags.push_back(client->Submit(SelectText(pred, "full", 0)));
    }
    for (const uint64_t tag : tags) {
      ASSERT_TRUE(client->Wait(tag).status.ok());
    }
  };
  for (const char* hello : {"WINDOW=99999999999", "WINDOW=-3", "WINDOW=1x"}) {
    std::unique_ptr<Transport> t = world.server->ConnectPipe();
    std::string wire;
    EncodeFrame({FrameType::kHello, hello}, &wire);
    ASSERT_TRUE(t->WriteAll(wire.data(), wire.size()));
    WireClient client(std::move(t));
    submit_six(&client);
    EXPECT_EQ(world.server->stats().window_stalls, 0u) << hello;
  }
  EXPECT_EQ(world.server->stats().queries_ok, 18u);

  WireClient client(world.server->ConnectPipe());
  client.Hello("batch", /*window=*/1);
  submit_six(&client);
  EXPECT_GT(world.server->stats().window_stalls, 0u);
}

TEST(NetServerTest, TcpTransportServesTheSameProtocol) {
  ServedDb world(/*max_admitted=*/2);
  ASSERT_TRUE(world.server->ListenTcp(0));  // Ephemeral port.
  std::unique_ptr<Transport> t = TcpListener::Connect(world.server->tcp_port());
  ASSERT_NE(t, nullptr);
  WireClient client(std::move(t));
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.05);
  const WireResult r = client.Wait(client.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.metrics.tuples, r.rows.size());
  EXPECT_GT(r.rows.size(), 0u);
}

/// The process's virtual size from /proc/self/status, in KiB (0 if absent).
uint64_t VmSizeKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmSize: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

TEST(NetServerTest, FinishedDrainersAreReapedOnALiveConnection) {
  // Every query gets a drainer thread that exits after its DONE frame. A
  // long-lived connection must join those as it goes: held until teardown,
  // each finished thread keeps its stack mapped (~8 MiB of virtual size),
  // so 500 queries would grow the process by about 4 GiB.
  ServedDb world(/*max_admitted=*/1);
  WireClient client(world.server->ConnectPipe());
  const std::string text =
      SelectText(world.db->PredicateForSelectivity(0.001), "index", 0);
  ASSERT_TRUE(client.Wait(client.Submit(text)).status.ok());  // Warm up.
  const uint64_t before = VmSizeKib();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status VmSize";
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(client.Wait(client.Submit(text)).status.ok()) << i;
  }
  const uint64_t after = VmSizeKib();
  const uint64_t growth = after > before ? after - before : 0;
  EXPECT_LT(growth, uint64_t{1} << 20) << "KiB of VmSize growth";
  EXPECT_EQ(world.server->stats().queries_ok, 501u);
}

// ----------------------------------------------------------- cancellation

TEST(NetCancelTest, WireCancelDetachesConsumerPeersStayIntact) {
  // Run A: seven shared-scan consumers, no cancellation — the reference.
  // Run B: the same seven plus an eighth, cancelled over the wire mid-scan.
  // The seven peers must produce the same result multisets in both worlds:
  // a wire CANCEL Detaches its consumer and corrupts nothing. (Per-peer
  // *charges* are not compared — shared-scan accounting hinges on which
  // consumer happens to pump the group's chunk fetches, a wall-clock race;
  // the bench JSON marks shared rows timing_dependent for the same reason.)
  auto run = [](bool with_victim) {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    Engine engine(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 4000;
    spec.seed = 17;
    MicroBenchDb db(&engine, spec);
    ScanSharingCoordinator sharing(&engine);
    QueryEngineOptions qeo;
    qeo.max_admitted = 8;  // Every consumer admitted at once.
    qeo.sharing = &sharing;
    QueryEngine qe(&engine, qeo);
    TableBinding binding;
    binding.index = &db.index();
    QueryCatalog catalog;
    catalog.Register("t", binding);
    ServerOptions so;
    so.session.max_outstanding = 8;
    Server server(&qe, &catalog, so);
    WireClient client(server.ConnectPipe());

    const ScanPredicate pred = db.PredicateForSelectivity(0.4);
    const std::string text = SelectText(pred, "shared", 0);
    std::vector<uint64_t> peers;
    for (int i = 0; i < 7; ++i) peers.push_back(client.Submit(text));
    bool victim_cancelled = false;
    if (with_victim) {
      const uint64_t victim = client.Submit(text);
      client.Cancel(victim);
      const WireResult vr = client.Wait(victim);
      victim_cancelled = vr.metrics.cancelled;
    }
    std::vector<WireResult> results;
    for (const uint64_t tag : peers) results.push_back(client.Wait(tag));
    return std::make_pair(std::move(results), victim_cancelled);
  };

  const auto reference = run(/*with_victim=*/false);
  const auto cancelled = run(/*with_victim=*/true);
  // The cancel raced a multi-millisecond scan from microseconds away — it
  // lands before completion; either way the peers below must be untouched.
  EXPECT_TRUE(cancelled.second);
  ASSERT_EQ(reference.first.size(), 7u);
  ASSERT_EQ(cancelled.first.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    const WireResult& a = reference.first[i];
    const WireResult& b = cancelled.first[i];
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    const std::multiset<int64_t> ka(a.keys.begin(), a.keys.end());
    const std::multiset<int64_t> kb(b.keys.begin(), b.keys.end());
    EXPECT_EQ(ka, kb) << "peer " << i;
    EXPECT_EQ(a.metrics.tuples, b.metrics.tuples) << "peer " << i;
    EXPECT_FALSE(a.metrics.cancelled) << "peer " << i;
    EXPECT_FALSE(b.metrics.cancelled) << "peer " << i;
  }
}

// ----------------------------------------------------------- differential

TEST(NetDifferentialTest, WireReadsBitIdenticalToDirectSpecs) {
  // The direct baseline: every (path, selectivity) spec run through an
  // in-process Session on a plain QueryEngine, no wire.
  ServedDb direct(/*max_admitted=*/1);
  Session direct_session(direct.qe.get());
  struct Case {
    PathKind kind;
    const char* policy;
    double selectivity;
  };
  const Case kCases[] = {
      {PathKind::kFullScan, "full", 0.001},  {PathKind::kFullScan, "full", 0.5},
      {PathKind::kIndexScan, "index", 0.001},
      {PathKind::kIndexScan, "index", 0.05},
      {PathKind::kSwitchScan, "switch", 0.05},
      {PathKind::kSwitchScan, "switch", 0.5},
      {PathKind::kSmoothScan, "smooth", 0.001},
      {PathKind::kSmoothScan, "smooth", 0.05},
      {PathKind::kSmoothScan, "smooth", 0.5},
  };
  std::vector<QueryMetrics> baseline;
  std::vector<std::multiset<int64_t>> baseline_keys;
  for (const Case& c : kCases) {
    QuerySpec spec;
    spec.index = &direct.db->index();
    spec.predicate = direct.db->PredicateForSelectivity(c.selectivity);
    spec.kind = c.kind;
    spec.estimate = 100;  // Underestimate: Switch Scan genuinely switches.
    spec.collect_keys = true;
    const QueryResult r = direct_session.Query().FromSpec(spec).Run();
    ASSERT_TRUE(r.status.ok());
    baseline.push_back(r.metrics);
    baseline_keys.emplace_back(r.keys.begin(), r.keys.end());
  }

  // The same queries as wire text, through a server over a bit-identical
  // world, at three admission caps — concurrency and transport must change
  // nothing about any query's simulated cost.
  for (const uint32_t cap : {1u, 2u, 8u}) {
    ServedDb world(cap);
    WireClient client(world.server->ConnectPipe());
    client.Hello("batch", /*window=*/16);
    std::vector<uint64_t> tags;
    for (const Case& c : kCases) {
      const ScanPredicate pred =
          world.db->PredicateForSelectivity(c.selectivity);
      tags.push_back(client.Submit(SelectText(pred, c.policy, 100)));
    }
    for (size_t i = 0; i < tags.size(); ++i) {
      const WireResult w = client.Wait(tags[i]);
      const std::string label = std::string(kCases[i].policy) + " sel " +
                                std::to_string(kCases[i].selectivity) +
                                " cap " + std::to_string(cap);
      ExpectWireMatchesDirect(baseline[i], w, label);
      const std::multiset<int64_t> keys(w.keys.begin(), w.keys.end());
      EXPECT_EQ(keys, baseline_keys[i]) << label;
      // The streamed rows are the result relation itself.
      EXPECT_EQ(w.rows.size(), baseline[i].tuples) << label;
    }
  }
}

TEST(NetDifferentialTest, WireWritesBitIdenticalToDirectSpecs) {
  // One batch of chained DML (inserts, an update, a delete) applied twice:
  // directly as WriteOps, and as wire text through the server — against two
  // bit-identical worlds. Write metrics and the post-write table state must
  // agree exactly.
  const int kInserts = 40;
  auto make_ops = [&](const Schema& schema) {
    std::vector<WriteOp> ops;
    for (int i = 0; i < kInserts; ++i) {
      Tuple t(schema.num_columns());
      t[0] = Value::Int64(9000000 + i);
      t[1] = Value::Int64(i % 50);
      for (size_t c = 2; c < schema.num_columns(); ++c) {
        t[c] = Value::Int64(static_cast<int64_t>(c));
      }
      ops.push_back(WriteOp::MakeInsert(std::move(t)));
    }
    {
      Tuple t(schema.num_columns());
      t[0] = Value::Int64(9100000);
      t[1] = Value::Int64(1);
      for (size_t c = 2; c < schema.num_columns(); ++c) {
        t[c] = Value::Int64(static_cast<int64_t>(c));
      }
      ops.push_back(WriteOp::MakeUpdate(Tid{0, 0}, std::move(t)));
    }
    ops.push_back(WriteOp::MakeDelete(Tid{1, 2}));
    return ops;
  };
  auto ops_text = [&](const std::vector<WriteOp>& ops) {
    std::string text;
    for (const WriteOp& op : ops) {
      if (!text.empty()) text += "; ";
      switch (op.kind) {
        case WriteOp::Kind::kInsert: {
          text += "INSERT INTO t VALUES (";
          for (size_t c = 0; c < op.tuple.size(); ++c) {
            if (c > 0) text += ",";
            text += std::to_string(op.tuple[c].AsInt64());
          }
          text += ")";
          break;
        }
        case WriteOp::Kind::kUpdate: {
          text += "UPDATE t SET ROW (";
          for (size_t c = 0; c < op.tuple.size(); ++c) {
            if (c > 0) text += ",";
            text += std::to_string(op.tuple[c].AsInt64());
          }
          text += ") WHERE TID (" + std::to_string(op.tid.page_id) + "," +
                  std::to_string(op.tid.slot) + ")";
          break;
        }
        case WriteOp::Kind::kDelete:
          text += "DELETE FROM t WHERE TID (" +
                  std::to_string(op.tid.page_id) + "," +
                  std::to_string(op.tid.slot) + ")";
          break;
      }
    }
    return text;
  };

  for (const uint32_t cap : {1u, 2u, 8u}) {
    // Direct world: the ops as one admission-controlled write spec.
    ServedDb direct(cap, {}, /*with_writes=*/true);
    Session direct_session(direct.qe.get());
    QuerySpec wspec;
    wspec.writer = direct.writer.get();
    wspec.write_ops = make_ops(direct.db->heap().schema());
    const QueryResult dw =
        direct_session.Query().FromSpec(std::move(wspec)).Run();
    ASSERT_TRUE(dw.status.ok());
    QuerySpec rspec;
    rspec.index = &direct.db->index();
    rspec.predicate = direct.db->PredicateForSelectivity(0.05);
    rspec.kind = PathKind::kSmoothScan;
    rspec.collect_keys = true;
    const QueryResult dr =
        direct_session.Query().FromSpec(std::move(rspec)).Run();
    ASSERT_TRUE(dr.status.ok());

    // Wire world: the same ops as chained DML text, then the same read.
    ServedDb world(cap, {}, /*with_writes=*/true);
    WireClient client(world.server->ConnectPipe());
    const std::vector<WriteOp> ops = make_ops(world.db->heap().schema());
    const WireResult ww = client.Wait(client.Submit(ops_text(ops)));
    const std::string label = "write cap " + std::to_string(cap);
    ASSERT_TRUE(ww.complete) << label;
    ASSERT_TRUE(ww.status.ok()) << label << ": " << ww.status.ToString();
    EXPECT_TRUE(ww.metrics.write) << label;
    EXPECT_EQ(dw.metrics.sim_time, ww.metrics.sim_time) << label;
    EXPECT_EQ(dw.metrics.io_time, ww.metrics.io_time) << label;
    EXPECT_EQ(dw.metrics.cpu_time, ww.metrics.cpu_time) << label;
    EXPECT_EQ(dw.metrics.tuples, ww.metrics.tuples) << label;

    const ScanPredicate pred = world.db->PredicateForSelectivity(0.05);
    const WireResult wr = client.Wait(client.Submit(SelectText(pred,
                                                               "smooth", 0)));
    ExpectWireMatchesDirect(dr.metrics, wr, label + " post-write read");
    const std::multiset<int64_t> direct_keys(dr.keys.begin(), dr.keys.end());
    const std::multiset<int64_t> wire_keys(wr.keys.begin(), wr.keys.end());
    EXPECT_EQ(direct_keys, wire_keys) << label;
  }
}

// ----------------------------------------------------------- session surface

TEST(SessionApiTest, HandlesStreamAndDrainWithoutTheWire) {
  // The same Session/QueryHandle surface the server runs each connection on,
  // used directly: streamed batches, Take(), and the destructor's
  // cancel-unwaited contract.
  EngineOptions eo;
  eo.buffer_pool_pages = 512;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  spec.value_max = 4000;
  spec.seed = 17;
  MicroBenchDb db(&engine, spec);
  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  QueryEngine qe(&engine, qeo);
  Session session(&qe, SessionOptions{});

  QueryHandle streamed = session.Query()
                             .Table(&db.index())
                             .Predicate(db.PredicateForSelectivity(0.1))
                             .Policy(PathKind::kSmoothScan)
                             .Stream()
                             .Submit();
  uint64_t streamed_rows = 0;
  TupleBatch batch;
  while (streamed.NextBatch(&batch)) streamed_rows += batch.size();
  const QueryResult taken = streamed.Take();
  ASSERT_TRUE(taken.status.ok());
  EXPECT_EQ(streamed_rows, taken.metrics.tuples);
  EXPECT_GT(streamed_rows, 0u);

  {
    // Dropped without Wait(): the handle cancels and reaps on destruction —
    // no leak, no hang, and the session window is released.
    QueryHandle dropped = session.Query()
                              .Table(&db.index())
                              .Predicate(db.PredicateForSelectivity(0.5))
                              .Policy(PathKind::kFullScan)
                              .Submit();
  }
  const QueryResult after = session.Query()
                                .Table(&db.index())
                                .Predicate(db.PredicateForSelectivity(0.01))
                                .Policy(PathKind::kIndexScan)
                                .Run();
  EXPECT_TRUE(after.status.ok());
}

}  // namespace
}  // namespace net
}  // namespace smoothscan
