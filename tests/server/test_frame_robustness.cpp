#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "server/event_loop.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/error.hpp"
#include "util/kvtext.hpp"

namespace uucs {
namespace {

/// One connected TCP pair; the reading side has a short deadline so a
/// malformed frame can never hang the test.
struct WirePair {
  TcpListener listener{0};
  std::unique_ptr<TcpChannel> client;
  std::unique_ptr<TcpChannel> server_side;

  WirePair() {
    std::thread acceptor([&] { server_side = listener.accept(); });
    client = TcpChannel::connect("127.0.0.1", listener.port());
    acceptor.join();
    server_side->set_deadlines({0, 0.5, 0.5});
  }
};

TEST(FrameRobustness, GarbageHeaderIsTypedError) {
  WirePair wire;
  wire.client->write_bytes("not a uucs frame at all\n");
  EXPECT_THROW(wire.server_side->read(), ProtocolError);
}

TEST(FrameRobustness, WrongMagicIsTypedError) {
  WirePair wire;
  wire.client->write_bytes("HTTP 11\nhello world");
  EXPECT_THROW(wire.server_side->read(), ProtocolError);
}

TEST(FrameRobustness, NegativeLengthIsTypedError) {
  WirePair wire;
  wire.client->write_bytes("UUCS -5\n");
  EXPECT_THROW(wire.server_side->read(), ProtocolError);
}

TEST(FrameRobustness, NonNumericLengthIsTypedError) {
  WirePair wire;
  wire.client->write_bytes("UUCS banana\n");
  EXPECT_THROW(wire.server_side->read(), ProtocolError);
}

TEST(FrameRobustness, OversizedLengthClaimIsTypedError) {
  WirePair wire;
  // Claims 1 TiB: rejected from the header alone, no allocation attempted.
  wire.client->write_bytes("UUCS 1099511627776\n");
  EXPECT_THROW(wire.server_side->read(), ProtocolError);
}

TEST(FrameRobustness, UnterminatedHeaderIsTypedError) {
  WirePair wire;
  wire.client->write_bytes(std::string(200, 'U'));  // no newline in 200 bytes
  EXPECT_THROW(wire.server_side->read(), ProtocolError);
}

TEST(FrameRobustness, TruncatedPayloadIsTypedError) {
  WirePair wire;
  wire.client->write_bytes("UUCS 50\nonly twenty bytes!!");
  wire.client->close();
  EXPECT_THROW(wire.server_side->read(), ProtocolError);
}

TEST(FrameRobustness, CloseMidHeaderIsTypedError) {
  WirePair wire;
  wire.client->write_bytes("UUCS 1");
  wire.client->close();
  EXPECT_THROW(wire.server_side->read(), ProtocolError);
}

TEST(FrameRobustness, CleanCloseAtBoundaryIsEof) {
  WirePair wire;
  wire.client->write("complete message");
  wire.client->close();
  EXPECT_EQ(wire.server_side->read(), "complete message");
  EXPECT_EQ(wire.server_side->read(), std::nullopt);
}

TEST(FrameRobustness, BothReadersRejectTheSameHeaders) {
  // One header grammar: whatever the event loop's FrameReader refuses, the
  // blocking TcpChannel::read refuses too, instead of reading it leniently.
  const std::vector<std::string> headers = {
      "UUCS -0\n",   // a sign
      "UUCS 5\r\n",  // CRLF
      "UUCS  5\n",   // two spaces
      " UUCS 5\n",   // leading space
      "UUCS 000000000000000000000000005\n",  // zero-padded to 33 bytes
  };
  for (const std::string& header : headers) {
    SCOPED_TRACE(header);
    const std::string bytes = header + "hello";
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    std::string payload;
    EXPECT_THROW(reader.next(payload), ProtocolError);
    WirePair wire;
    wire.client->write_bytes(bytes);
    wire.client->close();
    EXPECT_THROW(wire.server_side->read(), ProtocolError);
  }
}

/// Well-framed junk payloads must earn an [error] reply, never a crash.
std::string error_message(UucsServer& server, const std::string& request) {
  const auto records = kv_parse(dispatch_request_deferred(server, request).response);
  EXPECT_FALSE(records.empty());
  EXPECT_EQ(records.front().type(), "error");
  return records.front().get_or("message", "");
}

TEST(FrameRobustness, DispatchSurvivesGarbagePayload) {
  UucsServer server(1, 8);
  EXPECT_FALSE(error_message(server, "complete garbage \xff\xfe\x01").empty());
  EXPECT_FALSE(error_message(server, "").empty());
  EXPECT_FALSE(error_message(server, "[unknown-op]\n").empty());
  EXPECT_FALSE(error_message(server, "[register-request]\n").empty());  // no host
  EXPECT_FALSE(
      error_message(server, "[sync-request]\nguid = not-a-guid\n").empty());
}

TEST(FrameRobustness, DispatchSurvivesLyingResultCount) {
  UucsServer server(1, 8);
  const Guid guid = server.register_client(HostSpec::detect(), 0.0);
  const std::string request = "[sync-request]\nguid = " + guid.to_string() +
                              "\nresult_count = 7\n";  // no results attached
  EXPECT_FALSE(error_message(server, request).empty());
}

/// A client of a live IngestServer whose reads give up after 5 s, so a
/// missing reply fails the test instead of hanging it.
std::unique_ptr<TcpChannel> connect_to(const IngestServer& ingest) {
  return TcpChannel::connect("127.0.0.1", ingest.port(), {5.0, 5.0, 5.0});
}

TEST(FrameRobustness, IngestRepliesErrorAndKeepsGoing) {
  UucsServer server(1, 8);
  IngestServer ingest(server, {});
  auto client = connect_to(ingest);

  // A framed-but-garbage request earns an [error] reply...
  client->write("this is not kv text [");
  auto reply = client->read();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(kv_parse(*reply).front().type(), "error");

  // ...and the connection still works for a real request afterwards.
  client->write(encode_register_request(HostSpec::detect()));
  reply = client->read();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(kv_parse(*reply).front().type(), "register-response");
  ingest.stop();
}

// FrameReader adversarial battery: the event loop's incremental reassembler
// at its exact boundaries — the 64 MiB payload cap, the 32-byte header
// limit, zero-length frames, byte-at-a-time arrival, and pipelined frames
// sharing one buffer. Every rejection must be a typed throw, never a hang.

void feed_all(FrameReader& reader, const std::string& bytes) {
  reader.feed(bytes.data(), bytes.size());
}

TEST(FrameReaderEdge, PayloadExactlyAtTheCapPasses) {
  FrameReader reader;
  const std::string body(FrameReader::kMaxFrameBytes, 'x');
  feed_all(reader, "UUCS " + std::to_string(body.size()) + "\n" + body);
  std::string payload;
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload.size(), FrameReader::kMaxFrameBytes);
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.next(payload));
}

TEST(FrameReaderEdge, OneBytePastTheCapIsRejectedFromTheHeaderAlone) {
  FrameReader reader;
  // Only the header arrives: the length claim alone must reject the frame —
  // no 64 MiB allocation happens for a payload we will never accept.
  feed_all(reader, "UUCS " + std::to_string(FrameReader::kMaxFrameBytes + 1) + "\n");
  std::string payload;
  EXPECT_THROW(reader.next(payload), ProtocolError);
}

TEST(FrameReaderEdge, HeaderAtThe32ByteLimitParses) {
  FrameReader reader;
  // "UUCS " + 26 digits + "\n" is exactly the 32-byte header cap; leading
  // zeros make the length small. Still a legal frame.
  const std::string header = "UUCS 00000000000000000000000007\n";
  ASSERT_EQ(header.size(), 32u);
  feed_all(reader, header + "payload");
  std::string payload;
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload, "payload");
}

TEST(FrameReaderEdge, HeaderJustUnderTheLimitParses) {
  FrameReader reader;
  const std::string header = "UUCS 0000000000000000000000003\n";  // 31 bytes
  ASSERT_EQ(header.size(), 31u);
  feed_all(reader, header + "abc");
  std::string payload;
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload, "abc");
}

TEST(FrameReaderEdge, HeaderPastTheLimitIsRejected) {
  FrameReader reader;
  // 27 digits push the newline to byte 33: one past the cap, rejected even
  // though the digits themselves are valid.
  const std::string header = "UUCS 000000000000000000000000003\n";
  ASSERT_EQ(header.size(), 33u);
  feed_all(reader, header);
  std::string payload;
  EXPECT_THROW(reader.next(payload), ProtocolError);
}

TEST(FrameReaderEdge, UnterminatedHeaderAtTheCapIsRejectedNotBuffered) {
  FrameReader reader;
  // 32 bytes and still no newline: malformed right now — the reader must
  // not wait forever for a terminator that cannot legally arrive.
  feed_all(reader, "UUCS 000000000000000000000000000");  // >= 32 bytes, no \n
  std::string payload;
  EXPECT_THROW(reader.next(payload), ProtocolError);
}

TEST(FrameReaderEdge, ZeroLengthFrameYieldsEmptyPayload) {
  FrameReader reader;
  feed_all(reader, "UUCS 0\n");
  std::string payload = "sentinel";
  ASSERT_TRUE(reader.next(payload));
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderEdge, ByteAtATimeReassembly) {
  FrameReader reader;
  const std::string wire = "UUCS 5\nhello";
  std::string payload;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    reader.feed(wire.data() + i, 1);
    EXPECT_FALSE(reader.next(payload)) << "complete after only " << i + 1
                                       << " bytes";
  }
  reader.feed(wire.data() + wire.size() - 1, 1);
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload, "hello");
}

TEST(FrameReaderEdge, PipelinedFramesExtractInOrder) {
  FrameReader reader;
  feed_all(reader, "UUCS 3\noneUUCS 0\nUUCS 5\nthree");
  std::string payload;
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload, "one");
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload, "three");
  EXPECT_FALSE(reader.next(payload));
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderEdge, GarbageMagicIsRejectedFromTheFirstBytes) {
  FrameReader reader;
  feed_all(reader, "HT");  // two bytes suffice: they already contradict "UUCS "
  std::string payload;
  EXPECT_THROW(reader.next(payload), ProtocolError);
  // The reader is beyond repair but must stay loud about it, not hang.
  EXPECT_THROW(reader.next(payload), ProtocolError);
}

/// A well-framed-but-rejected request must not poison the connection: the
/// next valid frame in the same pipelined burst still gets served. (A
/// *mis-framed* byte stream is different — there the framing itself is lost
/// and the connection closes, which the FrameReaderEdge throws pin.)
TEST(FrameRobustness, ValidFrameAfterRejectedPayloadStillServed) {
  UucsServer server(1, 8);
  // The event loop does not order replies across workers; one worker makes
  // the reply order the request order.
  IngestServer::Config config;
  config.loop.workers = 1;
  IngestServer ingest(server, config);
  auto client = connect_to(ingest);

  // One write, two frames: garbage payload then a valid registration.
  client->write_bytes(TcpChannel::frame("[sync-request]\nguid = junk\n") +
                      TcpChannel::frame(encode_register_request(HostSpec::detect())));
  auto reply = client->read();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(kv_parse(*reply).front().type(), "error");
  reply = client->read();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(kv_parse(*reply).front().type(), "register-response");
  ingest.stop();
}

}  // namespace
}  // namespace uucs
