#include "server/fault_injection.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "channel_pair.hpp"
#include "server/ingest.hpp"
#include "server/retry.hpp"
#include "testcase/suite.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace uucs {
namespace {

TEST(FaultSchedule, ScriptedRunsCleanPastScriptEnd) {
  auto s = ChannelFaultSchedule::scripted({{ChannelFaultKind::kDrop, 0.0}});
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kDrop);
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kNone);
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kNone);
  EXPECT_EQ(s.ops(), 3u);
}

TEST(FaultSchedule, SeededIsDeterministic) {
  auto a = ChannelFaultSchedule::seeded(42, ChannelFaultProfile::moderate());
  auto b = ChannelFaultSchedule::seeded(42, ChannelFaultProfile::moderate());
  std::size_t faults = 0;
  for (int i = 0; i < 500; ++i) {
    const ChannelFaultAction fa = a.next();
    const ChannelFaultAction fb = b.next();
    EXPECT_EQ(fa.kind, fb.kind);
    if (fa.kind != ChannelFaultKind::kNone) ++faults;
  }
  // moderate() faults roughly a quarter of operations.
  EXPECT_GT(faults, 50u);
  EXPECT_LT(faults, 250u);
}

TEST(FaultSchedule, ParseScripted) {
  auto s = parse_channel_fault_schedule("1:drop,3:delay=0.25,4:disconnect");
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kNone);
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kDrop);
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kNone);
  const ChannelFaultAction delay = s.next();
  EXPECT_EQ(delay.kind, ChannelFaultKind::kDelay);
  EXPECT_DOUBLE_EQ(delay.delay_s, 0.25);
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kDisconnect);
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kNone);
}

TEST(FaultSchedule, ParseRejectsMalformed) {
  EXPECT_THROW(parse_channel_fault_schedule("nonsense"), ParseError);
  EXPECT_THROW(parse_channel_fault_schedule("x:drop"), ParseError);
  EXPECT_THROW(parse_channel_fault_schedule("1:frobnicate"), ParseError);
  EXPECT_THROW(parse_channel_fault_schedule("1:delay=-2"), ParseError);
  EXPECT_THROW(parse_channel_fault_schedule("-1:drop"), ParseError);
}

TEST(FaultSchedule, HugeOpIndicesParseSparsely) {
  // INT64_MAX and a mid-range index cost two map entries, not a dense
  // vector of that length.
  auto s = parse_channel_fault_schedule(
      "9223372036854775807:drop,100000000:garbage,1:disconnect");
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kNone);
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kDisconnect);
  EXPECT_EQ(s.next().kind, ChannelFaultKind::kNone);
  EXPECT_THROW(parse_channel_fault_schedule("9223372036854775808:drop"), ParseError);
}

TEST(FaultyChannel, CleanScheduleIsTransparent) {
  ChannelPair pair = make_channel_pair();
  auto schedule = std::make_shared<ChannelFaultSchedule>(ChannelFaultSchedule::none());
  FaultyChannel faulty(std::move(pair.a), schedule);
  faulty.write("ping");
  EXPECT_EQ(pair.b->read(), "ping");
  pair.b->write("pong");
  EXPECT_EQ(faulty.read(), "pong");
  EXPECT_EQ(faulty.stats().ops, 2u);
  EXPECT_EQ(faulty.stats().faults(), 0u);
}

TEST(FaultyChannel, DropSwallowsWrite) {
  ChannelPair pair = make_channel_pair();
  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted({{ChannelFaultKind::kDrop, 0.0}}));
  FaultyChannel faulty(std::move(pair.a), schedule);
  faulty.write("lost");
  faulty.write("delivered");
  EXPECT_EQ(pair.b->read(), "delivered");
  EXPECT_EQ(faulty.stats().drops, 1u);
}

TEST(FaultyChannel, DropDiscardsOneIncomingMessage) {
  ChannelPair pair = make_channel_pair();
  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted({{ChannelFaultKind::kDrop, 0.0}}));
  FaultyChannel faulty(std::move(pair.a), schedule);
  pair.b->write("response one");
  pair.b->write("response two");
  EXPECT_EQ(faulty.read(), "response two");
}

TEST(FaultyChannel, DisconnectPoisonsOperation) {
  ChannelPair pair = make_channel_pair();
  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted({{ChannelFaultKind::kDisconnect, 0.0}}));
  FaultyChannel faulty(std::move(pair.a), schedule);
  EXPECT_THROW(faulty.write("never sent"), ProtocolError);
  EXPECT_EQ(faulty.stats().disconnects, 1u);
  // The inner channel really closed: the peer sees EOF.
  EXPECT_EQ(pair.b->read(), std::nullopt);
}

TEST(FaultyChannel, DelayPassesThrough) {
  ChannelPair pair = make_channel_pair();
  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted({{ChannelFaultKind::kDelay, 0.001}}));
  FaultyChannel faulty(std::move(pair.a), schedule);
  faulty.write("slow but intact");
  EXPECT_EQ(pair.b->read(), "slow but intact");
  EXPECT_EQ(faulty.stats().delays, 1u);
}

TEST(FaultyChannel, TruncateDegradesToDisconnectOffTcp) {
  // Any inner channel that is not a TcpChannel has no frame to tear; a
  // fault-free FaultyChannel stands in for one here.
  ChannelPair pair = make_channel_pair();
  auto clean = std::make_unique<FaultyChannel>(
      std::move(pair.a),
      std::make_shared<ChannelFaultSchedule>(ChannelFaultSchedule::none()));
  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted({{ChannelFaultKind::kTruncate, 0.0}}));
  FaultyChannel faulty(std::move(clean), schedule);
  EXPECT_THROW(faulty.write("torn"), ProtocolError);
  EXPECT_EQ(pair.b->read(), std::nullopt);
}

/// Accepts one TCP connection and returns the server-side channel.
std::unique_ptr<TcpChannel> accept_one(TcpListener& listener,
                                       std::unique_ptr<TcpChannel>& client,
                                       ChannelDeadlines client_deadlines = {}) {
  std::unique_ptr<TcpChannel> server_side;
  std::thread acceptor([&] { server_side = listener.accept(); });
  client = TcpChannel::connect("127.0.0.1", listener.port(), client_deadlines);
  acceptor.join();
  return server_side;
}

TEST(FaultyChannel, TruncateOverTcpTearsTheFrame) {
  TcpListener listener(0);
  std::unique_ptr<TcpChannel> client;
  auto server_side = accept_one(listener, client);
  server_side->set_deadlines({0, 1.0, 1.0});

  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted({{ChannelFaultKind::kTruncate, 0.0}}));
  FaultyChannel faulty(std::move(client), schedule);
  EXPECT_THROW(faulty.write("this frame will be cut short"), ProtocolError);
  // The peer sees a frame header promising more bytes than ever arrive.
  EXPECT_THROW(server_side->read(), ProtocolError);
}

TEST(FaultyChannel, GarbageOverTcpBreaksFraming) {
  TcpListener listener(0);
  std::unique_ptr<TcpChannel> client;
  auto server_side = accept_one(listener, client);
  server_side->set_deadlines({0, 1.0, 1.0});

  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted({{ChannelFaultKind::kGarbage, 0.0}}));
  FaultyChannel faulty(std::move(client), schedule);
  EXPECT_THROW(faulty.write("replaced by garbage"), ProtocolError);
  EXPECT_THROW(server_side->read(), ProtocolError);
}

TEST(TcpChannel, ReadDeadlineFiresOnStalledPeer) {
  TcpListener listener(0);
  std::unique_ptr<TcpChannel> client;
  auto server_side = accept_one(listener, client, {0, 0.05, 0});
  // The server never writes: the client's read must give up, not hang.
  EXPECT_THROW(client->read(), TimeoutError);
  (void)server_side;
}

TEST(TcpChannel, ReadDeadlineCoversWholeMessage) {
  TcpListener listener(0);
  std::unique_ptr<TcpChannel> client;
  auto server_side = accept_one(listener, client, {0, 0.1, 0});
  // A trickling peer: header promises 100 bytes, only a few ever arrive.
  server_side->write_bytes("UUCS 100\nabc");
  EXPECT_THROW(client->read(), TimeoutError);
}

TEST(TcpChannel, WriteDeadlineFiresWhenPeerNeverDrains) {
  TcpListener listener(0);
  std::unique_ptr<TcpChannel> client;
  auto server_side = accept_one(listener, client, {0, 0, 0.1});
  // Nobody reads server_side; a message far larger than the socket buffers
  // must hit the write deadline instead of blocking forever.
  const std::string huge(32u << 20, 'x');
  EXPECT_THROW(client->write(huge), TimeoutError);
  (void)server_side;
}

RetryPolicy fast_retries() {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_delay_s = 0.001;
  policy.max_delay_s = 0.01;
  return policy;
}

TEST(RetryingServerApi, RetriesThroughDroppedResponse) {
  UucsServer server(1, 8);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  IngestServer ingest(server, {});

  // Operation sequence per attempt is write+read; drop the first response.
  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted(
          {{ChannelFaultKind::kNone, 0.0}, {ChannelFaultKind::kDrop, 0.0}}));
  VirtualClock clock;
  RetryingServerApi api(
      [&] {
        return std::make_unique<FaultyChannel>(
            TcpChannel::connect("127.0.0.1", ingest.port(), {1.0, 0.2, 1.0}),
            schedule);
      },
      clock, fast_retries());

  const Guid guid = api.register_client(HostSpec::detect());
  EXPECT_FALSE(guid.is_nil());
  EXPECT_TRUE(server.is_registered(guid));
  EXPECT_EQ(api.retries(), 1u);
  EXPECT_EQ(api.connects(), 2u);
  ASSERT_EQ(api.backoff_delays().size(), 1u);
  // The first delay is jittered in [base, 3*base], never exactly base — a
  // deterministic first retry would re-synchronize every client that failed
  // at the same instant (pinned by BusyRetry.FirstBackoffDelayIsJittered...).
  EXPECT_GE(api.backoff_delays()[0], 0.001);
  EXPECT_LE(api.backoff_delays()[0], 0.003);
  ingest.stop();
}

TEST(RetryingServerApi, StalledChannelExhaustsAttempts) {
  // A schedule that drops every single operation: nothing ever completes.
  std::vector<ChannelFaultAction> all_drops(64, {ChannelFaultKind::kDisconnect, 0.0});
  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::scripted(std::move(all_drops)));

  VirtualClock clock;
  RetryPolicy policy = fast_retries();
  policy.max_attempts = 3;
  RetryingServerApi api(
      [&] {
        return std::make_unique<FaultyChannel>(make_channel_pair().a,
                                               schedule);
      },
      clock, policy);

  EXPECT_THROW(api.register_client(HostSpec::detect()), ProtocolError);
  EXPECT_EQ(api.retries(), 2u);
  EXPECT_EQ(api.connects(), 3u);
  // Decorrelated jitter stays within [base, max].
  for (const double d : api.backoff_delays()) {
    EXPECT_GE(d, policy.base_delay_s);
    EXPECT_LE(d, policy.max_delay_s);
  }
}

TEST(RetryingServerApi, ApplicationErrorsAreNotRetried) {
  UucsServer server(1, 8);
  IngestServer ingest(server, {});

  VirtualClock clock;
  RetryingServerApi api(
      [&] { return TcpChannel::connect("127.0.0.1", ingest.port(), {1.0, 1.0, 1.0}); },
      clock, fast_retries());

  // Syncing an unregistered guid earns an [error] reply: the request is
  // wrong, retrying cannot fix it, so exactly one attempt happens.
  SyncRequest req;
  req.guid = Guid::parse("00000000-0000-4000-8000-000000000001");
  EXPECT_THROW(api.hot_sync(req), Error);
  EXPECT_EQ(api.retries(), 0u);
  EXPECT_EQ(api.connects(), 1u);
  ingest.stop();
}

}  // namespace
}  // namespace uucs
