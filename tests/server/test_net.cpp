#include "server/net.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "server/ingest.hpp"
#include "testcase/suite.hpp"
#include "util/error.hpp"

namespace uucs {
namespace {

TEST(TcpChannel, MessageRoundTrip) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::unique_ptr<TcpChannel> server_side;
  std::thread acceptor([&] { server_side = listener.accept(); });
  auto client = TcpChannel::connect("127.0.0.1", listener.port());
  acceptor.join();
  ASSERT_TRUE(server_side);

  client->write("hello over tcp");
  EXPECT_EQ(server_side->read(), "hello over tcp");
  server_side->write("response");
  EXPECT_EQ(client->read(), "response");
}

TEST(TcpChannel, EmptyAndLargeMessages) {
  TcpListener listener(0);
  std::unique_ptr<TcpChannel> server_side;
  std::thread acceptor([&] { server_side = listener.accept(); });
  auto client = TcpChannel::connect("127.0.0.1", listener.port());
  acceptor.join();

  client->write("");
  EXPECT_EQ(server_side->read(), "");

  const std::string big(1 << 20, 'x');
  client->write(big);
  EXPECT_EQ(server_side->read(), big);
}

TEST(TcpChannel, EofOnPeerClose) {
  TcpListener listener(0);
  std::unique_ptr<TcpChannel> server_side;
  std::thread acceptor([&] { server_side = listener.accept(); });
  auto client = TcpChannel::connect("127.0.0.1", listener.port());
  acceptor.join();

  client->close();
  EXPECT_EQ(server_side->read(), std::nullopt);
}

TEST(TcpChannel, ConnectFailureThrows) {
  // Port 1 is essentially never listening.
  EXPECT_THROW(TcpChannel::connect("127.0.0.1", 1), SystemError);
  EXPECT_THROW(TcpChannel::connect("not-an-address", 80), SystemError);
}

TEST(TcpChannel, FullProtocolSession) {
  UucsServer server(1, 8);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  IngestServer ingest(server, {});

  auto client_channel = TcpChannel::connect("127.0.0.1", ingest.port());
  RemoteServerApi api(*client_channel);
  const Guid guid = api.register_client(HostSpec::detect());
  SyncRequest req;
  req.guid = guid;
  const SyncResponse resp = api.hot_sync(req);
  EXPECT_EQ(resp.new_testcases.size(), 1u);
  EXPECT_EQ(resp.new_testcases[0].id(), "memory-ramp-x1-t120");

  client_channel->close();
  ingest.stop();
  EXPECT_TRUE(server.is_registered(guid));
}

TEST(TcpChannel, ShutdownRwUnblocksBlockedRead) {
  TcpListener listener(0);
  std::unique_ptr<TcpChannel> server_side;
  std::thread acceptor([&] { server_side = listener.accept(); });
  auto client = TcpChannel::connect("127.0.0.1", listener.port());
  acceptor.join();
  ASSERT_TRUE(server_side);

  // No read deadline: without shutdown_rw() this read would block forever —
  // the situation a server shutdown must be able to break out of.
  std::optional<std::string> got = std::string("sentinel");
  std::thread reader([&] { got = server_side->read(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_side->shutdown_rw();
  reader.join();
  EXPECT_EQ(got, std::nullopt);
}

TEST(TcpListener, ShutdownUnblocksAccept) {
  TcpListener listener(0);
  std::thread acceptor([&] { EXPECT_EQ(listener.accept(), nullptr); });
  // Give accept a moment to block, then shut down.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  listener.shutdown();
  acceptor.join();
}

}  // namespace
}  // namespace uucs
