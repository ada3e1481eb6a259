#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "channel_pair.hpp"
#include "server/ingest.hpp"
#include "testcase/suite.hpp"
#include "util/error.hpp"

namespace uucs {
namespace {

std::string dispatch(UucsServer& server, std::string_view request) {
  return dispatch_request_deferred(server, request).response;
}

std::unique_ptr<TcpChannel> connect_to(const IngestServer& ingest) {
  return TcpChannel::connect("127.0.0.1", ingest.port(), {5.0, 5.0, 5.0});
}

TEST(Protocol, RegisterRoundTrip) {
  UucsServer server(1);
  const std::string request = encode_register_request(HostSpec::paper_study_machine());
  const std::string response = dispatch(server, request);
  const auto records = kv_parse(response);
  ASSERT_FALSE(records.empty());
  ASSERT_EQ(records[0].type(), "register-response");
  const Guid guid = Guid::parse(records[0].get("guid"));
  EXPECT_TRUE(server.is_registered(guid));
}

TEST(Protocol, SyncRoundTripCarriesTestcasesAndResults) {
  UucsServer server(1, 8);
  server.add_testcase(make_ramp_testcase(Resource::kCpu, 2.0, 120.0));
  server.add_testcase(make_blank_testcase(120.0));
  const Guid guid = server.register_client(HostSpec::paper_study_machine());

  SyncRequest req;
  req.guid = guid;
  RunRecord result;
  result.run_id = "r-1";
  result.testcase_id = "cpu-ramp-x2-t120";
  result.task = "quake";
  result.discomforted = true;
  result.offset_s = 33.5;
  result.set_last_levels(Resource::kCpu, {0.5, 0.6});
  result.metadata["skill.pc"] = "power";
  req.results.push_back(result);

  const std::string response = dispatch(server, encode_sync_request(req));
  const auto records = kv_parse(response);
  ASSERT_EQ(records[0].type(), "sync-response");
  ASSERT_EQ(server.results().size(), 1u);
  const RunRecord& stored = server.results().at(0);
  EXPECT_EQ(stored.run_id, "r-1");
  EXPECT_TRUE(stored.discomforted);
  EXPECT_DOUBLE_EQ(stored.offset_s, 33.5);
  EXPECT_EQ(stored.meta("skill.pc"), "power");
  ASSERT_TRUE(stored.level_at_feedback(Resource::kCpu).has_value());
  EXPECT_DOUBLE_EQ(*stored.level_at_feedback(Resource::kCpu), 0.6);
}

TEST(Protocol, MalformedRequestYieldsError) {
  UucsServer server(1);
  for (const char* bad : {"", "garbage not kv [", "[unknown-op]\n"}) {
    const auto records = kv_parse(dispatch(server, bad));
    ASSERT_FALSE(records.empty()) << bad;
    EXPECT_EQ(records[0].type(), "error") << bad;
  }
}

TEST(Protocol, SyncFromUnregisteredClientIsError) {
  UucsServer server(1);
  SyncRequest req;
  req.guid = Guid{9, 9};
  const auto records = kv_parse(dispatch(server, encode_sync_request(req)));
  EXPECT_EQ(records[0].type(), "error");
}

TEST(Protocol, ForbiddenIdCharactersRejected) {
  SyncRequest req;
  req.guid = Guid{1, 1};
  req.known_testcase_ids = {"bad,id"};
  EXPECT_THROW(encode_sync_request(req), ProtocolError);
}

TEST(RemoteServerApi, FullSession) {
  UucsServer server(1, 8);
  server.add_testcase(make_ramp_testcase(Resource::kDisk, 5.0, 120.0));
  IngestServer ingest(server, {});

  auto channel = connect_to(ingest);
  RemoteServerApi api(*channel);
  const Guid guid = api.register_client(HostSpec::paper_study_machine());
  EXPECT_TRUE(server.is_registered(guid));

  SyncRequest req;
  req.guid = guid;
  const SyncResponse resp = api.hot_sync(req);
  EXPECT_EQ(resp.new_testcases.size(), 1u);
  EXPECT_EQ(resp.server_testcase_count, 1u);
  ingest.stop();
}

TEST(RemoteServerApi, ServerErrorSurfacesAsException) {
  UucsServer server(1);
  IngestServer ingest(server, {});
  auto channel = connect_to(ingest);
  RemoteServerApi api(*channel);
  SyncRequest req;
  req.guid = Guid{5, 5};  // not registered
  EXPECT_THROW(api.hot_sync(req), Error);
  ingest.stop();
}

TEST(RemoteServerApi, ClosedChannelThrowsProtocolError) {
  ChannelPair pair = make_channel_pair();
  pair.b->close();
  RemoteServerApi api(*pair.a);
  EXPECT_THROW(api.register_client(HostSpec::paper_study_machine()), ProtocolError);
}

// --- protocol version negotiation ------------------------------------------

TEST(Negotiation, NewClientNewServerLandsOnCurrentMax) {
  UucsServer server(1, 8);
  server.set_generation(5);
  IngestServer ingest(server, {});
  auto channel = connect_to(ingest);

  RemoteServerApi api(*channel);  // speaks up to kProtocolVersionMax
  const Guid guid = api.register_client(HostSpec::paper_study_machine());
  EXPECT_EQ(api.negotiated_version(), kProtocolVersionMax);

  SyncRequest req;
  req.guid = guid;
  req.protocol_version = kProtocolVersionMax;
  const SyncResponse resp = api.hot_sync(req);
  EXPECT_EQ(resp.protocol_version,
            static_cast<std::uint32_t>(kProtocolVersionMax));
  EXPECT_EQ(resp.server_generation, 5u);
  EXPECT_EQ(api.last_server_generation(), 5u);
  ingest.stop();
}

TEST(Negotiation, OldClientNewServerStaysOnV1Bytes) {
  // An old client never sends a version key; the new server must answer it
  // in v1 with not a single new key on the sync response.
  UucsServer server(1, 8);
  server.set_generation(7);
  const Guid guid = server.register_client(HostSpec::paper_study_machine());

  SyncRequest req;
  req.guid = guid;  // protocol_version defaults to 1
  const std::string wire = encode_sync_request(req);
  EXPECT_EQ(wire.find("proto"), std::string::npos);

  const auto records = kv_parse(dispatch(server, wire));
  ASSERT_EQ(records[0].type(), "sync-response");
  EXPECT_FALSE(records[0].find("proto").has_value());
  EXPECT_FALSE(records[0].find("generation").has_value());
}

TEST(Negotiation, NewClientOldServerFallsBackToV1) {
  // A pre-negotiation server answers register without a version key; the
  // client must read that as "I speak v1" and encode every later sync in v1.
  ChannelPair pair = make_channel_pair();
  std::thread old_server([&] {
    auto request = pair.b->read();
    ASSERT_TRUE(request.has_value());
    KvRecord head("register-response");
    head.set("guid", Guid{1, 2}.to_string());
    pair.b->write(kv_serialize({head}));  // no version key
  });

  RemoteServerApi api(*pair.a);
  const Guid guid = api.register_client(HostSpec::paper_study_machine());
  EXPECT_EQ(guid, (Guid{1, 2}));
  EXPECT_EQ(api.negotiated_version(), 1);
  old_server.join();
}

TEST(Negotiation, FutureClientVersionClampedToServerMax) {
  UucsServer server(1);
  const std::string request =
      encode_register_request(HostSpec::paper_study_machine(), "", 99);
  const auto records = kv_parse(dispatch(server, request));
  ASSERT_EQ(records[0].type(), "register-response");
  EXPECT_EQ(records[0].get_int("version"), kProtocolVersionMax);
}

TEST(Negotiation, MalformedRegisterVersionIsTypedErrorNotHang) {
  UucsServer server(1);
  for (const char* bad : {"banana", "-3", "0", "999999999999"}) {
    KvRecord head("register-request");
    head.set("version", bad);
    const std::string request =
        kv_serialize({head, HostSpec::paper_study_machine().to_record()});
    const auto records = kv_parse(dispatch(server, request));
    ASSERT_FALSE(records.empty()) << bad;
    EXPECT_EQ(records[0].type(), "error") << bad;
  }
}

TEST(Negotiation, MalformedSyncProtoIsTypedError) {
  UucsServer server(1);
  const Guid guid = server.register_client(HostSpec::paper_study_machine());
  for (const char* bad : {"garbage", "-1", "0"}) {
    KvRecord head("sync-request");
    head.set("proto", bad);
    head.set("guid", guid.to_string());
    const auto records = kv_parse(dispatch(server, kv_serialize({head})));
    ASSERT_FALSE(records.empty()) << bad;
    EXPECT_EQ(records[0].type(), "error") << bad;
  }
}

TEST(Negotiation, SyncFromTheFutureIsRejectedNotGuessed) {
  UucsServer server(1);
  const Guid guid = server.register_client(HostSpec::paper_study_machine());
  KvRecord head("sync-request");
  head.set_int("proto", kProtocolVersionMax + 1);
  head.set("guid", guid.to_string());
  const auto records = kv_parse(dispatch(server, kv_serialize({head})));
  ASSERT_EQ(records[0].type(), "error");
  EXPECT_NE(records[0].get("message").find("unsupported"), std::string::npos);
}

TEST(Negotiation, MalformedServerVersionThrowsProtocolError) {
  // A garbled version field from the server side must surface as a typed
  // ProtocolError on the client — retried by the transport, never a hang.
  ChannelPair pair = make_channel_pair();
  std::thread bad_server([&] {
    auto request = pair.b->read();
    ASSERT_TRUE(request.has_value());
    KvRecord head("register-response");
    head.set("guid", Guid{1, 2}.to_string());
    head.set("version", "carrot");
    pair.b->write(kv_serialize({head}));
  });
  RemoteServerApi api(*pair.a);
  EXPECT_THROW(api.register_client(HostSpec::paper_study_machine()),
               ProtocolError);
  bad_server.join();
}

TEST(LocalServerApi, DirectDispatch) {
  UucsServer server(1, 8);
  server.add_testcase(make_blank_testcase(120.0));
  VirtualClock clock(77.0);
  LocalServerApi api(server, &clock);
  const Guid guid = api.register_client(HostSpec::paper_study_machine());
  EXPECT_DOUBLE_EQ(server.registration(guid).registered_at, 77.0);
  SyncRequest req;
  req.guid = guid;
  EXPECT_EQ(api.hot_sync(req).new_testcases.size(), 1u);
}

}  // namespace
}  // namespace uucs
