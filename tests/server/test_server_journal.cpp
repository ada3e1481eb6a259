#include <gtest/gtest.h>

#include "server/server.hpp"
#include "testcase/suite.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/journal.hpp"

namespace uucs {
namespace {

RunRecord result(const std::string& id) {
  RunRecord r;
  r.run_id = id;
  r.testcase_id = "cpu-ramp-x1-t120";
  r.task = "word";
  r.offset_s = 60.0;
  return r;
}

SyncRequest upload(const Guid& guid, std::vector<RunRecord> records,
                   std::uint64_t seq = 1) {
  SyncRequest req;
  req.guid = guid;
  req.sync_seq = seq;
  req.results = std::move(records);
  return req;
}

/// Drives a journaled server the way the ingest plane does: each call hands
/// back its journal entries, and the group-commit journal makes them durable
/// before the call returns (the point where the ingest plane would ack).
class Durable {
 public:
  explicit Durable(UucsServer& server)
      : server_(server), commit_(*server.mutable_journal()) {}

  Guid register_client(const HostSpec& host, double now,
                       const std::string& nonce = "") {
    std::vector<std::string> entries;
    const Guid guid = server_.register_client(host, now, nonce, &entries);
    commit_.append_sync(std::move(entries));
    return guid;
  }

  SyncResponse hot_sync(const SyncRequest& request) {
    std::vector<std::string> entries;
    SyncResponse response = server_.hot_sync(request, &entries);
    commit_.append_sync(std::move(entries));
    return response;
  }

  /// Snapshots with the committer parked, as IngestServer does.
  void save(const std::string& dir) {
    commit_.with_exclusive([&] { server_.save(dir); });
  }

 private:
  UucsServer& server_;
  GroupCommitJournal commit_;
};

TEST(ServerJournal, CrashBeforeSaveLosesNothing) {
  TempDir dir;
  const std::string path = dir.file("server.journal");
  Guid guid;
  {
    UucsServer server(1, 4);
    EXPECT_EQ(server.attach_journal(path), 0u);
    Durable durable(server);
    guid = durable.register_client(HostSpec::paper_study_machine(), 5.0);
    durable.hot_sync(upload(guid, {result("a/0"), result("a/1")}));
    // "Crash": no save().
  }

  UucsServer recovered(2, 4);
  EXPECT_EQ(recovered.attach_journal(path), 3u);  // registration + 2 results
  EXPECT_TRUE(recovered.is_registered(guid));
  EXPECT_EQ(recovered.results().size(), 2u);
  EXPECT_TRUE(recovered.has_result("a/0"));
  EXPECT_TRUE(recovered.has_result("a/1"));

  // Dedup survives recovery: a client retrying the same upload is acked
  // without double-storing.
  Durable durable(recovered);
  const SyncResponse resp =
      durable.hot_sync(upload(guid, {result("a/1"), result("a/2")}, 2));
  EXPECT_EQ(resp.duplicate_results, 1u);
  EXPECT_EQ(resp.accepted_results, 1u);
  EXPECT_EQ(recovered.results().size(), 3u);
}

TEST(ServerJournal, SaveCompactsJournal) {
  TempDir dir;
  const std::string path = dir.file("server.journal");
  UucsServer server(1, 4);
  server.attach_journal(path);
  Durable durable(server);
  const Guid guid = durable.register_client(HostSpec::paper_study_machine(), 0.0);
  std::vector<RunRecord> batch;
  for (int i = 0; i < 50; ++i) batch.push_back(result("b/" + std::to_string(i)));
  durable.hot_sync(upload(guid, std::move(batch)));
  const std::size_t before = read_file(path).size();
  EXPECT_GT(before, 0u);

  durable.save(dir.file("snapshot"));
  EXPECT_LT(read_file(path).size(), before);

  // Snapshot + compacted journal together restore the full state.
  UucsServer loaded = UucsServer::load(dir.file("snapshot"), 3);
  EXPECT_EQ(loaded.attach_journal(path), 0u);
  EXPECT_EQ(loaded.results().size(), 50u);
  EXPECT_TRUE(loaded.is_registered(guid));
  EXPECT_TRUE(loaded.has_result("b/49"));
}

TEST(ServerJournal, RegistrationNonceDedupSurvivesRecovery) {
  TempDir dir;
  const std::string path = dir.file("server.journal");
  Guid guid;
  {
    UucsServer server(1, 4);
    server.attach_journal(path);
    Durable durable(server);
    guid = durable.register_client(HostSpec::paper_study_machine(), 1.0, "nonce-a");
    // Retry of a registration whose response was lost: same client, same
    // GUID, no orphan row.
    EXPECT_EQ(durable.register_client(HostSpec::paper_study_machine(), 2.0,
                                      "nonce-a"),
              guid);
    EXPECT_EQ(server.client_count(), 1u);
    // A different nonce is a different client.
    EXPECT_NE(durable.register_client(HostSpec::paper_study_machine(), 2.5,
                                      "nonce-b"),
              guid);
    EXPECT_EQ(server.client_count(), 2u);
  }

  // The dedup index is rebuilt from the journal: a late retry still
  // resolves to the original registration.
  UucsServer recovered(2, 4);
  recovered.attach_journal(path);
  EXPECT_EQ(recovered.client_count(), 2u);
  Durable durable(recovered);
  EXPECT_EQ(durable.register_client(HostSpec::paper_study_machine(), 3.0,
                                    "nonce-a"),
            guid);
  EXPECT_EQ(recovered.client_count(), 2u);

  // ... and from a snapshot too.
  durable.save(dir.file("snapshot"));
  UucsServer loaded = UucsServer::load(dir.file("snapshot"), 3);
  EXPECT_EQ(loaded.register_client(HostSpec::paper_study_machine(), 4.0,
                                   "nonce-a"),
            guid);
  EXPECT_EQ(loaded.client_count(), 2u);
}

TEST(ServerJournal, TornTailTolerated) {
  TempDir dir;
  const std::string path = dir.file("server.journal");
  {
    UucsServer server(1, 4);
    server.attach_journal(path);
    Durable durable(server);
    const Guid guid = durable.register_client(HostSpec::paper_study_machine(), 0.0);
    durable.hot_sync(upload(guid, {result("c/0")}));
  }
  // A crash tore the last frame in half.
  std::string contents = read_file(path);
  write_file(path, contents.substr(0, contents.size() - 10));

  UucsServer recovered(1, 4);
  recovered.attach_journal(path);
  // The torn result is gone (its ack never reached the client, so the
  // client will re-upload it); the registration before it is intact.
  EXPECT_EQ(recovered.client_count(), 1u);
  EXPECT_EQ(recovered.results().size(), 0u);
}

TEST(ServerJournal, CallWithoutJournalOutIsRefusedBeforeAnyChange) {
  // A journaled server has nowhere to put the entries of a direct call, so
  // it must refuse the call outright: applying it would produce an ack
  // whose state is not durable.
  TempDir dir;
  UucsServer server(1, 4);
  server.attach_journal(dir.file("server.journal"));
  Durable durable(server);
  const Guid guid = durable.register_client(HostSpec::paper_study_machine(), 0.0);
  durable.hot_sync(upload(guid, {result("d/0")}));
  ASSERT_EQ(server.client_count(), 1u);
  ASSERT_EQ(server.results().size(), 1u);

  EXPECT_THROW(server.register_client(HostSpec::paper_study_machine(), 1.0, "n"),
               Error);
  EXPECT_THROW(server.hot_sync(upload(guid, {result("d/1")}, 2)), Error);
  EXPECT_EQ(server.client_count(), 1u);
  EXPECT_EQ(server.results().size(), 1u);
  EXPECT_FALSE(server.has_result("d/1"));
  EXPECT_EQ(server.registration(guid).sync_count, 1u);
}

}  // namespace
}  // namespace uucs
