// Chaos tests: a real client talking to a real TCP server through a
// deterministic FaultyChannel. The invariant under every fault schedule is
// exactly-once delivery — each minted run_id ends up in the server's
// ResultStore exactly once, no record lost, no record duplicated.

#include <gtest/gtest.h>

#include <thread>

#include "client/client.hpp"
#include "client/daemon.hpp"
#include "client/feedback.hpp"
#include "client/run_executor.hpp"
#include "server/fault_injection.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/retry.hpp"
#include "server/server.hpp"
#include "testcase/suite.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace uucs {
namespace {

/// The ingest plane under chaos: the same epoll event loop + worker pool +
/// group-commit committer the deployable daemon runs, tuned for test-speed
/// commit windows. Connections that die of injected faults are just closed
/// sockets to the event loop; the next retry connects fresh.
IngestServer::Config chaos_config() {
  IngestServer::Config cfg;
  cfg.loop.port = 0;
  cfg.loop.workers = 2;
  cfg.loop.idle_timeout_s = 5.0;
  cfg.commit.max_wait_us = 200;
  return cfg;
}

RunRecord make_result(const std::string& run_id) {
  RunRecord r;
  r.run_id = run_id;
  r.testcase_id = "memory-ramp-x1-t120";
  r.task = "quake";
  r.discomforted = true;
  r.offset_s = 42.0;
  return r;
}

/// Builds a RetryingServerApi whose every connection runs through a
/// FaultyChannel drawing from one shared schedule.
std::unique_ptr<RetryingServerApi> faulty_api(
    std::uint16_t port, std::shared_ptr<ChannelFaultSchedule> schedule, Clock& clock,
    FaultyChannel::Stats* stats) {
  RetryPolicy policy;
  policy.max_attempts = 25;  // survive long unlucky fault streaks
  policy.base_delay_s = 0.001;
  policy.max_delay_s = 0.01;
  return std::make_unique<RetryingServerApi>(
      [port, schedule, stats] {
        return std::make_unique<FaultyChannel>(
            TcpChannel::connect("127.0.0.1", port, {1.0, 0.05, 1.0}), schedule,
            stats);
      },
      clock, policy);
}

TEST(Chaos, ExactlyOnceAcross50Seeds) {
  std::size_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    UucsServer server(seed, 4, /*shard_count=*/4);
    server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    IngestServer ingest(server, chaos_config());

    auto schedule = std::make_shared<ChannelFaultSchedule>(
        ChannelFaultSchedule::seeded(seed, ChannelFaultProfile::moderate()));
    FaultyChannel::Stats stats;
    VirtualClock clock;  // backoff sleeps cost no wall time
    auto api = faulty_api(ingest.port(), schedule, clock, &stats);

    UucsClient client(HostSpec::paper_study_machine());
    std::vector<std::string> minted;
    // Four syncs of two records each, all through the hostile transport.
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 2; ++i) {
        const std::string id = client.next_run_id();
        minted.push_back(id);
        client.record_result(make_result(id));
      }
      for (int attempt = 0; attempt < 40 && !client.pending_results().empty();
           ++attempt) {
        try {
          client.hot_sync(*api);
        } catch (const Error&) {
          // Even 25 attempts can lose to the schedule; keep going.
        }
      }
    }
    ASSERT_TRUE(client.pending_results().empty())
        << "seed " << seed << ": records stranded on the client";

    // Drop the client connection, then stop the ingest plane (the event
    // loop notices the close via EPOLLRDHUP, no deadline to wait out).
    api->disconnect();
    ingest.stop();

    // The invariant: every minted run_id stored exactly once, nothing else.
    ASSERT_EQ(server.results().size(), minted.size()) << "seed " << seed;
    for (const auto& id : minted) {
      std::size_t copies = 0;
      for (const auto& r : server.results().records()) {
        if (r.run_id == id) ++copies;
      }
      ASSERT_EQ(copies, 1u) << "seed " << seed << ", run " << id;
    }
    total_faults += stats.faults();
  }
  // The schedules must actually have bitten, or this test proves nothing.
  EXPECT_GT(total_faults, 200u);
}

TEST(Chaos, RealDaemonSurvivesFaultyTransport) {
  UucsServer server(7, 4, /*shard_count=*/4);
  for (int i = 0; i < 6; ++i) {
    server.add_testcase(make_ramp_testcase(Resource::kCpu, 0.2 + 0.1 * i, 0.05, 20.0));
  }
  IngestServer ingest(server, chaos_config());

  auto schedule = std::make_shared<ChannelFaultSchedule>(
      ChannelFaultSchedule::seeded(99, ChannelFaultProfile::moderate()));
  RealClock clock;
  auto api = faulty_api(ingest.port(), schedule, clock, nullptr);

  ClientConfig cfg;
  cfg.sync_interval_s = 0.1;
  cfg.mean_run_interarrival_s = 0.04;
  UucsClient client(HostSpec::paper_study_machine(), cfg);

  TempDir dir;
  ExerciserConfig ex_cfg;
  ex_cfg.subinterval_s = 0.005;
  ex_cfg.memory_pool_bytes = 4u << 20;
  ex_cfg.disk_file_bytes = 2u << 20;
  ex_cfg.disk_dir = dir.path();
  ex_cfg.max_threads = 2;
  ExerciserSet exercisers(clock, ex_cfg);
  ProgrammaticFeedback feedback;
  RunExecutor executor(clock, exercisers, feedback, nullptr, 0.005);
  ClientDaemon daemon(clock, client, *api, executor, "chaos-task");

  const std::size_t runs = daemon.run(1.5);
  api->disconnect();
  ingest.stop();

  EXPECT_GT(runs, 0u);
  EXPECT_TRUE(client.registered());
  // Whatever was acked is on the server exactly once; whatever was not is
  // still pending locally — nothing vanished in between. (A record can be
  // on the server AND still pending when the daemon's last sync lost its
  // response, so the two sides bound `runs` from above, not exactly.)
  for (const auto& r : server.results().records()) {
    std::size_t copies = 0;
    for (const auto& s : server.results().records()) {
      if (s.run_id == r.run_id) ++copies;
    }
    EXPECT_EQ(copies, 1u) << r.run_id;
  }
  EXPECT_GE(server.results().size() + client.pending_results().size(), runs);
}

TEST(Chaos, KillAndRecoverLosesNoJournaledRecord) {
  TempDir dir;
  const std::string server_journal = dir.file("server.journal");
  const std::string client_journal = dir.file("client.journal");

  Guid guid;
  std::vector<std::string> minted;
  {
    UucsServer server(3, 4, /*shard_count=*/4);
    server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server.attach_journal(server_journal);
    IngestServer ingest(server, chaos_config());

    auto schedule = std::make_shared<ChannelFaultSchedule>(
        ChannelFaultSchedule::seeded(11, ChannelFaultProfile::moderate()));
    VirtualClock clock;
    auto api = faulty_api(ingest.port(), schedule, clock, nullptr);

    UucsClient client(HostSpec::paper_study_machine());
    client.attach_journal(client_journal);
    client.ensure_registered(*api);
    guid = client.guid();
    // Three records synced through chaos, two more only journaled locally.
    for (int i = 0; i < 3; ++i) {
      minted.push_back(client.next_run_id());
      client.record_result(make_result(minted.back()));
    }
    for (int attempt = 0; attempt < 40 && !client.pending_results().empty();
         ++attempt) {
      try {
        client.hot_sync(*api);
      } catch (const Error&) {
      }
    }
    ASSERT_TRUE(client.pending_results().empty());
    for (int i = 0; i < 2; ++i) {
      minted.push_back(client.next_run_id());
      client.record_result(make_result(minted.back()));
    }
    api->disconnect();
    ingest.stop();
    // SIGKILL-style teardown: neither side gets to call save().
  }

  // Both sides rebuild from their journals alone.
  UucsServer server(4, 4, /*shard_count=*/4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.attach_journal(server_journal);
  EXPECT_TRUE(server.is_registered(guid));
  EXPECT_EQ(server.results().size(), 3u);

  UucsClient client(HostSpec::paper_study_machine());
  client.attach_journal(client_journal);
  EXPECT_EQ(client.guid(), guid);
  EXPECT_EQ(client.pending_results().size(), 2u);

  // A clean final sync delivers the stragglers: five records, each once.
  IngestServer ingest(server, chaos_config());
  auto channel = TcpChannel::connect("127.0.0.1", ingest.port(), {1.0, 5.0, 1.0});
  RemoteServerApi api(*channel);
  client.hot_sync(api);
  ingest.stop();
  EXPECT_EQ(server.results().size(), minted.size());
  for (const auto& id : minted) EXPECT_TRUE(server.has_result(id)) << id;
}

}  // namespace
}  // namespace uucs
