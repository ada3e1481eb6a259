// Chaos-overload tests: the ingest plane under *server-side* resource
// faults — the journal disk filling up or dying (ENOSPC/EIO), fsyncs
// crawling (slow-fsync), a reconnect storm against a tiny admission queue,
// and host memory pressure squeezing the accept gate. All over real TCP
// with deterministic seeded ResourceFailpoints. The invariant everywhere is
// the same as the transport-chaos suite's: every acked record is stored
// exactly once and survives on disk; nothing is lost, nothing duplicated,
// and the server always recovers once the fault clears.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/retry.hpp"
#include "server/server.hpp"
#include "testcase/suite.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/journal.hpp"

namespace uucs {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kSeeds = 20;

bool eventually(const std::function<bool()>& pred, double timeout_s = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int>(timeout_s * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

/// Ingest plane tuned for chaos: fast commit windows, fast degraded-recovery
/// probes, slow-fsync adaptation armed, and a 1 ms backoff hint so retries
/// cost the test almost nothing.
IngestServer::Config chaos_config(ResourceFailpoints* fp) {
  IngestServer::Config cfg;
  cfg.loop.port = 0;
  cfg.loop.workers = 2;
  cfg.loop.idle_timeout_s = 5.0;
  cfg.commit.max_wait_us = 200;
  cfg.commit.recheck_interval_ms = 5;
  cfg.commit.slow_fsync_threshold_s = 0.005;
  cfg.overload.retry_after_ms = 1;
  cfg.failpoints = fp;
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

std::unique_ptr<RetryingServerApi> retrying_api(std::uint16_t port, Clock& clock,
                                                std::uint64_t jitter_seed) {
  RetryPolicy policy;
  policy.max_attempts = 25;
  policy.base_delay_s = 0.001;
  policy.max_delay_s = 0.01;
  policy.jitter_seed = jitter_seed;
  return std::make_unique<RetryingServerApi>(
      [port] { return TcpChannel::connect("127.0.0.1", port, {1.0, 1.0, 1.0}); },
      clock, policy);
}

/// Drives hot syncs until the client has drained its pending records.
/// Individual syncs may lose to the fault schedule (including exhausting
/// the api's 25 attempts); the outer loop keeps going against a real-time
/// budget so a hung server fails the test instead of wedging it.
void drain_pending(UucsClient& client, RetryingServerApi& api,
                   const std::string& context) {
  ASSERT_TRUE(eventually(
      [&] {
        if (client.pending_results().empty()) return true;
        try {
          client.hot_sync(api);
        } catch (const Error&) {
          // shed, degraded, or transport-torn; back off and try again
        }
        return client.pending_results().empty();
      },
      20.0))
      << context << ": records still pending after the time budget";
}

/// Every minted run_id stored exactly once — on the live server and,
/// when a journal path is given, in a fresh server rebuilt from the
/// journal alone (acked means durable, not just in memory).
void assert_exactly_once(UucsServer& server, const std::vector<std::string>& minted,
                         const std::string& context) {
  ASSERT_EQ(server.results().size(), minted.size()) << context;
  for (const auto& id : minted) {
    std::size_t copies = 0;
    for (const auto& r : server.results().records()) {
      if (r.run_id == id) ++copies;
    }
    ASSERT_EQ(copies, 1u) << context << ", run " << id;
  }
}

TEST(ChaosOverload, ExactlyOnceUnderSeededJournalFaults) {
  std::uint64_t total_faults = 0;
  std::uint64_t total_degraded_spells = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string context = "seed " + std::to_string(seed);
    TempDir dir;
    ResourceFailpoints fp;
    UucsServer server(seed, 4, /*shard_count=*/4);
    server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server.attach_journal(dir.file("server.journal"));
    IngestServer ingest(server, chaos_config(&fp));

    // Hostile from the first batch: registrations and uploads both cross a
    // disk that fails ~30% of attempts and stalls another ~15%.
    ResourceFaultProfile hostile = ResourceFaultProfile::server_hostile();
    hostile.enospc = 0.20;
    hostile.eio = 0.10;
    hostile.slow = 0.15;
    hostile.slow_s = 0.002;
    fp.arm(ResourceFaultSchedule::seeded(seed, hostile));

    VirtualClock clock;  // retry sleeps cost no wall time
    auto api = retrying_api(ingest.port(), clock, seed);
    UucsClient client(HostSpec::paper_study_machine());
    std::vector<std::string> minted;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 2; ++i) {
        minted.push_back(client.next_run_id());
        client.record_result(make_result(minted.back()));
      }
      drain_pending(client, *api, context);
    }

    // Fault source off: the journal must recover and replay every parked
    // entry, after which all acked state is durable.
    fp.disarm();
    ASSERT_TRUE(eventually(
        [&] { return ingest.journal_health() == GroupCommitJournal::Health::kOk; }))
        << context << ": journal never recovered";
    ingest.flush_commits();

    assert_exactly_once(server, minted, context);
    const auto fstats = fp.stats();
    total_faults += fstats.enospc + fstats.eio + fstats.slow;
    total_degraded_spells += ingest.commit_stats().degraded_spells;
    api->disconnect();
    ingest.stop();

    // Acked means durable: a server rebuilt from the journal alone holds
    // every record.
    UucsServer rebuilt(seed + 1000, 4, /*shard_count=*/4);
    rebuilt.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    rebuilt.attach_journal(dir.file("server.journal"));
    assert_exactly_once(rebuilt, minted, context + " (rebuilt from journal)");
  }
  // The schedules must actually have bitten, or this test proves nothing.
  EXPECT_GT(total_faults, 20u);
  EXPECT_GT(total_degraded_spells, 0u);
}

TEST(ChaosOverload, SlowFsyncStormWidensBatchesAndLosesNothing) {
  std::uint64_t total_slow = 0;
  std::uint64_t total_widened = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string context = "seed " + std::to_string(seed);
    TempDir dir;
    ResourceFailpoints fp;
    UucsServer server(seed, 4, /*shard_count=*/4);
    server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server.attach_journal(dir.file("server.journal"));
    auto config = chaos_config(&fp);
    config.commit.slow_fsync_threshold_s = 0.001;
    IngestServer ingest(server, config);

    ResourceFaultProfile crawl;  // a loaded disk: 60% of fsyncs take 3 ms
    crawl.slow = 0.6;
    crawl.slow_s = 0.003;
    fp.arm(ResourceFaultSchedule::seeded(seed, crawl));

    VirtualClock clock;
    auto api = retrying_api(ingest.port(), clock, seed);
    UucsClient client(HostSpec::paper_study_machine());
    std::vector<std::string> minted;
    for (int i = 0; i < 6; ++i) {
      minted.push_back(client.next_run_id());
      client.record_result(make_result(minted.back()));
    }
    drain_pending(client, *api, context);

    fp.disarm();
    ingest.flush_commits();
    // A slow disk is never an excuse to lose or duplicate an acked record.
    EXPECT_EQ(ingest.journal_health(), GroupCommitJournal::Health::kOk) << context;
    assert_exactly_once(server, minted, context);
    const auto commit = ingest.commit_stats();
    total_slow += commit.slow_fsyncs;
    total_widened += commit.widened_batches;
    api->disconnect();
    ingest.stop();
  }
  EXPECT_GT(total_slow, 0u) << "no injected stall ever crossed the threshold";
  EXPECT_GT(total_widened, 0u) << "the group window never widened";
}

TEST(ChaosOverload, ReconnectStormIsShedNotCorrupted) {
  std::uint64_t total_sheds = 0;
  std::uint64_t total_busy_retries = 0;
  constexpr int kThreads = 3;
  constexpr int kRecordsPerThread = 4;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string context = "seed " + std::to_string(seed);
    TempDir dir;
    ResourceFailpoints fp;
    UucsServer server(seed, 4, /*shard_count=*/4);
    server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server.attach_journal(dir.file("server.journal"));
    auto config = chaos_config(&fp);
    // A queue this small makes concurrent requests collide constantly: the
    // storm is served by shedding, never by corruption.
    config.overload.max_queue_depth = 1;
    IngestServer ingest(server, config);

    std::vector<std::vector<std::string>> minted(kThreads);
    std::atomic<std::uint64_t> busy_retries{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        VirtualClock clock;
        // Distinct per-thread seeds: each simulated machine must mint its
        // own run_id stream and registration nonce, as real machines do.
        ClientConfig cfg;
        cfg.seed = seed * 1000 + static_cast<std::uint64_t>(t) + 1;
        UucsClient client(HostSpec::paper_study_machine(), cfg);
        // Register before minting run_ids: ids are namespaced by the GUID,
        // and three unregistered machines would collide on the zero GUID.
        {
          auto api = retrying_api(ingest.port(), clock,
                                  seed * 100 + static_cast<std::uint64_t>(t));
          eventually([&] {
            try {
              client.ensure_registered(*api);
            } catch (const Error&) {
            }
            return client.registered();
          });
          busy_retries.fetch_add(api->busy_retries());
          api->disconnect();
        }
        for (int r = 0; r < kRecordsPerThread; ++r) {
          // Fresh connection per record: the reconnect half of the storm.
          auto api = retrying_api(ingest.port(), clock,
                                  seed * 100 + static_cast<std::uint64_t>(t * 10 + r));
          minted[static_cast<std::size_t>(t)].push_back(client.next_run_id());
          client.record_result(make_result(minted[static_cast<std::size_t>(t)].back()));
          eventually(
              [&] {
                if (client.pending_results().empty()) return true;
                try {
                  client.hot_sync(*api);
                } catch (const Error&) {
                }
                return client.pending_results().empty();
              },
              20.0);
          busy_retries.fetch_add(api->busy_retries());
          api->disconnect();
        }
      });
    }
    for (auto& th : clients) th.join();

    std::vector<std::string> all;
    for (const auto& per_thread : minted) {
      all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
    const auto shed = ingest.overload_stats();
    total_sheds += shed.shed_queue + shed.shed_registrations + shed.shed_deadline;
    total_busy_retries += busy_retries.load();
    ingest.flush_commits();
    assert_exactly_once(server, all, context);
    ingest.stop();
  }
  // Across 20 seeds x 3 threads the tiny queue must have shed work, and
  // shed clients must have seen (and survived) typed busy replies.
  EXPECT_GT(total_sheds, 0u);
  EXPECT_GT(total_busy_retries, 0u);
}

TEST(ChaosOverload, MemoryPressureGatesAcceptAndRecovers) {
  std::uint64_t total_pauses = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string context = "seed " + std::to_string(seed);
    TempDir dir;
    ResourceFailpoints fp;
    UucsServer server(seed, 4, /*shard_count=*/4);
    server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server.attach_journal(dir.file("server.journal"));
    auto config = chaos_config(&fp);
    config.overload.min_available_frac = 0.25;
    config.overload.pressure_interval_s = 0.002;
    IngestServer ingest(server, config);

    // ~70% of probes report a starved host: the accept gate slams shut and
    // reopens as the probe stream flaps, while connected work continues.
    ResourceFaultProfile squeeze;
    squeeze.pressure = 0.7;
    squeeze.pressure_available_frac = 0.01;
    fp.arm(ResourceFaultSchedule::seeded(seed, squeeze));

    VirtualClock clock;
    auto api = retrying_api(ingest.port(), clock, seed);
    UucsClient client(HostSpec::paper_study_machine());
    std::vector<std::string> minted;
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 2; ++i) {
        minted.push_back(client.next_run_id());
        client.record_result(make_result(minted.back()));
      }
      drain_pending(client, *api, context);
      // Reconnect between rounds: new connections must still get through —
      // under pressure they queue in the kernel backlog until a resume.
      api->disconnect();
    }

    total_pauses += ingest.overload_stats().pressure_pauses;
    fp.disarm();

    // With the fault source gone the real probe reopens the gate: a brand
    // new connection is accepted and served promptly.
    ASSERT_TRUE(eventually(
        [&] {
          try {
            auto probe_api = retrying_api(ingest.port(), clock, seed + 7);
            UucsClient prober(HostSpec::paper_study_machine());
            prober.ensure_registered(*probe_api);
            probe_api->disconnect();
            return true;
          } catch (const Error&) {
            return false;
          }
        }))
        << context << ": accept gate never reopened";

    ingest.flush_commits();
    assert_exactly_once(server, minted, context);
    api->disconnect();
    ingest.stop();
  }
  EXPECT_GT(total_pauses, 0u) << "pressure never paused accept — gate untested";
}

}  // namespace
}  // namespace uucs
