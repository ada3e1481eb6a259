// Takeover unit tests: the old-process TakeoverController and new-process
// TakeoverClient drive a full live handoff over a real unix-domain control
// socket inside one test process — listening-socket transfer via SCM_RIGHTS,
// state cursor handover, readiness confirmation — plus the rollback paths
// (successor death before readiness, replay count mismatch) and the
// stage-hook crash simulation. A scripted predecessor checks the client
// against frames queued ahead of its reads and against seeded mutations of
// the control frames; scripted pressure probes check that the memory
// monitor cannot re-open a paused accept gate on either side.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/takeover.hpp"
#include "testcase/suite.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/kvtext.hpp"
#include "util/rng.hpp"

namespace uucs {
namespace {

using namespace std::chrono_literals;

IngestServer::Config plane_config(const std::string& state_dir) {
  IngestServer::Config cfg;
  cfg.loop.port = 0;
  cfg.loop.workers = 2;
  cfg.loop.idle_timeout_s = 5.0;
  cfg.commit.max_wait_us = 200;
  cfg.state_dir = state_dir;
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

bool eventually(const std::function<bool()>& pred, double timeout_s = 5.0) {
  for (int i = 0; i < static_cast<int>(timeout_s * 100); ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

/// Turns on the memory-pressure accept gate, fed only by `probes` (not the
/// journal's write site), probing every 5 ms.
void gate_on_pressure(IngestServer::Config& cfg, ResourceFailpoints& probes) {
  cfg.overload.min_available_frac = 0.25;
  cfg.overload.pressure_interval_s = 0.005;
  cfg.overload.failpoints = &probes;
}

/// `n` consecutive probes reporting `available_frac`.
ResourceFaultSchedule probes_at(double available_frac, std::size_t n = 10000) {
  return ResourceFaultSchedule::scripted(std::vector<ResourceFaultAction>(
      n, ResourceFaultAction{ResourceFaultKind::kPressure, 0.0, available_frac}));
}

/// The "old process": a live ingest plane with a takeover controller on a
/// unix socket under its own state dir.
struct OldProcess {
  TempDir dir;
  std::atomic<bool> handed_off{false};
  std::unique_ptr<UucsServer> server;
  std::unique_ptr<IngestServer> ingest;
  std::unique_ptr<TakeoverController> controller;
  std::string sock;

  explicit OldProcess(TakeoverController::Config extra = {},
                      ResourceFailpoints* pressure_probes = nullptr) {
    server = std::make_unique<UucsServer>(1, 4, /*shard_count=*/2);
    server->add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server->attach_journal(dir.file("server.journal"));
    IngestServer::Config cfg = plane_config(dir.path());
    if (pressure_probes != nullptr) gate_on_pressure(cfg, *pressure_probes);
    ingest = std::make_unique<IngestServer>(*server, cfg);
    sock = dir.file("takeover.sock");
    TakeoverController::Config tc = std::move(extra);
    tc.socket_path = sock;
    tc.state_dir = dir.path();
    tc.journal_path = dir.file("server.journal");
    tc.drain_timeout_s = 2.0;
    tc.on_handed_off = [this] { handed_off.store(true); };
    controller = std::make_unique<TakeoverController>(*ingest, *server, tc);
  }

  /// Registers one client and uploads `n` records over real TCP.
  Guid seed_state(int n, const std::string& nonce = "takeover-test-nonce") {
    auto ch = TcpChannel::connect("127.0.0.1", ingest->port(), {5, 5, 5});
    RemoteServerApi api(*ch);
    const Guid guid = api.register_client(HostSpec::paper_study_machine(), nonce);
    SyncRequest req;
    req.guid = guid;
    req.protocol_version = 2;
    for (int i = 0; i < n; ++i) {
      req.results.push_back(make_result("seeded/" + std::to_string(i)));
    }
    api.hot_sync(req);
    ch->close();
    return guid;
  }

  bool wait_rollback(double timeout_s = 5.0) {
    for (int i = 0; i < static_cast<int>(timeout_s * 100); ++i) {
      if (controller->rollbacks() > 0) return true;
      std::this_thread::sleep_for(10ms);
    }
    return false;
  }
};

/// The "new process": everything after TakeoverClient::begin() — replay the
/// snapshot + journal, build a paused plane on the inherited socket.
struct NewProcess {
  std::unique_ptr<UucsServer> server;
  std::unique_ptr<IngestServer> ingest;

  explicit NewProcess(TakeoverClient::Inherited& inh, std::uint64_t seed = 2) {
    server = std::make_unique<UucsServer>(
        UucsServer::load(inh.state_dir, seed, /*shard_count=*/2));
    server->attach_journal(inh.journal_path);
    server->set_generation(inh.generation);
    IngestServer::Config cfg = plane_config(inh.state_dir);
    cfg.loop.adopted_fd = inh.listener.release();
    cfg.loop.start_paused = true;
    ingest = std::make_unique<IngestServer>(*server, cfg);
  }
};

TEST(Takeover, FullHandoffPreservesStateSocketAndDedup) {
  OldProcess old;
  const Guid guid = old.seed_state(2);
  const std::uint16_t port = old.ingest->port();

  TakeoverClient take(old.sock);
  TakeoverClient::Inherited inh = take.begin();
  EXPECT_EQ(inh.port, port);
  EXPECT_EQ(inh.expect_clients, 1u);
  EXPECT_EQ(inh.expect_results, 2u);
  EXPECT_EQ(inh.generation, 1u);  // predecessor was generation 0
  ASSERT_TRUE(inh.listener.valid());

  NewProcess next(inh);
  EXPECT_EQ(next.ingest->port(), port);  // recovered from the inherited fd
  EXPECT_EQ(next.server->client_count(), 1u);
  EXPECT_EQ(next.server->results().size(), 2u);

  const auto go = take.confirm_ready(next.server->client_count(),
                                     next.server->results().size());
  ASSERT_EQ(go, TakeoverClient::Go::kServe);
  next.ingest->resume();

  for (int i = 0; i < 500 && !old.handed_off.load(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(old.handed_off.load());
  EXPECT_TRUE(old.controller->handed_off());
  EXPECT_EQ(old.controller->rollbacks(), 0u);

  // The same port now answers from the new plane: the re-uploaded record is
  // a duplicate (dedup state survived the handoff), a fresh one is accepted,
  // and the response carries the bumped generation.
  auto ch = TcpChannel::connect("127.0.0.1", port, {5, 5, 5});
  RemoteServerApi api(*ch);
  SyncRequest req;
  req.guid = guid;
  req.protocol_version = 2;
  req.results.push_back(make_result("seeded/0"));
  req.results.push_back(make_result("fresh/0"));
  const SyncResponse resp = api.hot_sync(req);
  EXPECT_EQ(resp.duplicate_results, 1u);
  EXPECT_EQ(resp.accepted_results, 1u);
  EXPECT_EQ(resp.server_generation, 1u);
  ch->close();

  EXPECT_EQ(next.server->results().size(), 3u);
  next.ingest->stop();
  old.ingest->stop();  // the old process exits without another snapshot
}

TEST(Takeover, SuccessorDeathBeforeReadyRollsBack) {
  OldProcess old;
  const Guid guid = old.seed_state(1);
  const std::uint16_t port = old.ingest->port();

  {
    TakeoverClient take(old.sock);
    TakeoverClient::Inherited inh = take.begin();
    ASSERT_TRUE(inh.listener.valid());
    // The successor dies here: control connection and inherited fd close
    // without a ready message.
  }

  ASSERT_TRUE(old.wait_rollback());
  EXPECT_EQ(old.controller->rollbacks(), 1u);
  EXPECT_FALSE(old.controller->handed_off());

  // The old process resumed: the same port serves, state intact.
  auto ch = TcpChannel::connect("127.0.0.1", port, {5, 5, 5});
  RemoteServerApi api(*ch);
  SyncRequest req;
  req.guid = guid;
  req.protocol_version = 2;
  req.results.push_back(make_result("seeded/0"));
  const SyncResponse resp = api.hot_sync(req);
  EXPECT_EQ(resp.duplicate_results, 1u);
  EXPECT_EQ(resp.server_generation, 0u);  // still the old generation
  ch->close();
}

TEST(Takeover, ReplayCountMismatchAborts) {
  OldProcess old;
  old.seed_state(3);
  const std::uint16_t port = old.ingest->port();

  TakeoverClient take(old.sock);
  TakeoverClient::Inherited inh = take.begin();
  // The successor claims a wrong replay: the predecessor must refuse to
  // retire and tell the successor not to serve.
  const auto go = take.confirm_ready(inh.expect_clients + 5, inh.expect_results);
  EXPECT_EQ(go, TakeoverClient::Go::kAbort);

  ASSERT_TRUE(old.wait_rollback());
  EXPECT_FALSE(old.controller->handed_off());

  auto ch = TcpChannel::connect("127.0.0.1", port, {5, 5, 5});
  RemoteServerApi api(*ch);
  EXPECT_NO_THROW(api.register_client(HostSpec::paper_study_machine(), "post-abort"));
  ch->close();
}

TEST(Takeover, SecondAttemptSucceedsAfterRollback) {
  OldProcess old;
  old.seed_state(1);
  {
    TakeoverClient doomed(old.sock);
    doomed.begin();  // dies without confirming
  }
  ASSERT_TRUE(old.wait_rollback());

  // A retried takeover must sweep everything accepted since the rollback.
  old.seed_state(0, "second-client");  // registered after the failed attempt

  TakeoverClient take(old.sock);
  TakeoverClient::Inherited inh = take.begin();
  EXPECT_EQ(inh.expect_clients, 2u);
  NewProcess next(inh);
  const auto go = take.confirm_ready(next.server->client_count(),
                                     next.server->results().size());
  ASSERT_EQ(go, TakeoverClient::Go::kServe);
  next.ingest->resume();
  for (int i = 0; i < 500 && !old.handed_off.load(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(old.controller->handed_off());
  next.ingest->stop();
  old.ingest->stop();
}

TEST(Takeover, StageHookKillLeavesRecoverableState) {
  // Simulated kill -9 of the old process right before the fd would be sent:
  // flush and snapshot already ran, nothing was handed over. A restart from
  // the state dir (exactly what uucs_server does) must hold every record.
  TakeoverController::Config hooked;
  hooked.stage_hook = [](TakeoverStage s) { return s != TakeoverStage::kSendFd; };
  OldProcess old(std::move(hooked));
  const Guid guid = old.seed_state(2);

  TakeoverClient take(old.sock);
  EXPECT_THROW(take.begin(), Error);
  EXPECT_TRUE(old.controller->killed());
  EXPECT_FALSE(old.controller->handed_off());

  old.ingest->stop();  // the "killed" process never snapshots again

  auto revived = std::make_unique<UucsServer>(
      UucsServer::load(old.dir.path(), 9, /*shard_count=*/2));
  revived->attach_journal(old.dir.file("server.journal"));
  EXPECT_TRUE(revived->is_registered(guid));
  EXPECT_EQ(revived->results().size(), 2u);
  EXPECT_TRUE(revived->has_result("seeded/0"));
  EXPECT_TRUE(revived->has_result("seeded/1"));
}

TEST(Takeover, PressureSpellCannotReopenAcceptMidHandoff) {
  // A pressure spell shuts the accept gate before the takeover starts and
  // clears while the old process drains. The monitor must stay out of the
  // gate from the pause on: re-opening it would resume accepting (and leave
  // drain mode) in the middle of the handoff.
  ResourceFailpoints probes;
  probes.arm(probes_at(0.01));
  IngestServer* plane = nullptr;
  std::atomic<bool> paused_at_snapshot{false};
  TakeoverController::Config hooked;
  hooked.stage_hook = [&](TakeoverStage s) {
    if (s == TakeoverStage::kDrain) {
      const std::uint64_t seen = plane->overload_stats().probes;
      probes.arm(probes_at(0.9));
      eventually([&] { return plane->overload_stats().probes >= seen + 5; });
    }
    if (s == TakeoverStage::kSnapshot) {
      paused_at_snapshot.store(plane->loop().accept_paused());
      return false;  // stop here; the assertion is about this instant
    }
    return true;
  };
  OldProcess old(std::move(hooked), &probes);
  plane = old.ingest.get();
  ASSERT_TRUE(eventually([&] { return plane->loop().accept_paused(); }));

  TakeoverClient take(old.sock);
  EXPECT_THROW(take.begin(), Error);
  ASSERT_TRUE(old.controller->killed());
  EXPECT_TRUE(paused_at_snapshot.load());
  old.ingest->stop();
}

TEST(Takeover, PausedSuccessorStaysPausedThroughPressureUntilResume) {
  // A successor's plane is built paused and must not accept before its
  // predecessor retires, whatever the pressure monitor sees meanwhile.
  ResourceFailpoints probes;
  std::vector<ResourceFaultAction> spell(
      8, ResourceFaultAction{ResourceFaultKind::kPressure, 0.0, 0.01});
  spell.resize(10000, ResourceFaultAction{ResourceFaultKind::kPressure, 0.0, 0.9});
  probes.arm(ResourceFaultSchedule::scripted(spell));
  TempDir dir;
  UucsServer server(1, 4, /*shard_count=*/2);
  IngestServer::Config cfg = plane_config(dir.path());
  cfg.loop.start_paused = true;
  gate_on_pressure(cfg, probes);
  IngestServer ingest(server, cfg);

  // Past the spell's entry (probe 1) and its exit (probe 9).
  ASSERT_TRUE(eventually([&] { return ingest.overload_stats().probes >= 20; }));
  EXPECT_TRUE(ingest.loop().accept_paused());

  ingest.resume();
  EXPECT_FALSE(ingest.loop().accept_paused());
  ingest.stop();
}

/// A hand-scripted predecessor: a unix-domain control socket whose single
/// connection runs `script` on its own thread, handed the control channel
/// and the fd of a live listening socket to pass over it.
struct ScriptedPredecessor {
  TempDir dir;
  std::string sock = dir.file("takeover.sock");
  TcpListener listener{0};  ///< the "live" socket the script hands over
  UniqueFd control;
  std::thread thread;

  explicit ScriptedPredecessor(std::function<void(TcpChannel&, int)> script) {
    control.reset(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(control.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(control.get(), 1) != 0) {
      throw SystemError("scripted predecessor: " + std::string(std::strerror(errno)));
    }
    thread = std::thread([this, script = std::move(script)] {
      UniqueFd conn(::accept4(control.get(), nullptr, nullptr, SOCK_CLOEXEC));
      if (!conn) return;
      TcpChannel ch(conn.release(), {0.0, 0.3, 0.3});
      try {
        script(ch, listener.native_handle());
      } catch (const Error&) {
        // The client under test may hang up at any point.
      }
    });
  }
  ~ScriptedPredecessor() {
    ::shutdown(control.get(), SHUT_RDWR);  // wakes an accept nobody reached
    thread.join();
  }

  static std::string framed(const KvRecord& rec) {
    return TcpChannel::frame(kv_serialize({rec}));
  }
  static KvRecord accept_record() {
    KvRecord rec("takeover-accept");
    rec.set_int("version", 1);
    rec.set_int("port", 4242);
    return rec;
  }
  static KvRecord state_record() {
    KvRecord rec("takeover-state");
    rec.set_int("version", 1);
    rec.set("state_dir", "/nonexistent/state");
    rec.set("journal", "/nonexistent/state/server.journal");
    rec.set_int("clients", 3);
    rec.set_int("results", 7);
    rec.set_int("generation", 5);
    rec.set_int("port", 4242);
    return rec;
  }
};

TEST(Takeover, ListenerFdSurvivesFramesQueuedAheadOfTheClient) {
  // Accept, fd carrier and state are all in the client's receive queue
  // before its first read. A read that takes more than one frame's bytes
  // swallows the carrier byte, and the kernel drops the fd with it.
  std::atomic<bool> queued{false};
  ScriptedPredecessor pred([&](TcpChannel& ch, int live_fd) {
    ch.write_bytes(ScriptedPredecessor::framed(ScriptedPredecessor::accept_record()));
    ch.send_fd(live_fd);
    ch.write_bytes(ScriptedPredecessor::framed(ScriptedPredecessor::state_record()));
    queued.store(true);
    ch.set_deadlines({0.0, 5.0, 5.0});
    ch.read();  // the hello, so closing leaves nothing unread
  });
  TakeoverClient take(pred.sock);
  ASSERT_TRUE(eventually([&] { return queued.load(); }));

  TakeoverClient::Inherited inh;
  ASSERT_NO_THROW(inh = take.begin());
  ASSERT_TRUE(inh.listener.valid());
  TcpListener adopted(TcpListener::AdoptFd{inh.listener.release()});
  EXPECT_EQ(adopted.port(), pred.listener.port());
  const UniqueFd close_without_shutdown(adopted.release());
  EXPECT_EQ(inh.expect_clients, 3u);
  EXPECT_EQ(inh.expect_results, 7u);
  EXPECT_EQ(inh.generation, 5u);
}

/// Flips, deletes or inserts 1-8 bytes (the ProtocolFuzz mutation).
std::string mutate(const std::string& base, Rng& rng) {
  std::string s = base;
  const int edits = static_cast<int>(rng.uniform_int(1, 8));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        s[pos] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:
        s.erase(pos, 1);
        break;
      default:
        s.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
        break;
    }
  }
  return s;
}

TEST(TakeoverFuzz, MutatedControlFramesEndTypedOrValid) {
  // A predecessor that sends corrupt takeover-accept / takeover-state /
  // takeover-go bytes (header included) must cost the successor a typed
  // error or nothing; a successful begin() must carry a real listener.
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    Rng rng(seed);
    for (int i = 0; i < 15; ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " run " + std::to_string(i));
      std::vector<std::string> frames = {
          ScriptedPredecessor::framed(ScriptedPredecessor::accept_record()),
          ScriptedPredecessor::framed(ScriptedPredecessor::state_record()),
          ScriptedPredecessor::framed(KvRecord("takeover-go"))};
      std::string& target = frames[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      target = mutate(target, rng);
      ScriptedPredecessor pred([&](TcpChannel& ch, int live_fd) {
        ch.read();  // hello
        ch.write_bytes(frames[0]);
        ch.send_fd(live_fd);
        ch.write_bytes(frames[1]);
        ch.read();  // ready
        ch.write_bytes(frames[2]);
      });
      TakeoverClient take(pred.sock, 0.3);
      try {
        const TakeoverClient::Inherited inh = take.begin();
        EXPECT_TRUE(inh.listener.valid());
        const TakeoverClient::Go go = take.confirm_ready(3, 7, 0.3);
        EXPECT_TRUE(go == TakeoverClient::Go::kServe ||
                    go == TakeoverClient::Go::kAbort);
      } catch (const Error&) {
        // Typed: ProtocolError, ParseError, TimeoutError, an abort.
      } catch (const std::exception& e) {
        ADD_FAILURE() << "untyped exception: " << e.what();
      }
    }
  }
}

TEST(Takeover, ConfigValidation) {
  OldProcess old;
  TakeoverController::Config bad;
  bad.state_dir = old.dir.path();
  bad.journal_path = old.dir.file("server.journal");
  EXPECT_THROW(TakeoverController(*old.ingest, *old.server, bad), ConfigError);

  EXPECT_THROW(TakeoverClient("/nonexistent/never/takeover.sock"), SystemError);
}

}  // namespace
}  // namespace uucs
