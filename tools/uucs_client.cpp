/// The deployable UUCS client (§2): registers with a server, keeps local
/// text stores, downloads growing random samples of testcases via hot
/// syncs, executes them at Poisson arrival times with the REAL resource
/// exercisers while you use the machine, and uploads results. Express
/// discomfort with `kill -USR1 <pid>` — the headless stand-in for the
/// paper's tray icon / F11 hot-key. Ctrl-C exits after saving state.
///
/// Usage: uucs_client [--server HOST] [--port P] [--dir STATE_DIR]
///                    [--task LABEL] [--interarrival SECONDS]
///                    [--sync SECONDS] [--duration SECONDS]
///                    [--timeout SECONDS] [--connect-timeout SECONDS]
///                    [--retries N] [--seed N]
///                    [--disk-dir DIR] [--headroom FRAC] [--grace SECONDS]
///                    [--stop-bound SECONDS]
///                    [--failpoint-seed N | --failpoint-script SPEC]
///
/// Host safety: exerciser runs are supervised — a full disk, dying device
/// or memory-starved host degrades the run (typed per-resource outcome on
/// the record) instead of crashing the client. --disk-dir moves the disk
/// scratch file, --headroom sets the memory fraction never borrowed,
/// --grace/--stop-bound tune the run watchdog. --failpoint-seed /
/// --failpoint-script arm deterministic host-fault injection (testing
/// only): SPEC is OP:KIND[,OP:KIND...], KIND one of enospc | eio |
/// slowio[=S] | pressure[=FRAC].
///
/// Fault tolerance: every run record is journaled (fsync'd) to
/// DIR/pending.journal before it is queued, so a crash or SIGKILL loses no
/// completed run. Transport failures are retried with exponential backoff +
/// jitter over a fresh connection (--retries attempts, --timeout per-message
/// deadline), and the server deduplicates uploads by run_id, so a retried
/// sync stores each record exactly once.

#include <csignal>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>

#include "client/daemon.hpp"
#include "server/net.hpp"
#include "server/retry.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/logging.hpp"

namespace {

uucs::ClientDaemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon) g_daemon->stop();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: uucs_client [--server HOST] [--port P] [--dir DIR] "
               "[--task LABEL] [--interarrival S] [--sync S] [--duration S] "
               "[--timeout S] [--connect-timeout S] [--retries N] "
               "[--retry-max-backoff S] [--seed N] "
               "[--disk-dir DIR] [--headroom FRAC] [--grace S] "
               "[--stop-bound S] [--failpoint-seed N | --failpoint-script SPEC]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uucs;
  std::string host = "127.0.0.1";
  std::uint16_t port = 9120;
  std::string dir = "uucs_client_state";
  std::string task = "desktop";
  ClientConfig config;
  config.mean_run_interarrival_s = 600.0;
  config.sync_interval_s = 1800.0;
  // Live clients must not share the compiled-in default seed: it drives the
  // scheduling stream (a fleet syncing in lockstep) and the registration
  // nonce (distinct machines must not alias). --seed overrides for
  // reproducible debugging.
  config.seed = (static_cast<std::uint64_t>(::getpid()) << 32) ^
                static_cast<std::uint64_t>(std::random_device{}()) ^
                static_cast<std::uint64_t>(
                    std::chrono::steady_clock::now().time_since_epoch().count());
  double duration = 0.0;  // 0 = run until Ctrl-C
  ExerciserConfig exerciser_config;
  exerciser_config.subinterval_s = 0.01;
  bool failpoint_seeded = false;
  std::uint64_t failpoint_seed = 0;
  std::string failpoint_script;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage();
      return argv[i];
    };
    if (arg == "--server") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::stoul(next()));
    } else if (arg == "--dir") {
      dir = next();
    } else if (arg == "--task") {
      task = next();
    } else if (arg == "--interarrival") {
      config.mean_run_interarrival_s = std::stod(next());
    } else if (arg == "--sync") {
      config.sync_interval_s = std::stod(next());
    } else if (arg == "--duration") {
      duration = std::stod(next());
    } else if (arg == "--timeout") {
      config.io_timeout_s = std::stod(next());
    } else if (arg == "--connect-timeout") {
      config.connect_timeout_s = std::stod(next());
    } else if (arg == "--retries") {
      config.sync_max_attempts = std::stoul(next());
      if (config.sync_max_attempts == 0) usage();
    } else if (arg == "--retry-max-backoff") {
      // Backoff ceiling: a fleet told to come back later by an overloaded
      // server spreads its retries below this many seconds.
      config.retry_max_delay_s = std::stod(next());
      if (config.retry_max_delay_s <= 0) usage();
    } else if (arg == "--seed") {
      config.seed = std::stoull(next());
    } else if (arg == "--disk-dir") {
      exerciser_config.disk_dir = next();
      make_dirs(exerciser_config.disk_dir);
    } else if (arg == "--headroom") {
      exerciser_config.memory_headroom_frac = std::stod(next());
    } else if (arg == "--grace") {
      exerciser_config.watchdog_grace_s = std::stod(next());
    } else if (arg == "--stop-bound") {
      exerciser_config.stop_bound_s = std::stod(next());
    } else if (arg == "--failpoint-seed") {
      failpoint_seeded = true;
      failpoint_seed = std::stoull(next());
    } else if (arg == "--failpoint-script") {
      failpoint_script = next();
    } else {
      usage();
    }
  }
  if (failpoint_seeded && !failpoint_script.empty()) usage();

  // Local state: resume a previous identity or register fresh (§2).
  std::unique_ptr<UucsClient> client;
  if (path_exists(dir + "/client.txt")) {
    client = std::make_unique<UucsClient>(UucsClient::load(dir, config));
    std::printf("resumed client %s with %zu local testcases\n",
                client->registered() ? client->guid().to_string().c_str() : "(new)",
                client->testcases().size());
  } else {
    client = std::make_unique<UucsClient>(HostSpec::detect(), config);
    std::printf("new client on %s\n", client->host().hostname.c_str());
  }

  // Crash durability: journal run records and acks before anything else.
  make_dirs(dir);
  const std::size_t replayed = client->attach_journal(dir + "/pending.journal");
  if (replayed > 0) {
    std::printf("replayed %zu journal entries (%zu results pending)\n", replayed,
                client->pending_results().size());
  }

  RealClock clock;

  // Reconnect-and-retry transport: every attempt gets a fresh deadline-bound
  // connection; backoff uses decorrelated jitter so a client fleet cannot
  // stampede a recovering server.
  RetryPolicy retry_policy;
  retry_policy.max_attempts = config.sync_max_attempts;
  retry_policy.base_delay_s = config.retry_base_delay_s;
  retry_policy.max_delay_s = config.retry_max_delay_s;
  retry_policy.jitter_seed = static_cast<std::uint64_t>(::getpid());
  const ChannelDeadlines deadlines{config.connect_timeout_s, config.io_timeout_s,
                                   config.io_timeout_s};
  RetryingServerApi api(
      [host, port, deadlines] { return TcpChannel::connect(host, port, deadlines); },
      clock, retry_policy);

  if (failpoint_seeded || !failpoint_script.empty()) {
    exerciser_config.failpoints = std::make_shared<ResourceFailpoints>();
    exerciser_config.failpoints->arm(
        failpoint_script.empty()
            ? ResourceFaultSchedule::seeded(failpoint_seed,
                                            ResourceFaultProfile::host_hostile())
            : parse_host_fault_schedule(failpoint_script));
    std::printf("host failpoints armed (%s) — runs may report degraded/failed "
                "outcomes by design\n",
                failpoint_script.empty() ? "seeded" : "scripted");
  }
  ExerciserSet exercisers(clock, exerciser_config);
  SignalFeedback feedback;  // SIGUSR1 = discomfort
  ProcSampler sampler;
  LoadRecorder recorder(clock, sampler, 1.0);
  RunExecutor executor(clock, exercisers, feedback, &recorder);

  ClientDaemon daemon(clock, *client, api, executor, task);
  daemon.set_event_callback([](const ClientDaemon::Event& e) {
    std::printf("[%s] %s\n",
                e.kind == ClientDaemon::Event::Kind::kRun ? "run" : "sync",
                e.detail.c_str());
  });
  g_daemon = &daemon;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::printf("uucs_client pid %d — express discomfort with: kill -USR1 %d\n",
              ::getpid(), ::getpid());
  const std::size_t runs = daemon.run(duration);
  std::printf("stopping after %zu runs, %zu syncs\n", runs,
              daemon.syncs_completed());
  client->save(dir);
  std::printf("state saved under %s\n", dir.c_str());
  return 0;
}
