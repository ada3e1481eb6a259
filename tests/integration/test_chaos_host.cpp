// Chaos-host tests: the real exercisers driven through deterministic
// host-fault injection (ENOSPC/EIO/slow-IO on disk writes, fake pressure in
// the memory probe). The invariant under every schedule is typed survival:
// each run completes with a ResourceOutcome — ok, degraded, failed, hung, or
// aborted — with zero crashes, zero std::terminate, zero leaked scratch
// files, and every stop() honored within the documented bound or truthfully
// surfaced as hung.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <thread>

#include "client/client.hpp"
#include "client/feedback.hpp"
#include "client/run_executor.hpp"
#include "exerciser/exerciser.hpp"
#include "exerciser/exerciser_set.hpp"
#include "exerciser/supervisor.hpp"
#include "server/protocol.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"

namespace uucs {
namespace {

ExerciserConfig chaos_config(const std::string& disk_dir) {
  ExerciserConfig cfg;
  cfg.subinterval_s = 0.005;
  cfg.memory_pool_bytes = 4u << 20;
  cfg.disk_file_bytes = 2u << 20;
  cfg.disk_max_write_bytes = 16u << 10;
  cfg.disk_dir = disk_dir;
  cfg.max_threads = 2;
  cfg.watchdog_grace_s = 0.5;
  cfg.stop_bound_s = 0.5;
  return cfg;
}

Testcase disk_testcase(double duration) {
  Testcase tc("chaos-disk");
  tc.set_function(Resource::kDisk, make_constant(1.0, duration, 100.0));
  return tc;
}

TEST(ChaosHost, EnospcAndEioDegradeInsteadOfCrashing) {
  RealClock clock;
  TempDir dir;
  ExerciserConfig cfg = chaos_config(dir.path());
  cfg.failpoints = std::make_shared<ResourceFailpoints>();
  // The first 24 writes alternate ENOSPC and EIO, then the host recovers.
  std::vector<ResourceFaultAction> script;
  for (int i = 0; i < 24; ++i) {
    script.push_back({i % 2 == 0 ? ResourceFaultKind::kEnospc : ResourceFaultKind::kEio,
                      0.0, 1.0});
  }
  cfg.failpoints->arm(ResourceFaultSchedule::scripted(std::move(script)));

  ExerciserSet set(clock, cfg);
  const auto outcome = set.run(disk_testcase(0.3));

  const auto& report = outcome.reports.at(Resource::kDisk);
  EXPECT_EQ(report.outcome, ResourceOutcome::kDegraded);
  EXPECT_GT(report.degraded_events, 0u);
  EXPECT_FALSE(report.detail.empty());
  EXPECT_FALSE(outcome.hung);
  EXPECT_EQ(outcome.worst(), ResourceOutcome::kDegraded);
  const auto stats = cfg.failpoints->stats();
  EXPECT_GT(stats.enospc + stats.eio, 0u);
}

TEST(ChaosHost, WatchdogBoundsInjectedSlowIoStall) {
  RealClock clock;
  TempDir dir;
  ExerciserConfig cfg = chaos_config(dir.path());
  cfg.watchdog_grace_s = 0.05;
  cfg.stop_bound_s = 0.1;
  cfg.failpoints = std::make_shared<ResourceFailpoints>();
  // Every write stalls for a full second — far beyond duration + grace, so
  // the watchdog must fire and the stop bound must then be missed.
  ResourceFaultProfile profile;
  profile.slow = 1.0;
  profile.slow_s = 1.0;
  cfg.failpoints->arm(ResourceFaultSchedule::seeded(1, profile));

  const double t0 = clock.now();
  {
    ExerciserSet set(clock, cfg);
    const auto outcome = set.run(disk_testcase(0.1));
    const double returned_after = clock.now() - t0;

    EXPECT_TRUE(outcome.watchdog_fired);
    EXPECT_TRUE(outcome.hung);
    EXPECT_EQ(outcome.reports.at(Resource::kDisk).outcome, ResourceOutcome::kHung);
    // supervise() returned at duration + grace + stop bound (plus slack),
    // not after the full injected stall.
    EXPECT_LT(returned_after, 0.8);
    EXPECT_EQ(set.abandoned_count(), 1u);

    // The wedged worker resolves once its injected stall elapses; reap
    // then observes it gone.
    clock.sleep(1.2);
    EXPECT_EQ(set.reap_abandoned(), 0u);
    EXPECT_EQ(set.abandoned_count(), 0u);
  }
  // Destructor path (the blocking backstop) also ran clean; scratch is gone.
  EXPECT_TRUE(list_files(dir.path()).empty());
}

TEST(ChaosHost, RerunWhileWorkerWedgedReportsHung) {
  RealClock clock;
  TempDir dir;
  ExerciserConfig cfg = chaos_config(dir.path());
  cfg.watchdog_grace_s = 0.05;
  cfg.stop_bound_s = 0.05;
  cfg.failpoints = std::make_shared<ResourceFailpoints>();
  ResourceFaultProfile profile;
  profile.slow = 1.0;
  profile.slow_s = 1.0;
  cfg.failpoints->arm(ResourceFaultSchedule::seeded(2, profile));

  ExerciserSet set(clock, cfg);
  const auto first = set.run(disk_testcase(0.05));
  ASSERT_TRUE(first.hung);
  ASSERT_EQ(set.abandoned_count(), 1u);

  // Disarm so a fresh worker would run clean — but the old one still owns
  // the exerciser, so the set must refuse and tell the truth.
  cfg.failpoints->disarm();
  const auto second = set.run(disk_testcase(0.05));
  EXPECT_TRUE(second.hung);
  EXPECT_EQ(second.reports.at(Resource::kDisk).outcome, ResourceOutcome::kHung);
  EXPECT_EQ(second.reports.at(Resource::kDisk).detail,
            "previous worker still wedged");

  clock.sleep(1.2);
  EXPECT_EQ(set.reap_abandoned(), 0u);
  // With the worker reaped, the next run is healthy again.
  const auto third = set.run(disk_testcase(0.05));
  EXPECT_FALSE(third.hung);
  EXPECT_EQ(third.reports.at(Resource::kDisk).outcome, ResourceOutcome::kOk);
}

TEST(ChaosHost, MemoryPressureShrinksWorkingSet) {
  RealClock clock;
  TempDir dir;
  ExerciserConfig cfg = chaos_config(dir.path());
  cfg.pressure_check_interval_s = 0.02;
  cfg.failpoints = std::make_shared<ResourceFailpoints>();
  // Op 0 (the run-start probe) passes clean so the pool is fully sized;
  // every later probe reports a memory-starved host.
  std::vector<ResourceFaultAction> script;
  script.push_back({ResourceFaultKind::kNone, 0.0, 1.0});
  for (int i = 0; i < 64; ++i) {
    script.push_back({ResourceFaultKind::kPressure, 0.0, 0.01});
  }
  cfg.failpoints->arm(ResourceFaultSchedule::scripted(std::move(script)));

  auto ex = make_memory_exerciser(clock, cfg);
  const double played = ex->run(make_constant(1.0, 0.2, 100.0));
  EXPECT_GT(played, 0.0);
  const auto deg = ex->degradation();
  EXPECT_GT(deg.events, 0u);
  EXPECT_NE(deg.detail.find("pressure"), std::string::npos);
  EXPECT_GT(cfg.failpoints->stats().pressure, 0u);
}

TEST(ChaosHost, MemoryPoolCappedByHeadroomFloor) {
  RealClock clock;
  TempDir dir;
  ExerciserConfig cfg = chaos_config(dir.path());
  cfg.failpoints = std::make_shared<ResourceFailpoints>();
  // The run-start probe itself reports the host nearly exhausted: the pool
  // must be capped before a single page is touched.
  cfg.failpoints->arm(
      ResourceFaultSchedule::scripted({{ResourceFaultKind::kPressure, 0.0, 0.01}}));

  auto ex = make_memory_exerciser(clock, cfg);
  ex->run(make_constant(1.0, 0.05, 100.0));
  const auto deg = ex->degradation();
  EXPECT_GT(deg.events, 0u);
  EXPECT_NE(deg.detail.find("capped"), std::string::npos);
}

TEST(ChaosHost, StopHonoredWithinBoundUnderFaults) {
  RealClock clock;
  TempDir dir;
  ExerciserConfig cfg = chaos_config(dir.path());
  cfg.failpoints = std::make_shared<ResourceFailpoints>();
  cfg.failpoints->arm(
      ResourceFaultSchedule::seeded(7, ResourceFaultProfile::host_hostile()));

  ExerciserSet set(clock, cfg);
  Testcase tc("chaos-multi");
  tc.set_function(Resource::kCpu, make_constant(0.5, 30.0, 1.0));
  tc.set_function(Resource::kMemory, make_constant(0.5, 30.0, 1.0));
  tc.set_function(Resource::kDisk, make_constant(0.5, 30.0, 1.0));
  std::thread stopper([&] {
    clock.sleep(0.05);
    set.stop();
  });
  const double t0 = clock.now();
  const auto outcome = set.run(tc);
  stopper.join();

  EXPECT_TRUE(outcome.stopped_early);
  EXPECT_FALSE(outcome.hung);
  // stop() at ~0.05s; the stop bound is 0.5s — the whole run() call must be
  // back well inside stop + bound + slack, faults and backoffs included.
  EXPECT_LT(clock.now() - t0, 0.05 + cfg.stop_bound_s + 0.5);
}

TEST(ChaosHost, StaleScratchFilesReclaimed) {
  TempDir dir;
  // A scratch file from a dead PID (pid_max on Linux is < 2^22 by default,
  // so 4194304+ cannot be a live process; 999999 is at worst unlikely —
  // use a value above the default ceiling).
  const std::string stale = dir.file("uucs-disk-exerciser-4999999.dat");
  { std::ofstream(stale) << "leaked"; }
  // Our own PID's file and non-scratch files must be left alone.
  const std::string own =
      dir.file("uucs-disk-exerciser-" + std::to_string(::getpid()) + ".dat");
  { std::ofstream(own) << "live"; }
  const std::string other = dir.file("unrelated.dat");
  { std::ofstream(other) << "keep"; }

  EXPECT_EQ(reclaim_stale_scratch_files(dir.path()), 1u);
  EXPECT_FALSE(path_exists(stale));
  EXPECT_TRUE(path_exists(own));
  EXPECT_TRUE(path_exists(other));

  // The disk exerciser performs the reclaim implicitly at startup.
  { std::ofstream(stale) << "leaked again"; }
  RealClock clock;
  auto ex = make_disk_exerciser(clock, chaos_config(dir.path()));
  ex->run(make_constant(1.0, 0.02, 100.0));
  EXPECT_FALSE(path_exists(stale));
}

TEST(ChaosHost, CrashMidRunReplaysAsAborted) {
  TempDir dir;
  const std::string journal = dir.file("client.journal");
  {
    UucsClient client(HostSpec::paper_study_machine());
    client.attach_journal(journal);
    const std::string run_id = client.next_run_id();
    client.note_run_start(run_id, "memory-ramp-x1-t120");
    ASSERT_EQ(client.open_run_count(), 1u);
    // SIGKILL-style teardown: record_result never happens.
  }

  UucsClient client(HostSpec::paper_study_machine());
  client.attach_journal(journal);
  EXPECT_EQ(client.open_run_count(), 0u);
  ASSERT_EQ(client.pending_results().size(), 1u);
  const RunRecord& rec = client.pending_results().at(0);
  EXPECT_EQ(rec.run_outcome(), "aborted");
  EXPECT_TRUE(rec.host_fault());
  EXPECT_EQ(rec.testcase_id, "memory-ramp-x1-t120");
  EXPECT_FALSE(rec.discomforted);

  // The synthesis is itself journaled: a second replay does not duplicate.
  UucsClient again(HostSpec::paper_study_machine());
  again.attach_journal(journal);
  EXPECT_EQ(again.pending_results().size(), 1u);
}

TEST(ChaosHost, CompletedRunLeavesNoOpenMarker) {
  TempDir dir;
  const std::string journal = dir.file("client.journal");
  {
    UucsClient client(HostSpec::paper_study_machine());
    client.attach_journal(journal);
    const std::string run_id = client.next_run_id();
    client.note_run_start(run_id, "cpu-ramp-x1-t120");
    RunRecord rec;
    rec.run_id = run_id;
    rec.testcase_id = "cpu-ramp-x1-t120";
    rec.discomforted = true;
    rec.offset_s = 12.0;
    client.record_result(std::move(rec));
    EXPECT_EQ(client.open_run_count(), 0u);
  }
  UucsClient client(HostSpec::paper_study_machine());
  client.attach_journal(journal);
  ASSERT_EQ(client.pending_results().size(), 1u);
  EXPECT_EQ(client.pending_results().at(0).run_outcome(), "ok");
  EXPECT_FALSE(client.pending_results().at(0).host_fault());
}

TEST(ChaosHost, RunExecutorSurvivesThrowingExerciser) {
  RealClock clock;
  TempDir dir;

  class BrokenExerciser final : public ResourceExerciser {
   public:
    Resource resource() const override { return Resource::kCpu; }
    double run(const ExerciseFunction&) override {
      throw SystemError("simulated exerciser explosion");
    }
    void stop() override {}
    void reset() override {}
  };

  ExerciserSet set(clock, chaos_config(dir.path()));
  set.set_exerciser(Resource::kCpu, std::make_unique<BrokenExerciser>());
  ProgrammaticFeedback feedback;
  RunExecutor executor(clock, set, feedback, nullptr, 0.005);

  Testcase tc("boom");
  tc.set_function(Resource::kCpu, make_constant(0.5, 0.1, 100.0));
  const RunRecord rec = executor.execute(tc, "guid/0");
  EXPECT_EQ(rec.run_outcome(), "failed");
  EXPECT_TRUE(rec.host_fault());
  EXPECT_NE(rec.meta("outcome.cpu.detail").find("explosion"), std::string::npos);
}

TEST(ChaosHost, SeededSweepEveryRunEndsTyped) {
  // The acceptance gate: 30 seeds of the hostile profile through the real
  // exercisers. Every run must end with a typed outcome, inside the
  // watchdog envelope, leaking no scratch files. Any crash, terminate, or
  // wedge fails the test (or hangs it, which CI treats as failure).
  RealClock clock;
  std::size_t injected_total = 0;
  std::size_t degraded_runs = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    TempDir dir;
    ExerciserConfig cfg = chaos_config(dir.path());
    cfg.failpoints = std::make_shared<ResourceFailpoints>();
    cfg.failpoints->arm(
        ResourceFaultSchedule::seeded(seed, ResourceFaultProfile::host_hostile()));

    const double t0 = clock.now();
    {
      ExerciserSet set(clock, cfg);
      Testcase tc("chaos-sweep");
      tc.set_function(Resource::kCpu, make_constant(0.6, 0.15, 100.0));
      tc.set_function(Resource::kMemory, make_constant(0.6, 0.15, 100.0));
      tc.set_function(Resource::kDisk, make_constant(0.6, 0.15, 100.0));
      const auto outcome = set.run(tc);

      // Typed, inside the envelope.
      const double envelope =
          0.15 + cfg.watchdog_grace_s + cfg.stop_bound_s + 0.5;
      EXPECT_LT(clock.now() - t0, envelope) << "seed " << seed;
      for (const auto& [r, report] : outcome.reports) {
        const auto name = resource_outcome_name(report.outcome);
        EXPECT_TRUE(parse_resource_outcome(name).has_value())
            << "seed " << seed << " resource " << resource_name(r);
      }
      if (outcome.worst() == ResourceOutcome::kDegraded) ++degraded_runs;
      // No scratch leaked even while the set is alive (unlink-after-open).
      EXPECT_TRUE(list_files(dir.path()).empty()) << "seed " << seed;
      set.reap_abandoned();
    }
    // After teardown (dtor joins any straggler): still no scratch.
    EXPECT_TRUE(list_files(dir.path()).empty()) << "seed " << seed;
    injected_total += cfg.failpoints->stats().injected();
  }
  // The schedules must actually have bitten, or this sweep proves nothing.
  EXPECT_GT(injected_total, 100u);
  EXPECT_GT(degraded_runs, 0u);
}

TEST(ChaosHost, FailpointGuardFreeWhenDisarmed) {
  ResourceFailpoints fp;
  EXPECT_FALSE(fp.armed());
  // Disarmed consultations are clean and consume nothing.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(fp.on_write().kind, ResourceFaultKind::kNone);
    EXPECT_FALSE(fp.on_probe().has_value());
  }
  EXPECT_EQ(fp.stats().write_checks, 0u);
  EXPECT_EQ(fp.stats().probe_checks, 0u);
}

TEST(ChaosHost, ScheduleParsingAndDeterminism) {
  auto sched = parse_host_fault_schedule("0:enospc,2:slowio=0.05,3:pressure=0.01,5:eio");
  EXPECT_EQ(sched.next().kind, ResourceFaultKind::kEnospc);
  EXPECT_EQ(sched.next().kind, ResourceFaultKind::kNone);
  const auto slow = sched.next();
  EXPECT_EQ(slow.kind, ResourceFaultKind::kSlow);
  EXPECT_DOUBLE_EQ(slow.delay_s, 0.05);
  const auto pressure = sched.next();
  EXPECT_EQ(pressure.kind, ResourceFaultKind::kPressure);
  EXPECT_DOUBLE_EQ(pressure.available_frac, 0.01);
  EXPECT_EQ(sched.next().kind, ResourceFaultKind::kNone);
  EXPECT_EQ(sched.next().kind, ResourceFaultKind::kEio);
  EXPECT_EQ(sched.next().kind, ResourceFaultKind::kNone);  // past the script

  EXPECT_THROW(parse_host_fault_schedule("nonsense"), ParseError);
  EXPECT_THROW(parse_host_fault_schedule("0:frobnicate"), ParseError);
  EXPECT_THROW(parse_host_fault_schedule("0:pressure=2.0"), ParseError);

  // Same seed, same fault history — the reproducibility contract.
  auto a = ResourceFaultSchedule::seeded(42, ResourceFaultProfile::host_hostile());
  auto b = ResourceFaultSchedule::seeded(42, ResourceFaultProfile::host_hostile());
  for (int i = 0; i < 200; ++i) {
    const auto x = a.next();
    const auto y = b.next();
    ASSERT_EQ(x.kind, y.kind) << "op " << i;
    ASSERT_DOUBLE_EQ(x.delay_s, y.delay_s) << "op " << i;
  }
}

}  // namespace
}  // namespace uucs
