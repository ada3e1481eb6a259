// UUCS benchmark program: one workload per invocation, both halves of the
// system measured from outside through their public calls.
//
//   uucs_perfbench --workload fleet_upload|fleet_join --seed N --seconds S
//                  --trace 0|1 --work-dir DIR
//   uucs_perfbench --self-test
//
// Every workload runs the study half (controlled study, streaming
// aggregation, at 1 and at nproc workers) and the ingest half (an in-process
// IngestServer on loopback driven open loop by one generator thread). The
// workload picks the fleet: `fleet_upload` (mature clients, ~6 records per
// sync, tiny replies) or `fleet_join` (fresh clients, one record per sync,
// 16-testcase replies). With --trace 0 the run prints the end-to-end
// metrics; with --trace 1 it prints the per-layer metrics from spans
// recorded around each layer's calls, and writes the spans to DIR.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit code is nonzero only when a correctness gate fails (or the
// arguments are bad).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fleet.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "provenance.hpp"
#include "selftest.hpp"
#include "study/calibration.hpp"
#include "study_leg.hpp"
#include "trace.hpp"
#include "util/logging.hpp"

namespace {

using namespace perfbench;

/// Participants per study leg. Legs are kept short so that many of them,
/// spread over the whole run, feed each median: the host's CPU speed drifts
/// by tens of percent over seconds on a shared VM.
constexpr std::size_t kStudyParticipants = 30000;
/// Study legs per round at each worker count, alternating 1 and nproc.
constexpr int kLegsPerRound = 2;
/// Measurement is split into rounds of about this many seconds; every
/// round runs each measurement once, so each median samples the whole run.
constexpr double kRoundSeconds = 4.5;
/// A light window holds this many expected acks (p99 needs >= 1000 for ten
/// samples beyond it).
constexpr double kLightWindowSyncs = 1300.0;
constexpr double kNominalWindowSeconds = 0.6;
constexpr double kProbeSeconds = 0.3;
constexpr int kProbesPerRound = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 45.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "uucs_perfbench: %s\nusage: uucs_perfbench --workload fleet_upload|fleet_join "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] | --self-test\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage(("missing value for " + arg).c_str());
      return argv[i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = next();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = next();
      } else if (arg == "--self-test") {
        opt.self_test = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!opt.self_test && (opt.workload.empty() || !(opt.seconds >= 1.0))) {
    usage("need --workload and --seconds >= 1");
  }
  return opt;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double elapsed_s(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// A study rate from a run's legs: the upper quartile (nearest rank) of the
/// per-leg rates. Other tenants of a shared host only ever slow a leg down,
/// so the faster legs follow the code and the slower ones the neighbours.
double leg_rate(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end());
  return nearest_rank(rates, 0.75);
}

std::uint64_t shed_total(const uucs::OverloadStats& s) {
  return s.shed_queue + s.shed_deadline + s.shed_registrations + s.degraded_rejects;
}

/// Per-window figures of one kind of phase, reduced to medians at the end.
struct Windows {
  std::vector<double> p50, p99, gen_lag_p99, cpu_us, steal;
  std::size_t samples = 0;
  bool p99_ok = true;
  void add(const PhaseResult& r) {
    const LatencySummary lat = summarize(r.latency_ms);
    p50.push_back(lat.p50);
    p99.push_back(lat.p99);
    p99_ok = p99_ok && lat.p99_ok;
    samples += lat.samples;
    gen_lag_p99.push_back(summarize(r.gen_lag_ms).p99);
    if (r.acked > 0) {
      cpu_us.push_back((r.process_cpu_s - r.gen_cpu_s) / static_cast<double>(r.acked) * 1e6);
    }
    steal.push_back(r.steal_frac);
  }
};

void print_phase(const char* name, double rate, const PhaseResult& r) {
  const LatencySummary lat = summarize(r.latency_ms);
  std::printf("    %-9s %8.1f/s  acked %5zu/%-5zu  ack p50 %7.3f ms  p99 %7.3f ms  "
              "gen lag p99 %.3f ms  steal %.1f%%\n",
              name, rate, r.acked, r.attempted, lat.p50, lat.p99, summarize(r.gen_lag_ms).p99,
              100.0 * r.steal_frac);
  if (r.failed() != 0 || r.late_replies != 0) {
    std::printf("    %-9s %zu error replies, %zu timed out, %zu late replies to earlier "
                "windows\n", "", r.errors, r.timeouts, r.late_replies);
  }
}

struct Run {
  Options opt;
  FleetShape shape;
  MetricTable metrics;
  std::size_t attempted = 0;  ///< syncs of the light and nominal windows
  std::size_t failed = 0;
  std::vector<std::string> flags;
  Tracer tracer;
  uucs::study::PopulationParams params;
  std::string reference_aggregates;  ///< first serial leg's, for the gate

  void count(const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed();
  }
  void flag(const std::string& f) {
    if (std::find(flags.begin(), flags.end(), f) == flags.end()) flags.push_back(f);
  }
};

StudyLeg study_leg(Run& run, std::size_t workers, bool traced) {
  StudyLeg leg = run_study_leg(run.params, kStudyParticipants, run.opt.seed, workers,
                               traced ? &run.tracer : nullptr);
  // Gate: byte-identical aggregates at any worker count.
  if (run.reference_aggregates.empty()) run.reference_aggregates = leg.aggregates;
  if (leg.aggregates != run.reference_aggregates) {
    throw CorrectnessError("study aggregates at " + std::to_string(leg.workers) +
                           " workers differ from the 1-worker aggregates");
  }
  std::printf("    study     workers=%zu  %llu runs  wall %.3f s  %.0f runs/s\n", leg.workers,
              static_cast<unsigned long long>(leg.runs), leg.wall_s, leg.runs_per_s());
  return leg;
}

/// Set-up is repeated in every round (calibration, and a fresh fleet), so
/// its medians sample the whole run like the measurements do.
struct Setup {
  std::vector<double> calibrate_s;  ///< one per round
  std::vector<double> fleet_s;      ///< one per fleet set up
  std::vector<double> suite_s;
  double study_rss_mib = 0.0;
  double setup_s() const { return median(calibrate_s) + median(fleet_s); }
};

/// Study set-up: population-model calibration (deterministic, so every
/// round's result is the same parameters).
void calibrate(Run& run, Setup& setup) {
  const std::int64_t t0 = now_ns();
  const int s = run.opt.trace ? run.tracer.begin("study.calibrate", -1, 0) : -1;
  run.params = uucs::study::calibrate_population();
  if (s >= 0) run.tracer.end(s);
  setup.calibrate_s.push_back(elapsed_s(t0));
}

/// Fleet set-up: catalog, journaled server, ingest plane, registrations and
/// warm-up traffic. Every round serves a fresh fleet, so server state (and
/// memory) stays that of one round.
std::unique_ptr<Fleet> set_up_fleet(Run& run, Setup& setup, int index) {
  const std::string dir = run.opt.work_dir + "/fleet-" + std::to_string(index);
  std::filesystem::remove_all(dir);  // a stale journal would replay into the server
  const std::int64_t t0 = now_ns();
  const int s = run.opt.trace ? run.tracer.begin("fleet.setup", -1, 0) : -1;
  // Up to 64 phases per fleet; serials hold phase ids below 4096.
  std::unique_ptr<Fleet> fleet =
      setup_fleet(run.shape, run.opt.seed, dir, 1 + 64 * static_cast<std::uint64_t>(index));
  if (s >= 0) {
    run.tracer.end(s);
    const std::int64_t start = run.tracer.spans()[static_cast<std::size_t>(s)].start_ns;
    run.tracer.add("testcase.suite_gen", start,
                   start + static_cast<std::int64_t>(fleet->suite_gen_s * 1e9), s, 0);
  }
  setup.fleet_s.push_back(elapsed_s(t0));
  setup.suite_s.push_back(fleet->suite_gen_s);
  return fleet;
}

/// Post-stop gates of one fleet, then its work dir goes.
void retire_fleet(std::unique_ptr<Fleet> fleet) {
  std::printf("    gates     %s\n", audit_fleet(*fleet).c_str());
  const std::string dir = fleet->dir;
  fleet.reset();
  std::filesystem::remove_all(dir);
}

double light_window_s(const FleetShape& shape) { return kLightWindowSyncs / shape.light_rate; }

void check_generator(Run& run, const Windows& w) {
  for (const double lag : w.gen_lag_p99) {
    if (lag > 0.1 * run.shape.p99_limit_ms) {
      run.flag("GENERATOR-LIMITED: generator lag p99 above 10% of the p99 limit in a window");
    }
  }
  if (!w.p99_ok) run.flag("FEW-SAMPLES: a window's p99 has fewer than ten samples beyond it");
}

/// Study legs traced in the last round (trace runs only).
struct TracedLegs {
  StudyLeg serial, parallel;
};

void set_study_layer_metrics(Run& run, const Setup& setup, const TracedLegs& legs) {
  const StudyLeg& s = legs.serial;
  const StudyLeg& p = legs.parallel;
  run.metrics.set("study.calibrate_s", median(setup.calibrate_s), "s", setup.calibrate_s.size());
  run.metrics.set("testcase.suite_gen_s", median(setup.suite_s), "s", setup.suite_s.size());
  run.metrics.set("study.population_s", p.population_s, "s", 1);
  run.metrics.set("engine.map_s", p.map_s, "s", 1);
  run.metrics.set("engine.merge_s", p.merge_s, "s", 1);
  run.metrics.set("engine.utilization", p.cpu_s / (p.map_s * static_cast<double>(p.workers)),
                  "ratio", 1);
  run.metrics.set("analysis.report_s", p.report_s, "s", 1);
  run.metrics.set("analysis.serialize_s", p.serialize_s, "s", 1);
  run.metrics.set("engine.cpu_us_per_run", s.cpu_s / static_cast<double>(s.runs) * 1e6, "us",
                  s.runs);
  run.metrics.set("engine.runs", static_cast<double>(s.runs), "count");
}

/// Trace runs only: a traced light window (client spans) next to an
/// untraced one, a nominal window sampling the loop, and the
/// single-threaded layer drive over the traced window's request bytes.
void trace_layers(Run& run, Setup& setup, double light_p50_ms) {
  const FleetShape& shape = run.shape;
  std::printf("  traced fleet\n");
  std::unique_ptr<Fleet> fleet = set_up_fleet(run, setup, static_cast<int>(setup.fleet_s.size()));
  const PhaseResult light = run_phase(*fleet, shape.light_rate, light_window_s(shape), false, nullptr);
  print_phase("light", shape.light_rate, light);
  Schedule traced_schedule;
  const PhaseResult traced = run_phase(*fleet, shape.light_rate, light_window_s(shape), false,
                                       &run.tracer, &traced_schedule);
  print_phase("light+tr", shape.light_rate, traced);
  const auto commit0 = fleet->ingest->commit_stats();
  const PhaseResult nominal = run_phase(*fleet, shape.nominal_rate, 2.0 * kNominalWindowSeconds,
                                        true, nullptr);
  const auto commit1 = fleet->ingest->commit_stats();
  print_phase("nominal", shape.nominal_rate, nominal);
  for (const PhaseResult* r : {&light, &traced, &nominal}) run.count(*r);

  const auto loop = fleet->ingest->loop_stats();
  const double batches = static_cast<double>(commit1.batches - commit0.batches);
  const double acked = static_cast<double>(nominal.acked);
  run.metrics.set("protocol.request_bytes_per_sync",
                  static_cast<double>(nominal.request_bytes) / static_cast<double>(nominal.attempted),
                  "B", nominal.attempted);
  run.metrics.set("protocol.response_bytes_per_sync",
                  static_cast<double>(nominal.response_bytes) / acked, "B", nominal.acked);
  run.metrics.set("journal.entries_per_batch",
                  static_cast<double>(commit1.entries - commit0.entries) / batches, "count",
                  static_cast<std::size_t>(batches));
  run.metrics.set("journal.fsyncs_per_1k_acks", batches * 1000.0 / acked, "count", nominal.acked);
  run.metrics.set("loop.inflight_mean",
                  nominal.inflight_sum / static_cast<double>(nominal.inflight_samples), "count",
                  nominal.inflight_samples);
  run.metrics.set("loop.max_buffered_bytes", static_cast<double>(loop.max_buffered_bytes_seen), "B");
  run.metrics.set("loop.read_pauses", static_cast<double>(loop.buffer_read_pauses), "count");
  run.metrics.set("overload.shed", static_cast<double>(shed_total(fleet->ingest->overload_stats())),
                  "count");
  const LatencySummary lag = summarize(nominal.gen_lag_ms);
  run.metrics.set("bench.gen_lag_p99_ms", lag.p99, "ms", lag.samples);
  run.metrics.set("bench.gen_cpu_us_per_sync",
                  nominal.gen_cpu_s / static_cast<double>(nominal.attempted) * 1e6, "us",
                  nominal.attempted);
  const double untraced_p50 = summarize(light.latency_ms).p50;
  const LatencySummary traced_lat = summarize(traced.latency_ms);
  const double overhead = traced_lat.p50 / untraced_p50 - 1.0;
  run.metrics.set("trace.overhead_frac", overhead, "ratio", traced_lat.samples);
  const ClientSet clients = fleet->clients;
  retire_fleet(std::move(fleet));

  // The same seeded request bytes, single-threaded through each layer.
  const LayerDrive drive = drive_layers(shape, run.opt.seed, clients, traced_schedule,
                                        run.opt.work_dir + "/layers", run.tracer);
  const auto self = self_times_by_name_us(run.tracer.spans());
  static const char* const kLayers[][2] = {
      {"net.frame", "net.frame_us"},
      {"protocol.peek", "protocol.peek_us"},
      {"kvtext.parse", "kvtext.parse_us"},
      {"server.hot_sync", "server.hot_sync_us"},
      {"protocol.encode_response", "protocol.encode_response_us"},
      {"protocol.dispatch", "protocol.dispatch_us"},
      {"journal.commit", "journal.commit_us"},
  };
  double layer_sum_us = 0.0;
  std::printf("trace: %zu requests through the layer chain; self-time medians:\n",
              drive.requests);
  for (const auto& [span, metric] : kLayers) {
    const std::vector<double>& v = self.at(span);
    const double med = median(v);
    layer_sum_us += med;
    run.metrics.set(metric, med, "us", v.size());
    std::printf("  %-28s %10.2f us\n", span, med);
  }
  const double light_p50_us = light_p50_ms * 1e3;
  std::printf("  %-28s %10.2f us\n", "sum of layer self times", layer_sum_us);
  std::printf("  %-28s %10.2f us  (untraced light.ack_p50_ms of this run's rounds)\n",
              "light.ack_p50", light_p50_us);
  std::printf("  %-28s %10.2f us  (loopback, loop thread, queueing)\n", "remainder",
              light_p50_us - layer_sum_us);
  std::printf("  %-28s %10.2f us  (whole call on a twin server, same bytes out)\n",
              "dispatch_request_deferred", drive.dispatch_deferred_us_p50);
  std::printf("  %-28s %+10.4f     (traced light p50 %.3f ms vs untraced %.3f ms, same fleet)\n",
              "tracing overhead", overhead, traced_lat.p50, untraced_p50);
  for (const char* span : {"client.send", "client.ack"}) {
    std::printf("  %-28s %10.2f us  (client side, live server)\n", span, median(self.at(span)));
  }
}

/// The measurement, in rounds: every round runs each study leg once and
/// serves a fresh fleet through a light window, a nominal window and two
/// probes of the sustained-rate search, so every median samples the whole
/// run. Trace runs trace one pair of study legs and add trace_layers().
void measure(Run& run, Setup& setup) {
  const FleetShape& shape = run.shape;
  const bool trace = run.opt.trace;
  const int rounds = std::max(2, static_cast<int>(std::lround(run.opt.seconds / kRoundSeconds)));
  std::vector<double> serial, parallel;
  TracedLegs traced_legs;
  Windows light, nominal;
  SustainedSearch sustained(2.0 * shape.nominal_rate);
  for (int round = 0; round < rounds; ++round) {
    std::printf("  round %d/%d\n", round + 1, rounds);
    calibrate(run, setup);
    for (int leg = 0; leg < kLegsPerRound; ++leg) {
      // Trace runs trace the last round's first pair: by then every
      // allocator arena and cache is warm.
      const bool traced = trace && round == rounds - 1 && leg == 0;
      const StudyLeg s = study_leg(run, 1, traced);
      const StudyLeg p = study_leg(run, nproc(), traced);
      if (traced) traced_legs = {s, p};
      serial.push_back(s.runs_per_s());
      parallel.push_back(p.runs_per_s());
    }
    // The study half's peak RSS, read before any fleet exists. (The first
    // multi-worker leg of a process also pays for per-thread allocator
    // arenas; the median over rounds absorbs that.)
    if (round == 0) setup.study_rss_mib = peak_rss_mib();
    std::unique_ptr<Fleet> fleet = set_up_fleet(run, setup, round);
    const PhaseResult l = run_phase(*fleet, shape.light_rate, light_window_s(shape), false, nullptr);
    print_phase("light", shape.light_rate, l);
    run.count(l);
    light.add(l);
    const PhaseResult n = run_phase(*fleet, shape.nominal_rate, kNominalWindowSeconds, false, nullptr);
    print_phase("nominal", shape.nominal_rate, n);
    run.count(n);
    nominal.add(n);
    for (int p = 0; p < kProbesPerRound; ++p) sustained.probe(*fleet, kProbeSeconds);
    retire_fleet(std::move(fleet));
  }
  check_generator(run, light);
  check_generator(run, nominal);
  if (sustained.generator_limited) {
    run.flag("GENERATOR-LIMITED: a passing sustained probe had generator lag above 10% of "
             "the p99 limit");
  }
  std::printf("setup: calibrate %.3f s + fleet %.3f s (medians of %zu rounds) = %.3f s\n",
              median(setup.calibrate_s), median(setup.fleet_s), setup.fleet_s.size(),
              setup.setup_s());
  std::printf("sustained: %.1f syncs/s (p99 <= %.0f ms, no failures, no growing backlog; "
              "%zu probes, %zu syncs, %zu failed)\n",
              sustained.estimate(), shape.p99_limit_ms, sustained.probes(), sustained.attempted,
              sustained.failed);
  std::printf("generator: lag p99 median %.3f ms (light), %.3f ms (nominal); host steal "
              "median %.1f%% (light), %.1f%% (nominal)\n",
              median(light.gen_lag_p99), median(nominal.gen_lag_p99),
              100.0 * median(light.steal), 100.0 * median(nominal.steal));

  // Ack latency, the sustained rate and the study rates follow hypervisor
  // steal and the neighbours' load on a shared VM as much as the code (see
  // perfbench/README.md), so they are reported per run but carry no
  // regression bound: trace runs emit them as per-layer metrics.
  MetricTable unbounded;
  unbounded.set("light.ack_p50_ms", median(light.p50), "ms", light.samples);
  unbounded.set("light.ack_p99_ms", median(light.p99), "ms", light.samples);
  unbounded.set("nominal.ack_p50_ms", median(nominal.p50), "ms", nominal.samples);
  unbounded.set("nominal.ack_p99_ms", median(nominal.p99), "ms", nominal.samples);
  unbounded.set("sustained_syncs_per_s", sustained.estimate(), "1/s", sustained.probes());
  unbounded.set("study_runs_per_s", leg_rate(parallel), "1/s", parallel.size());
  unbounded.set("study_serial_runs_per_s", leg_rate(serial), "1/s", serial.size());
  if (trace) {
    set_study_layer_metrics(run, setup, traced_legs);
    for (const auto& m : unbounded.all()) run.metrics.set(m.name, m.value, m.unit, m.samples);
    std::vector<double> steal = light.steal;
    steal.insert(steal.end(), nominal.steal.begin(), nominal.steal.end());
    run.metrics.set("bench.host_steal_frac", median(steal), "ratio", steal.size());
    trace_layers(run, setup, median(light.p50));
    return;
  }
  std::printf("unbounded figures (see perfbench/README.md):\n%s", unbounded.render().c_str());
  run.metrics.set("setup_s", setup.setup_s(), "s", setup.fleet_s.size());
  run.metrics.set("study_peak_rss_mib", setup.study_rss_mib, "MiB", 1);
  run.metrics.set("server_cpu_us_per_sync", median(nominal.cpu_us), "us", nominal.samples);
  run.metrics.set("light.server_cpu_us_per_sync", median(light.cpu_us), "us", light.samples);
}

int run_benchmark(const Options& opt) {
  Run run;
  run.opt = opt;
  try {
    run.shape = fleet_shape(opt.workload);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  std::filesystem::create_directories(opt.work_dir);
  std::printf("%s", provenance(opt.workload, opt.seed, opt.work_dir).c_str());
  std::fflush(stdout);

  bool correct = true;
  const std::int64_t t0 = now_ns();
  try {
    Setup setup;
    measure(run, setup);
    std::printf("gates: study aggregates byte-identical at 1 and %zu workers in every leg; "
                "every fleet passed exactly-once and journal-replay audits\n", nproc());
  } catch (const CorrectnessError& e) {
    std::printf("CORRECTNESS VIOLATION: %s\n", e.what());
    correct = false;
  }
  std::printf("wall %.1f s, process peak RSS %.1f MiB\n", elapsed_s(t0), peak_rss_mib());
  if (opt.trace && correct) {
    const std::string path = opt.work_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".tsv";
    run.tracer.write(path);
    std::printf("spans: %zu written to %s\n", run.tracer.spans().size(), path.c_str());
  }
  for (const std::string& f : run.flags) std::printf("flag: %s\n", f.c_str());
  std::printf("%s metrics:\n%s", opt.trace ? "per-layer" : "end-to-end",
              run.metrics.render().c_str());
  std::printf("  %-34s %14.6g %-7s (n=%zu)\n", "failed_frac",
              run.attempted ? static_cast<double>(run.failed) / static_cast<double>(run.attempted)
                            : 0.0,
              "ratio", run.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", run.attempted, run.failed, run.metrics.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  uucs::Logger::instance().set_level(uucs::LogLevel::kWarn);
  const int self_test_failures = run_self_tests();
  if (self_test_failures != 0) {
    std::fprintf(stderr, "uucs_perfbench: %d self-test failures\n", self_test_failures);
    return 3;
  }
  if (opt.self_test) {
    std::printf("self-tests passed\n");
    return 0;
  }
  try {
    return run_benchmark(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uucs_perfbench: %s\n", e.what());
    return 4;
  }
}
