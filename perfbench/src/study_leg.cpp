#include "study_leg.hpp"

#include <stdexcept>

#include "analysis/streaming.hpp"
#include "study/controlled_study.hpp"
#include "study/population.hpp"
#include "util/rng.hpp"
#include "util/rng_streams.hpp"

namespace perfbench {

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// The figure tables of §3: Fig 9 breakdowns, the per-cell f_d / c_0.05 /
/// c_a metrics behind Figs 10-16, the aggregate Kaplan-Meier curves and the
/// discomfort-offset summaries. Returns a checksum so no call is dead code.
double compute_figure_tables(const uucs::analysis::StudyAccumulator& acc) {
  using uucs::analysis::BreakdownScope;
  using uucs::analysis::StudyAccumulator;
  double sum = 0.0;
  for (const BreakdownScope scope : {BreakdownScope::kCpuAndBlank, BreakdownScope::kAllRuns}) {
    for (std::size_t t = 0; t < StudyAccumulator::kAllTasks; ++t) {
      sum += static_cast<double>(acc.breakdown(t, scope).nonblank_discomforted);
    }
    sum += static_cast<double>(acc.breakdown_total(scope).blank_discomforted);
  }
  for (std::size_t t = 0; t <= StudyAccumulator::kAllTasks; ++t) {
    for (std::size_t r = 0; r < uucs::study::kResources; ++r) {
      sum += acc.cell(t, r).fd;
    }
  }
  for (std::size_t r = 0; r < uucs::study::kResources; ++r) {
    sum += static_cast<double>(acc.aggregate_km(r).size());
  }
  for (std::size_t t = 0; t < StudyAccumulator::kAllTasks; ++t) {
    if (const auto off = acc.offsets(t)) sum += off->median;
  }
  return sum;
}

}  // namespace

StudyLeg run_study_leg(const uucs::study::PopulationParams& params,
                       std::size_t participants, std::uint64_t seed,
                       std::size_t jobs, Tracer* tracer) {
  StudyLeg leg;
  uucs::study::ControlledStudyConfig cfg;
  cfg.participants = participants;
  cfg.seed = seed;
  cfg.jobs = jobs;
  cfg.streaming = true;

  const std::int64_t t0 = now_ns();
  const int root = tracer ? tracer->begin("study.leg", -1, jobs) : -1;
  if (tracer) {
    // run_controlled_study draws the population internally; this mirror
    // draw on the same stream times that layer on its own.
    const int s = tracer->begin("study.population", root, jobs);
    uucs::Rng rng(seed);
    uucs::Rng pop_rng = rng.fork(uucs::streams::kControlledPopulation);
    const auto users = uucs::study::generate_population(params, participants, pop_rng);
    tracer->end(s);
    if (users.size() != participants) throw std::runtime_error("population size mismatch");
    leg.population_s = static_cast<double>(tracer->spans()[s].end_ns -
                                           tracer->spans()[s].start_ns) / 1e9;
  }

  const int study_span = tracer ? tracer->begin("study.run_controlled_study", root, jobs) : -1;
  const auto out = uucs::study::run_controlled_study(cfg, params);
  if (tracer) {
    tracer->end(study_span);
    // The engine reports its phases as durations; they end the study call
    // in order map -> merge.
    const std::int64_t end = tracer->spans()[study_span].end_ns;
    const auto merge_ns = static_cast<std::int64_t>(out.engine.merge_s * 1e9);
    const auto map_ns = static_cast<std::int64_t>(out.engine.wall_s * 1e9);
    tracer->add("engine.map", end - merge_ns - map_ns, end - merge_ns, study_span, jobs);
    tracer->add("engine.merge", end - merge_ns, end, study_span, jobs);
  }
  if (!out.aggregates) throw std::runtime_error("streaming study returned no aggregates");

  const std::int64_t r0 = now_ns();
  const int report_span = tracer ? tracer->begin("analysis.report", root, jobs) : -1;
  const double checksum = compute_figure_tables(*out.aggregates);
  if (tracer) tracer->end(report_span);
  leg.report_s = seconds_since(r0);
  if (!(checksum > 0.0)) throw std::runtime_error("figure tables came out empty");

  const std::int64_t s0 = now_ns();
  const int ser_span = tracer ? tracer->begin("analysis.serialize", root, jobs) : -1;
  leg.aggregates = out.aggregates->serialize();
  if (tracer) tracer->end(ser_span);
  leg.serialize_s = seconds_since(s0);
  if (tracer) tracer->end(root);

  leg.wall_s = seconds_since(t0);
  leg.workers = out.engine.workers;
  leg.runs = out.aggregates->runs();
  leg.map_s = out.engine.wall_s;
  leg.cpu_s = out.engine.cpu_s;
  leg.merge_s = out.engine.merge_s;
  if (leg.runs != out.engine.runs_simulated) {
    throw std::runtime_error("aggregated runs differ from the engine's count");
  }
  return leg;
}

}  // namespace perfbench
