#pragma once

// The study half of UUCS: the controlled study with streaming aggregation,
// from population draw to the computed figure tables, at a given worker
// count.

#include <cstddef>
#include <cstdint>
#include <string>

#include "study/calibration.hpp"
#include "trace.hpp"

namespace perfbench {

struct StudyLeg {
  std::size_t workers = 0;
  std::uint64_t runs = 0;        ///< simulated runs (exact)
  double wall_s = 0.0;           ///< population draw -> figure tables
  double map_s = 0.0;            ///< engine map() wall time
  double cpu_s = 0.0;            ///< process CPU inside map()
  double merge_s = 0.0;          ///< slot-order accumulator merge
  double report_s = 0.0;         ///< figure tables from the aggregates
  double serialize_s = 0.0;      ///< aggregates -> text
  double population_s = 0.0;     ///< traced legs only: generate_population
  std::string aggregates;        ///< serialized aggregates (the gate's input)
  double runs_per_s() const { return wall_s > 0 ? static_cast<double>(runs) / wall_s : 0.0; }
};

/// Runs one leg. With a tracer, also times a mirror generate_population call
/// and records a span around each study layer, under one study.leg root.
StudyLeg run_study_leg(const uucs::study::PopulationParams& params,
                       std::size_t participants, std::uint64_t seed,
                       std::size_t jobs, Tracer* tracer);

}  // namespace perfbench
