#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "testcase/exercise_function.hpp"
#include "testcase/resource.hpp"
#include "util/clock.hpp"

namespace uucs {

class ResourceFailpoints;

/// Tuning knobs shared by the real resource exercisers.
struct ExerciserConfig {
  /// Length of one busy-or-sleep subinterval (§2.2: "each larger than the
  /// scheduling resolution of the machine").
  double subinterval_s = 0.01;

  /// Memory exerciser: size of the allocated page pool. The paper uses the
  /// machine's full physical memory; the default here is deliberately small
  /// so library consumers must opt in to full-memory borrowing.
  std::size_t memory_pool_bytes = 64ull << 20;

  /// Memory exerciser: the fraction of physical (or cgroup-limited) memory
  /// that must stay available to the host. The pool is capped at startup to
  /// respect the floor, and the touched working set shrinks while the
  /// pressure probe reports availability below it — borrowing politely
  /// degrades instead of OOMing the machine it is a guest on.
  double memory_headroom_frac = 0.05;

  /// Memory exerciser: seconds between pressure-probe checks during a run.
  double pressure_check_interval_s = 0.05;

  /// Disk exerciser: backing file size. The paper uses 2x physical memory
  /// to defeat the buffer cache; capped by default for small build hosts.
  std::size_t disk_file_bytes = 64ull << 20;

  /// Disk exerciser: directory for the backing file.
  std::string disk_dir = "/tmp";

  /// Disk exerciser: maximum bytes per random write.
  std::size_t disk_max_write_bytes = 256ull << 10;

  /// Disk exerciser: free space on the backing volume is never drawn below
  /// this; the backing file shrinks (a degradation, not an error) to fit.
  std::size_t disk_min_free_bytes = 64ull << 20;

  /// Disk exerciser: unlink the backing file right after opening it so a
  /// SIGKILL can never leak scratch space (the kernel reclaims it when the
  /// last descriptor closes). Disable for filesystems that refuse writes
  /// to unlinked files, or to inspect the file while a run is live.
  bool unlink_scratch = true;

  /// Maximum concurrent worker threads per exerciser (contention is capped
  /// at this value; the paper verifies CPU to level 10 and disk to 7).
  unsigned max_threads = 16;

  /// Seed for the stochastic fractional-duty decisions.
  std::uint64_t seed = 0x5eed;

  /// Watchdog: slack past the testcase duration before a run is forcibly
  /// stopped (absorbs slow-IO stalls without failing healthy runs).
  double watchdog_grace_s = 2.0;

  /// Watchdog: once a stop is in flight (user feedback or the watchdog
  /// itself), workers must finish within this bound or the run is marked
  /// hung and the stragglers abandoned. This is the documented limit on
  /// the §2.3 "stop immediately" promise.
  double stop_bound_s = 1.0;

  /// Deterministic host-fault injection (ENOSPC/EIO/slow-IO into disk
  /// writes, fake readings into the memory-pressure probe). Null — the
  /// default — means not even the armed-check is paid on the hot paths.
  std::shared_ptr<ResourceFailpoints> failpoints;

  /// Validates every knob; throws ConfigError naming the offending field.
  /// All exerciser constructors call this, so a bad config fails loudly at
  /// construction instead of misbehaving mid-run (e.g. disk_max_write_bytes
  /// >= disk_file_bytes used to silently clamp every write to offset 0).
  void validate() const;
};

/// A resource exerciser (§2.2): applies the contention described by an
/// exercise function to one resource, in real time, until the function is
/// exhausted or `stop()` is called (the paper stops exercisers immediately
/// when the user expresses discomfort).
///
/// run() blocks; call it from a dedicated thread when exercising several
/// resources at once (see ExerciserSet). Implementations run their workers
/// at normal priority, like the paper's.
class ResourceExerciser {
 public:
  virtual ~ResourceExerciser() = default;

  /// Which resource this exerciser borrows.
  virtual Resource resource() const = 0;

  /// Plays `f` from t=0 until exhaustion or stop(). Returns the number of
  /// seconds of the function actually played.
  virtual double run(const ExerciseFunction& f) = 0;

  /// Requests an immediate stop; safe to call from any thread. run()
  /// returns within roughly one subinterval.
  virtual void stop() = 0;

  /// Resets the stop flag (and the degradation summary) so the exerciser
  /// can run again.
  virtual void reset() = 0;

  /// Recoverable host faults absorbed during the last run(): ENOSPC/EIO
  /// backoffs, pressure shrinks, a shrunk backing file. A nonzero count
  /// means the run completed *degraded* — it kept its schedule as well as
  /// the hostile host allowed, without harming it.
  struct Degradation {
    std::size_t events = 0;
    std::string detail;  ///< last/most significant fault, human-readable
  };
  virtual Degradation degradation() const { return {}; }
};

/// Creates the real CPU exerciser (calibrated busy-wait playback).
std::unique_ptr<ResourceExerciser> make_cpu_exerciser(Clock& clock,
                                                      const ExerciserConfig& cfg = {});

/// Creates the real memory exerciser (touched-page pool).
std::unique_ptr<ResourceExerciser> make_memory_exerciser(Clock& clock,
                                                         const ExerciserConfig& cfg = {});

/// Creates the real disk exerciser (random seek + synced write).
std::unique_ptr<ResourceExerciser> make_disk_exerciser(Clock& clock,
                                                       const ExerciserConfig& cfg = {});

/// Unlinks scratch files (uucs-disk-exerciser-<pid>.dat) in `dir` whose
/// owning PID is dead — the leftovers of clients killed before they could
/// clean up. Returns how many files were reclaimed. Called by the disk
/// exerciser at startup; exposed for tools and tests.
std::size_t reclaim_stale_scratch_files(const std::string& dir);

}  // namespace uucs
