#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "server/protocol.hpp"
#include "util/failpoint.hpp"

namespace uucs {

/// Why (or whether) the admission gate let a request through.
enum class Admission : std::uint8_t {
  kOk = 0,
  kShedQueue,         ///< loop->worker queue at capacity
  kShedRegistration,  ///< registrations shed early, before syncs
  kShedDeadline,      ///< waited past its deadline; an answer is useless now
};

/// Counters for every shedding decision the overload layer makes. Sampled
/// by uucs_server --stats-interval and the uucsctl stats subcommand.
struct OverloadStats {
  std::uint64_t shed_queue = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_registrations = 0;
  std::uint64_t degraded_rejects = 0;  ///< write-class rejected, journal degraded
  std::uint64_t pressure_pauses = 0;
  std::uint64_t pressure_resumes = 0;
  std::uint64_t probes = 0;
  double last_available_frac = 1.0;
};

/// Admission control + load shedding for the ingest plane. Two halves:
///
///  - admit(): a pure, lock-free-on-the-hot-path gate the ingest handler
///    consults before paying for a parse. Sheds when the loop->worker queue
///    is past its depth cap (registrations shed earlier than syncs — a
///    machine that cannot register simply retries, while a machine mid-sync
///    has results the study wants) or when the request already waited past
///    its deadline (the client has given up; answering wastes a worker).
///
///  - a pressure monitor thread feeding the PR 4 memory probe into the
///    accept gate: below `min_available_frac` available memory the server
///    stops accepting new connections (on_pressure_enter), resuming only
///    above 1.5x the floor so the boundary does not flap. Failpoints can
///    override the probe for deterministic chaos runs.
///
/// The controller never touches sockets itself — the ingest server wires
/// the callbacks, keeping this class unit-testable without a loop.
class OverloadController {
 public:
  struct Config {
    /// Max requests dispatched-but-not-completed before shedding. 0: off.
    std::size_t max_queue_depth = 0;
    /// Shed a request that sat queued longer than this. 0: off.
    double request_deadline_ms = 0.0;
    /// Registrations shed at this fraction of max_queue_depth.
    double register_shed_frac = 0.5;
    /// Pause accept below this available-memory fraction. 0: off.
    double min_available_frac = 0.0;
    /// Pressure probe period.
    double pressure_interval_s = 0.5;
    /// Backoff hint stamped on v3 busy/degraded replies.
    std::uint64_t retry_after_ms = 200;
    /// Optional probe override source (chaos runs). Not owned.
    ResourceFailpoints* failpoints = nullptr;
  };

  explicit OverloadController(Config config) : config_(config) {}
  ~OverloadController() { stop(); }

  OverloadController(const OverloadController&) = delete;
  OverloadController& operator=(const OverloadController&) = delete;

  /// The admission gate. `queue_age_ms` is how long the request sat between
  /// the loop thread and this worker; `inflight` is the server-wide count of
  /// dispatched-but-uncompleted requests. Stats requests always pass — an
  /// operator must be able to observe an overloaded server.
  Admission admit(const RequestPeek& peek, double queue_age_ms,
                  std::size_t inflight);

  /// Called by ingest when a write-class request is rejected because the
  /// journal is degraded (this class does not see the journal itself).
  void note_degraded_reject();

  /// Starts the pressure monitor (no-op when min_available_frac is 0 and
  /// there are no failpoints to consult).
  void start(std::function<void()> on_pressure_enter,
             std::function<void()> on_pressure_exit);
  void stop();

  /// Quiesce/takeover windows: a suspended monitor keeps probing but takes
  /// no action, so it cannot fight the drain logic for the accept gate. If
  /// the monitor itself paused accept, it releases it before going quiet.
  void set_suspended(bool suspended);

  /// True while the monitor holds the accept gate shut.
  bool pressure_paused() const {
    return pressure_paused_.load(std::memory_order_relaxed);
  }

  std::uint64_t retry_after_ms() const { return config_.retry_after_ms; }

  OverloadStats stats() const;

 private:
  void monitor_loop();
  void probe_once();

  Config config_;

  mutable std::mutex stats_mu_;
  OverloadStats stats_;

  std::mutex mu_;  // monitor wakeups
  std::condition_variable cv_;
  std::thread monitor_;
  bool running_ = false;
  bool stop_requested_ = false;
  /// Serializes set_suspended() with a probe's pause/resume decision and
  /// callback, so no probe that read "not suspended" can act afterwards.
  std::mutex gate_mu_;
  bool suspended_ = false;  ///< guarded by gate_mu_
  std::atomic<bool> pressure_paused_{false};
  std::function<void()> on_pressure_enter_;
  std::function<void()> on_pressure_exit_;
};

}  // namespace uucs
