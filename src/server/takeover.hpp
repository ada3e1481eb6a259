#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "server/event_loop.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"

namespace uucs {

/// Stages of the old-process handoff state machine (DESIGN.md §14). The
/// takeover is safe to kill -9 at every stage boundary on either side: before
/// kRetire the old process (or its restart) still owns the state; once the
/// new process has confirmed readiness the state on disk is complete and the
/// new process owns it.
enum class TakeoverStage {
  kHello,      ///< control connection accepted, versions checked
  kPause,      ///< stop accepting (newcomers queue in the kernel backlog)
  kDrain,      ///< finish in-flight requests, close every connection
  kFlush,      ///< flush the group-commit batch (every ack durable)
  kSnapshot,   ///< final atomic snapshot; journal compacts to empty
  kSendFd,     ///< pass the listening socket via SCM_RIGHTS
  kSendState,  ///< hand over the cursor: state dir, journal, counts, generation
  kWaitReady,  ///< wait for the new process to replay and confirm
  kRetire,     ///< close our listener fd (no shutdown(2)) and stop serving
};

const char* to_string(TakeoverStage stage);

/// Old-process side of a live takeover. Listens on a unix-domain control
/// socket; when a successor connects it drives the handoff protocol against
/// the IngestServer/UucsServer pair it wraps. A failure at any stage before
/// the successor confirms readiness rolls back: the old process resumes
/// accepting (clients that queued in the kernel backlog meanwhile are served
/// with no visible downtime) and the controller waits for the next attempt.
class TakeoverController {
 public:
  struct Config {
    std::string socket_path;    ///< unix-domain control socket to listen on
    std::string state_dir;      ///< snapshot dir handed to the successor
    std::string journal_path;   ///< journal file handed to the successor
    double drain_timeout_s = 10.0;  ///< force-close stragglers after this
    double ready_timeout_s = 30.0;  ///< successor replay budget
    double io_timeout_s = 10.0;     ///< per-message control-socket deadline
    /// Test hook, invoked before each stage runs. Returning false simulates
    /// a kill -9 at that boundary: the control connection drops, the
    /// controller stops, and the process state is whatever the previous
    /// stage left behind — no rollback, exactly like a real crash.
    std::function<bool(TakeoverStage)> stage_hook;
    /// Runs once after a successful handoff (kRetire complete). The server
    /// main loop uses this to begin its drain-and-exit.
    std::function<void()> on_handed_off;
  };

  /// `ingest` and `server` must outlive the controller. Starts the control
  /// listener immediately; throws ConfigError for a missing socket path or
  /// state dir and SystemError if the socket cannot be bound.
  TakeoverController(IngestServer& ingest, UucsServer& server, Config config);
  ~TakeoverController();

  TakeoverController(const TakeoverController&) = delete;
  TakeoverController& operator=(const TakeoverController&) = delete;

  /// True once a successor has confirmed readiness and we retired the
  /// listener. The old process must NOT write another snapshot after this
  /// (it would compact the journal underneath the successor).
  bool handed_off() const { return handed_off_.load(std::memory_order_acquire); }

  /// True when the stage hook vetoed a stage (simulated crash; tests only).
  bool killed() const { return killed_.load(std::memory_order_acquire); }

  /// Handoffs that failed before readiness and were rolled back.
  std::uint64_t rollbacks() const { return rollbacks_.load(std::memory_order_relaxed); }

  /// Stage the in-progress (or last) handoff reached.
  TakeoverStage stage() const {
    return static_cast<TakeoverStage>(stage_.load(std::memory_order_acquire));
  }

  /// Stops the control listener and joins. Idempotent; does not undo a
  /// completed handoff.
  void stop();

 private:
  void accept_loop();
  bool handle_connection(TcpChannel& ch);
  bool enter_stage(TakeoverStage s);

  IngestServer& ingest_;
  UucsServer& server_;
  Config config_;
  UniqueFd listen_fd_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> handed_off_{false};
  std::atomic<bool> killed_{false};
  std::atomic<std::uint64_t> rollbacks_{0};
  std::atomic<int> stage_{static_cast<int>(TakeoverStage::kHello)};
  std::thread thread_;
};

/// New-process side: connects to the predecessor's control socket, receives
/// the live listening socket and the state cursor, and — after the caller
/// has replayed snapshot + journal and built a paused ingest plane on the
/// inherited fd — confirms readiness.
class TakeoverClient {
 public:
  /// Everything the predecessor hands over.
  struct Inherited {
    UniqueFd listener;          ///< the live listening socket (bound + listening)
    std::string state_dir;      ///< snapshot to load
    std::string journal_path;   ///< journal to replay (compacted ≈ empty)
    std::uint64_t generation = 0;      ///< our generation (predecessor's + 1)
    std::uint64_t expect_clients = 0;  ///< registration count to verify replay
    std::uint64_t expect_results = 0;  ///< result count to verify replay
    std::uint16_t port = 0;            ///< the port the listener serves
  };

  /// Outcome of confirm_ready().
  enum class Go {
    kServe,  ///< predecessor retired (or died post-handoff): start accepting
    kAbort,  ///< predecessor rolled back: do NOT serve, exit
  };

  /// Connects (throws SystemError when nobody listens on `socket_path`).
  explicit TakeoverClient(const std::string& socket_path, double io_timeout_s = 10.0);

  /// Runs hello → accept → fd → state. Throws ProtocolError/TimeoutError on
  /// a malformed or silent predecessor and Error when it aborts the attempt.
  Inherited begin();

  /// Reports the replayed counts. The predecessor verifies them against its
  /// snapshot and either retires (kServe) or aborts (kAbort, count mismatch
  /// or rollback). EOF and a timeout both mean the predecessor is gone or
  /// wedged — and a wedged predecessor is paused, not serving — so the
  /// caller should serve.
  Go confirm_ready(std::uint64_t clients, std::uint64_t results,
                   double go_timeout_s = 30.0);

 private:
  TcpChannel channel_;
  double io_timeout_s_;
};

}  // namespace uucs
