#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "server/event_loop.hpp"
#include "server/overload.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/clock.hpp"
#include "util/journal.hpp"

namespace uucs {

/// The assembled ingest plane (DESIGN.md §13): an EventLoopServer accepting
/// the wire protocol, a worker pool dispatching requests against a (sharded)
/// UucsServer, and — when the server has a journal attached — a
/// GroupCommitJournal that coalesces every concurrent ack's durability into
/// one buffered write + one fsync.
///
/// Ack protocol: a request that accepted new state gets its response only
/// from the batch-durability callback; a request that accepted nothing
/// (read-only sync, duplicate upload, error) is routed through the committer
/// as an ordering barrier, so even an "already stored" ack cannot overtake
/// the fsync of the batch carrying the original entry. Without a journal,
/// responses leave as soon as the worker finishes.
///
/// Exactly-once end to end: clients mint run_ids, the server dedups them,
/// and nothing is acked before the group commit has made it durable. This
/// is the only path from wire bytes to a durable ack.
class IngestServer {
 public:
  struct Config {
    EventLoopServer::Config loop;
    GroupCommitJournal::Config commit;
    /// Accepted journal entries between automatic snapshots (0: never).
    /// Snapshots run server.save(state_dir) inside the committer's
    /// exclusive section, then the journal restarts empty.
    std::size_t snapshot_every = 0;
    std::string state_dir;
    /// Admission control, load shedding, and the memory-pressure accept
    /// gate (DESIGN.md §15). Default-constructed = everything off.
    OverloadController::Config overload;
    /// Optional fault-injection registry (chaos runs). Not owned; wired
    /// into the journal's fault hook and the pressure probe.
    ResourceFailpoints* failpoints = nullptr;
  };

  /// `server` must outlive this object; its journal (if any) must be
  /// attached before construction and not touched directly afterwards.
  IngestServer(UucsServer& server, Config config, Clock* clock = nullptr);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  std::uint16_t port() const { return loop_->port(); }

  /// Orderly shutdown: stop accepting, fail new appends, drain the
  /// committer so every in-flight ack resolves, then stop the loop.
  /// Idempotent.
  void stop();

  /// Snapshot on demand (same exclusive path as snapshot_every).
  void snapshot_now();

  /// Quiesces the ingest plane for a takeover or graceful exit: pause(),
  /// drain(), flush_commits(). After this returns no code path can append
  /// to the journal until resume(). Returns drain()'s verdict. The takeover
  /// controller runs the same three steps as separate handoff stages.
  bool quiesce(double drain_timeout_s);

  /// Quiesce step 1: suspends the pressure monitor (so no probe can re-open
  /// the accept gate before resume()), then stops accepting. Newcomers
  /// queue in the kernel backlog — the listening socket stays open.
  void pause();

  /// Quiesce step 2: drains every connection, force-closes stragglers after
  /// `drain_timeout_s` (their un-acked requests are stranded, never acked,
  /// and will be retried + deduplicated), then waits for the worker pool to
  /// go idle. Returns true when the drain completed without force-closing.
  bool drain(double drain_timeout_s);

  /// Leaves a pause: resumes accepting (serving the backlog that queued up
  /// meanwhile), then re-arms the pressure monitor. The only way out of a
  /// plane built with `loop.start_paused`, and the takeover controller's
  /// rollback when the new process dies before confirming readiness.
  void resume();

  /// Blocks until everything queued at the group-commit journal is durable.
  /// No-op without a journal.
  void flush_commits() {
    if (committer_) committer_->flush();
  }

  EventLoopStats loop_stats() const { return loop_->stats(); }
  bool has_committer() const { return committer_ != nullptr; }
  GroupCommitJournal::Stats commit_stats() const;
  std::uint64_t snapshots_taken() const { return snapshots_.load(); }

  OverloadStats overload_stats() const { return overload_->stats(); }

  /// kOk when no journal is attached (nothing can degrade).
  GroupCommitJournal::Health journal_health() const {
    return committer_ ? committer_->health() : GroupCommitJournal::Health::kOk;
  }

  /// The [stats-response] message answering a [stats-request]: every loop,
  /// commit, and overload counter as one kv record. Also what
  /// `uucs_server --stats-interval` prints a digest of.
  std::string encode_stats_response() const;

  EventLoopServer& loop() { return *loop_; }

 private:
  void handle_request(std::string payload, EventLoopServer::Responder respond);
  void shed(const RequestPeek& peek, EventLoopServer::Responder respond,
            const std::string& kind, const std::string& message);
  void maybe_snapshot(std::size_t new_entries);
  void do_snapshot(bool force);

  UucsServer& server_;
  Config config_;
  Clock* clock_;
  std::unique_ptr<GroupCommitJournal> committer_;
  std::unique_ptr<OverloadController> overload_;
  std::atomic<std::uint64_t> entries_since_snapshot_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  std::mutex snapshot_mu_;
  std::atomic<bool> stopped_{false};
  std::unique_ptr<EventLoopServer> loop_;  ///< last member: stops first
};

}  // namespace uucs
