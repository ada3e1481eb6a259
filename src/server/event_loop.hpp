#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/net.hpp"
#include "util/thread_pool.hpp"

namespace uucs {

/// Incremental reassembler for the "UUCS <len>\n<payload>" wire framing.
/// Feed it whatever bytes the socket produced — a byte at a time or a
/// megabyte — and it hands back each complete payload exactly once. Headers
/// go through TcpChannel::parse_frame_header, the grammar the blocking
/// read() uses too.
class FrameReader {
 public:
  /// Longest accepted payload: the blocking reader's cap.
  static constexpr std::size_t kMaxFrameBytes = TcpChannel::kMaxFrameBytes;

  /// Appends raw socket bytes to the reassembly buffer.
  void feed(const char* data, std::size_t n);

  /// Extracts the next complete payload into `payload`. Returns true when a
  /// whole frame was consumed; false when more bytes are needed. Throws
  /// ProtocolError on a malformed header or oversized length — the
  /// connection is beyond repair at that point and must be closed.
  bool next(std::string& payload);

  /// Zero-copy variant: on true, `payload` is a view into the reassembly
  /// buffer. The view is valid only until the next feed()/next()/next_view()
  /// call — consumers that need the bytes past that point must copy (next()
  /// is exactly that copy). The ingest hot path peeks and parses straight
  /// out of this view, so a request never exists as a second string.
  bool next_view(std::string_view& payload);

  /// Bytes buffered but not yet returned (partial frame in flight).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  /// Parses the frame at the consumed_ cursor. True: `header_len`/`len`
  /// describe it; false: incomplete. Throws on malformed headers.
  bool parse_frame(std::size_t& header_len, std::size_t& len) const;

  std::string buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
};

/// Counters the event loop exposes for benchmarks, tests and ops. Snapshot
/// via EventLoopServer::stats(); all fields are cumulative since start
/// except `open_connections`.
struct EventLoopStats {
  std::uint64_t accepted = 0;          ///< connections accepted
  std::uint64_t closed = 0;            ///< connections fully torn down
  std::uint64_t idle_timeouts = 0;     ///< closed by the timer wheel
  std::uint64_t frames = 0;            ///< complete requests reassembled
  std::uint64_t responses = 0;         ///< responses written out
  std::uint64_t dismissed = 0;         ///< requests released without a response
  std::uint64_t protocol_errors = 0;   ///< closed on malformed framing
  std::uint64_t accept_pauses = 0;     ///< times accept stopped at the cap
  std::uint64_t buffer_read_pauses = 0;  ///< reads paused by the memory cap
  std::uint64_t buffer_accept_pauses = 0;///< accept paused by the memory cap
  std::size_t open_connections = 0;    ///< currently open
  std::size_t max_open_connections = 0;///< high-water mark
  std::size_t inflight = 0;            ///< dispatched, not yet completed
  std::size_t buffered_bytes = 0;      ///< current global in+out buffer bytes
  std::size_t max_buffered_bytes_seen = 0;  ///< high-water mark
};

/// Non-blocking epoll server: one loop thread owns every socket (the
/// listener included), a fixed ThreadPool runs the request handler, and
/// responses come back to the loop over an eventfd-signalled completion
/// queue. This replaces the thread-per-connection accept loop — a million
/// idle clients cost a million sockets, not a million stacks (DESIGN.md
/// §13).
///
/// Responsibilities of the loop thread:
///  - accept (paused while at `max_connections`, resumed on close),
///  - read readiness: drain the socket, reassemble frames (FrameReader),
///    dispatch each complete frame to the worker pool,
///  - write readiness: flush the per-connection output buffer,
///  - idle expiry: a hashed timer wheel closes connections that have not
///    completed a frame within `idle_timeout_s` — a slow-loris peer
///    trickling one byte per poll never refreshes its deadline,
///  - completions: responses finished by workers (or by asynchronous
///    durability callbacks) are queued from any thread and written by the
///    loop.
///
/// The handler receives each request payload plus a Responder token; it may
/// reply inline (from the worker) or stash the token and reply later from
/// another thread (the group-commit durability callback does this). Tokens
/// are generation-checked, so a reply racing a closed-and-recycled fd is
/// dropped instead of answering the wrong client.
class EventLoopServer {
 public:
  struct Config {
    std::uint16_t port = 0;          ///< 0: pick a free port
    std::size_t workers = 2;         ///< request-handler threads
    std::size_t max_connections = 8192;  ///< accept pauses at this many open
    double idle_timeout_s = 30.0;    ///< close after this long without a frame
    std::size_t max_pipeline = 64;   ///< in-flight requests per connection
    int listen_backlog = 1024;
    /// Adopt this already-listening socket instead of binding a fresh one
    /// (-1: bind). The loop takes ownership. This is how a takeover target
    /// inherits the live listener its predecessor passed over SCM_RIGHTS.
    int adopted_fd = -1;
    /// Start with accept paused (resume_accept() arms it). A takeover
    /// target replays state and confirms the handoff before serving.
    bool start_paused = false;
    /// Global cap on buffered bytes across every connection (reassembly
    /// buffers + queued responses). Above it the loop pauses accept and
    /// stops reading from connections until buffers drain below 7/8 of the
    /// cap — memory stays bounded no matter how many peers firehose at
    /// once. 0 disables the cap. Adjustable at runtime via
    /// set_max_buffered_bytes() (the pressure monitor shrinks it).
    std::size_t max_buffered_bytes = 0;
  };

  /// A claim ticket for one request's response. Valid until used once;
  /// thread-safe; outliving the *connection* is safe — the reply is
  /// generation-checked and silently dropped when the slot was recycled.
  /// Responders must not outlive the EventLoopServer object itself.
  class Responder {
   public:
    Responder() = default;

    /// Queues `payload` as the framed response and wakes the loop. May be
    /// called from any thread, at most once per Responder.
    void send(std::string payload) const;

    /// Releases the request slot WITHOUT responding: the connection's
    /// pipeline credit and the server's in-flight count are returned, but
    /// no bytes are written — the peer's read times out. This is how the
    /// overload layer sheds pre-v3 clients (their retry timeout does the
    /// spreading a typed busy reply would). At most once per Responder,
    /// exclusive with send().
    void dismiss() const;

    /// Milliseconds this request has spent since the loop dispatched it to
    /// the worker pool — the queue age the admission deadline sheds on.
    double queue_age_ms() const;

    bool valid() const { return server_ != nullptr; }

   private:
    friend class EventLoopServer;
    Responder(EventLoopServer* server, std::size_t index, std::uint64_t generation,
              std::uint64_t enqueued_ms)
        : server_(server), index_(index), generation_(generation),
          enqueued_ms_(enqueued_ms) {}

    EventLoopServer* server_ = nullptr;
    std::size_t index_ = 0;        ///< slot in conns_
    std::uint64_t generation_ = 0; ///< guards against slot reuse
    std::uint64_t enqueued_ms_ = 0;///< dispatch timestamp (monotonic)
  };

  /// Handler for one complete request frame. Runs on a worker thread. Must
  /// eventually call `respond.send(...)` or `respond.dismiss()` exactly
  /// once (directly or from a completion callback); doing neither leaks the
  /// client's request (it will eventually idle out).
  using Handler = std::function<void(std::string payload, Responder respond)>;

  /// Binds and starts the loop + workers immediately.
  EventLoopServer(Config config, Handler handler);

  /// stop() + join.
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Stops accepting, closes every connection, drains the workers and joins
  /// the loop thread. Idempotent; safe from any thread except a worker.
  void stop();

  EventLoopStats stats() const;

  /// Blocks until `open_connections == 0` or the deadline passes (0: no
  /// deadline). For tests that want a quiesced server.
  bool wait_connections_drained(double timeout_s = 0.0) const;

  /// Stops accepting new connections until resume_accept(). Sticky: unlike
  /// the automatic pause at max_connections, closes do not re-arm the
  /// listener. The listening socket stays open, so newcomers queue in the
  /// kernel backlog instead of being refused — during a takeover they are
  /// served by whichever process accepts next. Blocks until the loop thread
  /// has applied it; no-op after stop().
  void pause_accept();

  /// Re-arms accept and leaves drain mode (the takeover rollback path):
  /// connections already winding down still close once flushed, but future
  /// accepts are served normally. Drains the kernel backlog immediately.
  void resume_accept();
  bool accept_paused() const;

  /// Enters drain mode: every connection finishes its in-flight requests,
  /// flushes its responses, and is then closed. Frames already buffered but
  /// not yet dispatched are discarded — a draining server rejects new work
  /// while completing what it accepted. New connections are unaffected
  /// (pause_accept() first for a full quiesce). Blocks until applied;
  /// combine with wait_connections_drained() for the full barrier.
  void begin_drain();

  /// Force-closes every open connection (stranding any in-flight responses).
  /// The quiesce path uses this after a drain deadline: a straggler must not
  /// be able to receive an ack after the final snapshot. Blocks until
  /// applied.
  void close_all_connections();

  /// Blocks until every request handler submitted to the worker pool has
  /// returned. With accept paused and all connections closed this is the
  /// "no more journal appends" barrier.
  void wait_workers_idle();

  /// Permanently detaches the listening socket from this loop and close(2)s
  /// our fd WITHOUT shutdown(2): a duplicate held by a takeover target (or
  /// any SCM_RIGHTS recipient) keeps the shared socket and its backlog
  /// alive. After this the loop only serves existing connections. Blocks
  /// until applied.
  void retire_listener();

  /// The listening socket's fd (for SCM_RIGHTS handoff); -1 after
  /// retire_listener().
  int listener_fd() const { return listener_.native_handle(); }

  /// Requests dispatched to the worker pool and not yet completed (sent or
  /// dismissed), across every connection. Lock-free — the admission check
  /// reads it on every request.
  std::size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

  /// Current global buffered bytes (reassembly + queued responses).
  std::size_t buffered_bytes() const {
    return buffered_mirror_.load(std::memory_order_relaxed);
  }

  /// Adjusts the global buffer cap at runtime (0 disables). The pressure
  /// monitor shrinks it when host memory runs short. Blocks until the loop
  /// thread has applied it.
  void set_max_buffered_bytes(std::size_t bytes);

 private:
  /// Per-connection state. Slots are recycled by index; `generation`
  /// increments on every reuse so stale Responders cannot touch a new
  /// connection.
  struct Connection {
    UniqueFd fd;
    std::uint64_t generation = 0;
    FrameReader reader;
    /// One queued response: frame header and payload kept separate so the
    /// payload string moves unchanged from the worker into the socket
    /// (writev sends both without ever concatenating them).
    struct OutMsg {
      std::string header;   ///< "UUCS <len>\n" (always fits SSO)
      std::string payload;
      std::size_t size() const { return header.size() + payload.size(); }
    };
    std::deque<OutMsg> out;           ///< responses awaiting write
    std::size_t out_offset = 0;       ///< bytes of out.front() already sent
    std::size_t out_bytes = 0;        ///< total unsent bytes across `out`
    bool flush_queued = false;        ///< in dirty_conns_ this wakeup
    std::size_t accounted_bytes = 0;  ///< this connection's share of the global total
    std::size_t in_flight = 0;        ///< dispatched, not yet responded
    bool want_write = false;          ///< EPOLLOUT currently armed
    bool paused_read = false;         ///< EPOLLIN unarmed (pipeline full)
    bool buffer_paused = false;       ///< EPOLLIN unarmed (global memory cap)
    bool open = false;
    bool draining = false;            ///< close after pending responses flush
    // Timer wheel intrusive list (slot index, or npos when unlinked).
    std::size_t timer_bucket = npos;
    std::size_t timer_prev = npos;
    std::size_t timer_next = npos;
    std::uint64_t idle_deadline_tick = 0;
  };

  struct Completion {
    std::size_t index;
    std::uint64_t generation;
    /// nullopt: a dismiss() — release the slot, write nothing.
    std::optional<std::string> payload;
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  void loop();
  bool run_on_loop(std::function<void()> fn);
  void run_commands();
  void wake();
  void handle_accept();
  void handle_readable(std::size_t index);
  void handle_writable(std::size_t index);
  void dispatch_frames(std::size_t index);
  /// Enqueues `payload` (framing it with a separate header) and marks the
  /// connection dirty; the actual write happens once per wakeup in
  /// drain_completions so pipelined acks coalesce into one writev.
  void queue_write(std::size_t index, std::string payload);
  void flush_writes(std::size_t index);
  void close_connection(std::size_t index, bool timed_out);
  void drain_completions();
  void update_epoll(std::size_t index);
  void arm_listener(bool armed);
  /// Re-syncs `index`'s buffered-byte share into the global total and
  /// applies/releases memory-cap pressure (loop thread only).
  void update_buffer_accounting(std::size_t index);
  void apply_buffer_pressure();

  // Timer wheel (loop thread only).
  void wheel_link(std::size_t index);
  void wheel_unlink(std::size_t index);
  void touch_idle_deadline(std::size_t index);
  void expire_idle(std::uint64_t now_tick);

  Config config_;
  Handler handler_;
  TcpListener listener_;
  UniqueFd epoll_fd_;
  UniqueFd wake_fd_;  ///< eventfd: completions + stop requests

  std::vector<Connection> conns_;
  std::vector<std::size_t> free_slots_;
  std::size_t open_count_ = 0;
  bool listener_armed_ = false;
  bool accept_paused_ = false;  ///< sticky pause (loop thread only)
  std::atomic<bool> accept_paused_flag_{false};  ///< accept_paused() snapshot
  bool drain_mode_ = false;     ///< every connection is winding down

  // Global buffer accounting (loop thread only, mirrored for readers).
  std::size_t max_buffered_bytes_ = 0;   ///< 0: uncapped
  std::size_t buffered_total_ = 0;
  std::atomic<std::size_t> max_buffered_seen_{0};
  bool buffer_pressure_ = false;         ///< over the cap; reads+accept paused
  std::vector<std::size_t> buffer_paused_;  ///< connections paused by the cap
  std::atomic<std::size_t> buffered_mirror_{0};
  std::atomic<std::size_t> inflight_{0};  ///< updated on the loop thread only

  // Hashed timer wheel: one bucket per tick, chained by slot index.
  std::vector<std::size_t> wheel_;
  std::uint64_t wheel_tick_ = 0;   ///< last expired tick
  std::uint64_t idle_ticks_ = 0;   ///< idle timeout in ticks
  static constexpr std::uint64_t kTickMs = 100;

  /// Connections with responses queued this wakeup, flushed once each at
  /// the end of drain_completions (loop thread only).
  std::vector<std::size_t> dirty_conns_;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
  std::vector<std::function<void()>> commands_;  ///< run_on_loop queue
  bool commands_closed_ = false;  ///< loop exited; execute inline instead

  std::atomic<bool> stopping_{false};
  mutable std::mutex stats_mu_;
  EventLoopStats stats_;
  mutable std::condition_variable drained_cv_;

  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;
};

}  // namespace uucs
