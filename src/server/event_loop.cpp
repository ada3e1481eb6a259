#include "server/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <future>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace uucs {

namespace {

// epoll user-data tags for the two non-connection fds.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr std::uint64_t kListenerTag = ~std::uint64_t{0} - 1;

void set_fd_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw SystemError(std::string("fcntl O_NONBLOCK: ") + std::strerror(errno));
  }
}

std::uint64_t monotonic_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
}

TcpListener make_listener(const EventLoopServer::Config& config) {
  if (config.adopted_fd >= 0) {
    return TcpListener(TcpListener::AdoptFd{config.adopted_fd});
  }
  return TcpListener(config.port, config.listen_backlog);
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameReader

void FrameReader::feed(const char* data, std::size_t n) {
  if (consumed_ == buffer_.size()) {
    // Everything handed out: restart at the front of the warm buffer. (This
    // also invalidates any outstanding next_view() view, which is exactly
    // the documented lifetime.)
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    // Compact once the consumed prefix dominates, so long-lived connections
    // do not grow their buffer without bound.
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

bool FrameReader::parse_frame(std::size_t& header_len, std::size_t& len) const {
  const std::size_t avail = buffer_.size() - consumed_;
  header_len = TcpChannel::parse_frame_header(buffer_.data() + consumed_, avail, len);
  return header_len != 0 && avail >= header_len + len;
}

bool FrameReader::next(std::string& payload) {
  std::size_t header_len = 0;
  std::size_t len = 0;
  if (!parse_frame(header_len, len)) return false;
  payload.assign(buffer_.data() + consumed_ + header_len, len);
  consumed_ += header_len + len;
  return true;
}

bool FrameReader::next_view(std::string_view& payload) {
  std::size_t header_len = 0;
  std::size_t len = 0;
  if (!parse_frame(header_len, len)) return false;
  payload = std::string_view(buffer_.data() + consumed_ + header_len, len);
  // The consumed prefix (including this frame) stays in the buffer until the
  // next feed() resets or compacts it — that keeps the view alive for the
  // dispatch that is about to run.
  consumed_ += header_len + len;
  return true;
}

// ---------------------------------------------------------------------------
// Responder

void EventLoopServer::Responder::send(std::string payload) const {
  if (server_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(server_->completions_mu_);
    server_->completions_.push_back({index_, generation_, std::move(payload)});
  }
  server_->wake();
}

void EventLoopServer::Responder::dismiss() const {
  if (server_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(server_->completions_mu_);
    server_->completions_.push_back({index_, generation_, std::nullopt});
  }
  server_->wake();
}

double EventLoopServer::Responder::queue_age_ms() const {
  if (server_ == nullptr) return 0.0;
  const std::uint64_t now = monotonic_ms();
  return now > enqueued_ms_ ? static_cast<double>(now - enqueued_ms_) : 0.0;
}

// ---------------------------------------------------------------------------
// EventLoopServer

EventLoopServer::EventLoopServer(Config config, Handler handler)
    : config_(config),
      handler_(std::move(handler)),
      listener_(make_listener(config)) {
  UUCS_CHECK_MSG(handler_ != nullptr, "event loop needs a handler");
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_connections == 0) config_.max_connections = 1;
  if (config_.max_pipeline == 0) config_.max_pipeline = 1;
  max_buffered_bytes_ = config_.max_buffered_bytes;

  epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_) throw SystemError(std::string("epoll_create1: ") + std::strerror(errno));
  wake_fd_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_fd_) throw SystemError(std::string("eventfd: ") + std::strerror(errno));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    throw SystemError(std::string("epoll_ctl wake: ") + std::strerror(errno));
  }

  listener_.set_nonblocking(true);
  if (config_.start_paused) {
    accept_paused_ = true;
    accept_paused_flag_.store(true, std::memory_order_release);
  } else {
    arm_listener(true);
  }

  idle_ticks_ = config_.idle_timeout_s > 0.0
                    ? static_cast<std::uint64_t>(config_.idle_timeout_s * 1000.0 / kTickMs) + 1
                    : 0;
  if (idle_ticks_ > 0) {
    // One bucket per tick of the idle span: every connection hashed into the
    // bucket being expired is due exactly now, so expiry never rescans.
    wheel_.assign(static_cast<std::size_t>(idle_ticks_ + 1), npos);
    wheel_tick_ = monotonic_ms() / kTickMs;
  }

  // Workers never make the loop thread wait: the queue bound exceeds the
  // most requests that can ever be in flight (per-connection pipeline cap).
  const std::size_t queue_cap = config_.max_connections * config_.max_pipeline + 16;
  pool_ = std::make_unique<ThreadPool>(config_.workers, queue_cap);
  loop_thread_ = std::thread([this] { loop(); });
}

EventLoopServer::~EventLoopServer() { stop(); }

void EventLoopServer::stop() {
  if (stopping_.exchange(true)) return;  // first caller finishes the teardown
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  listener_.shutdown();
  // Handlers still running may Responder::send() into completions_; the
  // entries are simply never drained. Joining the pool before the members
  // are destroyed keeps those sends safe.
  pool_.reset();
}

void EventLoopServer::wake() {
  const std::uint64_t one = 1;
  // A full eventfd counter still leaves the loop awake; ignore the result.
  [[maybe_unused]] const auto n = ::write(wake_fd_.get(), &one, sizeof(one));
}

bool EventLoopServer::run_on_loop(std::function<void()> fn) {
  std::shared_ptr<std::promise<void>> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    if (!commands_closed_) {
      done = std::make_shared<std::promise<void>>();
      commands_.push_back([fn = std::move(fn), done]() mutable {
        fn();
        done->set_value();
      });
    }
  }
  if (!done) {
    // The loop thread has exited (or is exiting): nothing races with the
    // connection state any more, so the command can run right here.
    fn();
    return false;
  }
  wake();
  done->get_future().wait();
  return true;
}

void EventLoopServer::run_commands() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(commands_);
  }
  for (auto& fn : batch) fn();
}

void EventLoopServer::pause_accept() {
  run_on_loop([this] {
    accept_paused_ = true;
    accept_paused_flag_.store(true, std::memory_order_release);
    arm_listener(false);
  });
}

void EventLoopServer::resume_accept() {
  run_on_loop([this] {
    accept_paused_ = false;
    accept_paused_flag_.store(false, std::memory_order_release);
    // Resuming means "back to normal service" (the takeover rollback path):
    // future connections are no longer born into a wind-down. Connections
    // already draining finish flushing and close as promised.
    drain_mode_ = false;
    if (open_count_ < config_.max_connections) {
      arm_listener(true);
      // Connections that queued in the kernel backlog while paused never
      // re-trigger the level-triggered listener event; pull them in now.
      handle_accept();
    }
  });
}

bool EventLoopServer::accept_paused() const {
  return accept_paused_flag_.load(std::memory_order_acquire);
}

void EventLoopServer::set_max_buffered_bytes(std::size_t bytes) {
  run_on_loop([this, bytes] {
    max_buffered_bytes_ = bytes;
    apply_buffer_pressure();
  });
}

void EventLoopServer::update_buffer_accounting(std::size_t index) {
  Connection& c = conns_[index];
  const std::size_t share = c.open ? c.reader.buffered() + c.out_bytes : 0;
  buffered_total_ = buffered_total_ - c.accounted_bytes + share;
  c.accounted_bytes = share;
  apply_buffer_pressure();
}

void EventLoopServer::apply_buffer_pressure() {
  buffered_mirror_.store(buffered_total_, std::memory_order_relaxed);
  if (buffered_total_ > max_buffered_seen_.load(std::memory_order_relaxed)) {
    max_buffered_seen_.store(buffered_total_, std::memory_order_relaxed);
  }
  if (max_buffered_bytes_ == 0) {
    if (!buffer_pressure_) return;
  } else if (!buffer_pressure_) {
    if (buffered_total_ <= max_buffered_bytes_) return;
    // Over the cap: stop accepting and stop reading. Connections are paused
    // lazily (handle_readable parks whoever becomes readable next); accept
    // stops right here.
    buffer_pressure_ = true;
    if (listener_armed_) {
      arm_listener(false);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.buffer_accept_pauses;
    }
    return;
  }
  // Under pressure: release it only below the low watermark (7/8), so the
  // boundary does not flap per event.
  if (max_buffered_bytes_ > 0 &&
      buffered_total_ > max_buffered_bytes_ - max_buffered_bytes_ / 8) {
    return;
  }
  buffer_pressure_ = false;
  for (const std::size_t idx : buffer_paused_) {
    Connection& c = conns_[idx];
    if (!c.open || !c.buffer_paused) continue;
    c.buffer_paused = false;
    update_epoll(idx);  // level-triggered epoll re-reports pending bytes
  }
  buffer_paused_.clear();
  if (!listener_armed_ && !accept_paused_ &&
      open_count_ < config_.max_connections &&
      !stopping_.load(std::memory_order_relaxed)) {
    arm_listener(true);
  }
}

void EventLoopServer::begin_drain() {
  run_on_loop([this] {
    // No early-out on an already-set flag: a second drain (e.g. a retried
    // takeover after a rollback) must sweep connections accepted since.
    drain_mode_ = true;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Connection& c = conns_[i];
      if (!c.open || c.draining) continue;
      if (c.in_flight == 0 && c.out.empty()) {
        close_connection(i, /*timed_out=*/false);
      } else {
        c.draining = true;
        update_epoll(i);
      }
    }
  });
}

void EventLoopServer::close_all_connections() {
  run_on_loop([this] {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].open) close_connection(i, /*timed_out=*/false);
    }
  });
}

void EventLoopServer::wait_workers_idle() {
  if (pool_) pool_->wait_idle();
}

void EventLoopServer::retire_listener() {
  run_on_loop([this] {
    arm_listener(false);
    const int fd = listener_.release();
    if (fd >= 0) ::close(fd);
  });
}

void EventLoopServer::arm_listener(bool armed) {
  if (armed == listener_armed_) return;
  const int lfd = listener_.native_handle();
  if (lfd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  const int op = armed ? EPOLL_CTL_ADD : EPOLL_CTL_DEL;
  if (::epoll_ctl(epoll_fd_.get(), op, lfd, &ev) != 0) {
    throw SystemError(std::string("epoll_ctl listener: ") + std::strerror(errno));
  }
  listener_armed_ = armed;
}

void EventLoopServer::update_epoll(std::size_t index) {
  Connection& c = conns_[index];
  epoll_event ev{};
  // A draining peer already signalled EOF; keeping EPOLLRDHUP armed would
  // re-report it (level-triggered) every wait and spin the loop.
  ev.events = c.draining ? (c.want_write ? EPOLLOUT : 0u)
                         : (((c.paused_read || c.buffer_paused) ? 0u : EPOLLIN) |
                            (c.want_write ? EPOLLOUT : 0u) | EPOLLRDHUP);
  ev.data.u64 = index;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev) != 0) {
    log_warn("event_loop", std::string("epoll_ctl mod: ") + std::strerror(errno));
  }
}

// --- timer wheel -----------------------------------------------------------

void EventLoopServer::wheel_link(std::size_t index) {
  Connection& c = conns_[index];
  const std::size_t bucket =
      static_cast<std::size_t>(c.idle_deadline_tick % wheel_.size());
  c.timer_bucket = bucket;
  c.timer_prev = npos;
  c.timer_next = wheel_[bucket];
  if (c.timer_next != npos) conns_[c.timer_next].timer_prev = index;
  wheel_[bucket] = index;
}

void EventLoopServer::wheel_unlink(std::size_t index) {
  Connection& c = conns_[index];
  if (c.timer_bucket == npos) return;
  if (c.timer_prev != npos) {
    conns_[c.timer_prev].timer_next = c.timer_next;
  } else {
    wheel_[c.timer_bucket] = c.timer_next;
  }
  if (c.timer_next != npos) conns_[c.timer_next].timer_prev = c.timer_prev;
  c.timer_bucket = c.timer_prev = c.timer_next = npos;
}

void EventLoopServer::touch_idle_deadline(std::size_t index) {
  if (idle_ticks_ == 0) return;
  wheel_unlink(index);
  conns_[index].idle_deadline_tick = monotonic_ms() / kTickMs + idle_ticks_;
  wheel_link(index);
}

void EventLoopServer::expire_idle(std::uint64_t now_tick) {
  if (idle_ticks_ == 0 || now_tick <= wheel_tick_) return;
  // Never walk more buckets than the wheel has: a stall longer than a full
  // rotation means one sweep of every bucket visits every connection anyway.
  std::uint64_t from = wheel_tick_ + 1;
  if (now_tick - from >= wheel_.size()) from = now_tick + 1 - wheel_.size();
  for (std::uint64_t t = from; t <= now_tick; ++t) {
    const std::size_t bucket = static_cast<std::size_t>(t % wheel_.size());
    std::size_t i = wheel_[bucket];
    while (i != npos) {
      // Capture the link first: closing unlinks the node. The deadline test
      // only matters after a stall, when a bucket can hold entries whose
      // tick has not come round yet.
      const std::size_t next = conns_[i].timer_next;
      if (conns_[i].idle_deadline_tick <= now_tick) {
        close_connection(i, /*timed_out=*/true);
      }
      i = next;
    }
  }
  wheel_tick_ = now_tick;
}

// --- connection lifecycle --------------------------------------------------

void EventLoopServer::handle_accept() {
  // A pause command in this same epoll batch wins over a listener event that
  // was already reported: newcomers stay in the kernel backlog.
  if (accept_paused_ || buffer_pressure_) return;
  while (open_count_ < config_.max_connections) {
    UniqueFd client = listener_.try_accept();
    if (!client) return;
    set_fd_nonblocking(client.get());

    std::size_t index;
    if (!free_slots_.empty()) {
      index = free_slots_.back();
      free_slots_.pop_back();
    } else {
      index = conns_.size();
      conns_.emplace_back();
    }
    Connection& c = conns_[index];
    c.reader = FrameReader();
    c.out.clear();
    c.out_offset = 0;
    c.out_bytes = 0;
    c.flush_queued = false;
    c.accounted_bytes = 0;
    c.in_flight = 0;
    c.want_write = false;
    c.paused_read = false;
    c.buffer_paused = false;
    c.draining = false;
    c.open = true;
    c.fd = std::move(client);

    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = index;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, c.fd.get(), &ev) != 0) {
      log_warn("event_loop", std::string("epoll_ctl add: ") + std::strerror(errno));
      c.fd.reset();
      c.open = false;
      ++c.generation;
      free_slots_.push_back(index);
      continue;
    }
    ++open_count_;
    touch_idle_deadline(index);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accepted;
      stats_.open_connections = open_count_;
      if (open_count_ > stats_.max_open_connections) {
        stats_.max_open_connections = open_count_;
      }
    }
  }
  // At capacity: stop watching the listener so the kernel queues (and
  // eventually refuses) newcomers instead of the loop spinning on them.
  if (listener_armed_) {
    arm_listener(false);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accept_pauses;
  }
}

void EventLoopServer::close_connection(std::size_t index, bool timed_out) {
  Connection& c = conns_[index];
  if (!c.open) return;
  wheel_unlink(index);
  // Closing the fd removes it from the epoll set implicitly.
  c.fd.reset();
  c.open = false;
  ++c.generation;  // strands every outstanding Responder for this slot
  c.out.clear();
  c.out_offset = 0;
  c.out_bytes = 0;
  c.flush_queued = false;  // a stale dirty_conns_ entry finds it reset
  c.buffer_paused = false;
  c.reader = FrameReader();
  buffered_total_ -= c.accounted_bytes;
  c.accounted_bytes = 0;
  free_slots_.push_back(index);
  --open_count_;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.closed;
    if (timed_out) ++stats_.idle_timeouts;
    stats_.open_connections = open_count_;
  }
  if (open_count_ == 0) drained_cv_.notify_all();
  apply_buffer_pressure();  // a closed firehose may release the memory cap
  if (!listener_armed_ && !accept_paused_ && !buffer_pressure_ &&
      open_count_ < config_.max_connections &&
      !stopping_.load(std::memory_order_relaxed)) {
    arm_listener(true);
  }
}

void EventLoopServer::dispatch_frames(std::size_t index) {
  Connection& c = conns_[index];
  // A draining connection completes what was dispatched but takes no new
  // work: frames still sitting in the reassembly buffer are discarded when
  // the connection closes.
  if (c.draining) return;
  std::string payload;
  bool touched = false;
  try {
    while (c.in_flight < config_.max_pipeline && c.reader.next(payload)) {
      ++c.in_flight;
      inflight_.fetch_add(1, std::memory_order_relaxed);
      touched = true;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.frames;
      }
      pool_->submit([this, handler = &handler_, payload = std::move(payload),
                     responder = Responder(this, index, c.generation,
                                           monotonic_ms())]() mutable {
        (*handler)(std::move(payload), responder);
      });
      payload.clear();
    }
  } catch (const std::exception& e) {
    log_warn("event_loop", "protocol error, closing connection: " + std::string(e.what()));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
    }
    close_connection(index, /*timed_out=*/false);
    return;
  }
  // Only a *complete* frame refreshes the idle deadline: a slow-loris peer
  // dribbling single bytes keeps its original deadline and is reaped on
  // schedule no matter how often it makes the socket readable.
  if (touched) touch_idle_deadline(index);
  const bool full = c.in_flight >= config_.max_pipeline;
  if (full != c.paused_read) {
    c.paused_read = full;
    update_epoll(index);
  }
}

void EventLoopServer::handle_readable(std::size_t index) {
  Connection& c = conns_[index];
  if (c.draining) return;  // input is dead once the connection winds down
  if (buffer_pressure_ && !c.buffer_paused) {
    // Over the global memory cap: park this connection instead of reading.
    // Frames already reassembled still dispatch; the kernel socket buffer
    // holds the rest until responses drain the cap below its watermark.
    c.buffer_paused = true;
    buffer_paused_.push_back(index);
    update_epoll(index);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.buffer_read_pauses;
    }
    dispatch_frames(index);
    return;
  }
  char buf[65536];
  // Bound the bytes taken per event so one firehose connection cannot
  // starve the rest of the loop.
  for (int rounds = 0; rounds < 4; ++rounds) {
    const ssize_t n = ::read(c.fd.get(), buf, sizeof(buf));
    if (n > 0) {
      c.reader.feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      // Peer half-closed. Anything already reassembled still gets served
      // (the client may be waiting on the response with its write side
      // shut); close once the pipeline drains.
      dispatch_frames(index);
      if (!c.open) return;
      if (c.in_flight == 0 && c.out.empty()) {
        close_connection(index, /*timed_out=*/false);
      } else if (!c.draining) {
        c.draining = true;
        update_epoll(index);
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(index, /*timed_out=*/false);
    return;
  }
  dispatch_frames(index);
}

void EventLoopServer::queue_write(std::size_t index, std::string payload) {
  Connection& c = conns_[index];
  Connection::OutMsg msg;
  TcpChannel::frame_header_into(msg.header, payload.size());  // SSO, no alloc
  msg.payload = std::move(payload);
  c.out_bytes += msg.size();
  c.out.push_back(std::move(msg));
  if (!c.flush_queued) {
    c.flush_queued = true;
    dirty_conns_.push_back(index);
  }
}

void EventLoopServer::flush_writes(std::size_t index) {
  Connection& c = conns_[index];
  // Gather as many queued responses as fit into one vectored send: header
  // and payload of each message are separate iovecs, so a burst of
  // pipelined acks leaves in a single syscall with zero concatenation.
  while (!c.out.empty()) {
    static constexpr int kMaxIov = 64;
    iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t skip = c.out_offset;  // progress into the front message
    for (const Connection::OutMsg& m : c.out) {
      if (iovcnt + 2 > kMaxIov) break;
      if (skip < m.header.size()) {
        iov[iovcnt].iov_base = const_cast<char*>(m.header.data()) + skip;
        iov[iovcnt].iov_len = m.header.size() - skip;
        ++iovcnt;
        skip = 0;
      } else {
        skip -= m.header.size();
      }
      if (skip < m.payload.size()) {
        iov[iovcnt].iov_base = const_cast<char*>(m.payload.data()) + skip;
        iov[iovcnt].iov_len = m.payload.size() - skip;
        ++iovcnt;
      }
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(c.fd.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_bytes -= static_cast<std::size_t>(n);
      c.out_offset += static_cast<std::size_t>(n);
      while (!c.out.empty() && c.out_offset >= c.out.front().size()) {
        c.out_offset -= c.out.front().size();
        c.out.pop_front();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_connection(index, /*timed_out=*/false);
    return;
  }
  const bool want = !c.out.empty();
  if (want != c.want_write) {
    c.want_write = want;
    update_epoll(index);
  }
  if (c.draining && c.out.empty() && c.in_flight == 0) {
    close_connection(index, /*timed_out=*/false);
  }
}

void EventLoopServer::handle_writable(std::size_t index) { flush_writes(index); }

void EventLoopServer::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (auto& done : batch) {
    // Every completion — sent, dismissed, or stranded by a closed slot —
    // releases one global in-flight credit (incremented at dispatch).
    const std::size_t inflight = inflight_.load(std::memory_order_relaxed);
    if (inflight > 0) inflight_.store(inflight - 1, std::memory_order_relaxed);
    if (done.index >= conns_.size()) continue;
    Connection& c = conns_[done.index];
    if (!c.open || c.generation != done.generation) continue;  // slot recycled
    if (c.in_flight > 0) --c.in_flight;
    if (!done.payload) {
      // A dismiss(): the request slot is free again but nothing is written —
      // the shed client's read timeout is its backpressure signal.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.dismissed;
    } else {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.responses;
      }
      // The payload string moves into the output queue unchanged (the frame
      // header rides alongside it); the socket write happens below, once
      // per connection, after the whole completion batch is enqueued.
      queue_write(done.index, std::move(*done.payload));
    }
    if (!c.draining && c.paused_read && c.in_flight < config_.max_pipeline) {
      c.paused_read = false;
      update_epoll(done.index);
      // Frames that arrived while the pipeline was full are still buffered.
      dispatch_frames(done.index);
    }
    if (c.open) update_buffer_accounting(done.index);
  }
  // One flush per dirty connection per wakeup: a pipelined burst of acks
  // coalesces into a single sendmsg instead of one send() per response.
  for (const std::size_t idx : dirty_conns_) {
    Connection& c = conns_[idx];
    if (!c.open || !c.flush_queued) continue;  // closed since queueing
    c.flush_queued = false;
    flush_writes(idx);
    if (conns_[idx].open) update_buffer_accounting(idx);
  }
  dirty_conns_.clear();
}

void EventLoopServer::loop() {
  std::vector<epoll_event> events(256);
  while (!stopping_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    if (idle_ticks_ > 0) {
      const std::uint64_t now = monotonic_ms();
      const std::uint64_t next_tick_at = (now / kTickMs + 1) * kTickMs;
      timeout_ms = static_cast<int>(next_tick_at - now) + 1;
    }
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      log_warn("event_loop", std::string("epoll_wait: ") + std::strerror(errno));
      break;
    }
    // Commands (pause/drain/retire) run before the batch's events so e.g. a
    // pause beats a listener event reported in the same epoll_wait.
    run_commands();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        std::uint64_t drained;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (tag == kListenerTag) {
        handle_accept();
        continue;
      }
      const auto index = static_cast<std::size_t>(tag);
      if (index >= conns_.size() || !conns_[index].open) continue;
      const std::uint32_t ev = events[i].events;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        close_connection(index, /*timed_out=*/false);
        continue;
      }
      if (ev & EPOLLOUT) handle_writable(index);
      if (!conns_[index].open) continue;
      if (ev & (EPOLLIN | EPOLLRDHUP)) handle_readable(index);
      if (index < conns_.size() && conns_[index].open) {
        update_buffer_accounting(index);
      }
    }
    drain_completions();
    if (idle_ticks_ > 0) expire_idle(monotonic_ms() / kTickMs);
    if (n == static_cast<int>(events.size()) && events.size() < 4096) {
      events.resize(events.size() * 2);
    }
  }
  // Shutdown: tear every connection down on the loop thread, where all the
  // state lives.
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].open) close_connection(i, /*timed_out=*/false);
  }
  arm_listener(false);
  // Close the command queue and run any stragglers, so a run_on_loop caller
  // blocked on its promise always completes (late callers execute inline).
  std::vector<std::function<void()>> leftovers;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    commands_closed_ = true;
    leftovers.swap(commands_);
  }
  for (auto& fn : leftovers) fn();
}

EventLoopStats EventLoopServer::stats() const {
  EventLoopStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  // Loop-thread counters, mirrored through relaxed atomics.
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.buffered_bytes = buffered_mirror_.load(std::memory_order_relaxed);
  s.max_buffered_bytes_seen = max_buffered_seen_.load(std::memory_order_relaxed);
  return s;
}

bool EventLoopServer::wait_connections_drained(double timeout_s) const {
  std::unique_lock<std::mutex> lock(stats_mu_);
  const auto drained = [this] { return stats_.open_connections == 0; };
  if (timeout_s <= 0.0) {
    drained_cv_.wait(lock, drained);
    return true;
  }
  return drained_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s), drained);
}

}  // namespace uucs
