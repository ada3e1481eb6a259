#include "server/takeover.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <vector>

#include "util/error.hpp"
#include "util/kvtext.hpp"
#include "util/logging.hpp"

namespace uucs {

namespace {

/// Control-protocol version. Bumped only when the handoff message sequence
/// itself changes; the *wire* protocol clients speak negotiates separately.
constexpr std::int64_t kTakeoverVersion = 1;

/// Reads one control record within `timeout_s`. A clean EOF is a protocol
/// failure: the peer must never just hang up mid-handoff.
std::vector<KvRecord> read_record(TcpChannel& ch, double timeout_s,
                                  const char* what) {
  ch.set_deadlines({0.0, timeout_s, ch.deadlines().write_s});
  const std::optional<std::string> payload = ch.read();
  if (!payload) {
    throw ProtocolError(std::string(what) + ": peer closed the control socket");
  }
  return kv_parse(*payload);
}

void write_record(TcpChannel& ch, const KvRecord& rec, double timeout_s) {
  ch.set_deadlines({0.0, ch.deadlines().read_s, timeout_s});
  ch.write(kv_serialize({rec}));
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw ConfigError("control socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

UniqueFd unix_listen(const std::string& path) {
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) throw SystemError(std::string("socket(AF_UNIX): ") + std::strerror(errno));
  const sockaddr_un addr = make_unix_addr(path);
  // A stale socket file from a crashed predecessor would make bind fail
  // forever; the path is per-instance by convention, so unlinking is safe.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw SystemError("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(fd.get(), 4) != 0) {
    throw SystemError("listen " + path + ": " + std::strerror(errno));
  }
  return fd;
}

UniqueFd unix_connect(const std::string& path) {
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) throw SystemError(std::string("socket(AF_UNIX): ") + std::strerror(errno));
  const sockaddr_un addr = make_unix_addr(path);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw SystemError("connect " + path + ": " + std::strerror(errno));
  }
  return fd;
}

KvRecord abort_record(const std::string& reason) {
  KvRecord rec("takeover-abort");
  rec.set("reason", reason);
  return rec;
}

}  // namespace

const char* to_string(TakeoverStage stage) {
  switch (stage) {
    case TakeoverStage::kHello: return "hello";
    case TakeoverStage::kPause: return "pause";
    case TakeoverStage::kDrain: return "drain";
    case TakeoverStage::kFlush: return "flush";
    case TakeoverStage::kSnapshot: return "snapshot";
    case TakeoverStage::kSendFd: return "send-fd";
    case TakeoverStage::kSendState: return "send-state";
    case TakeoverStage::kWaitReady: return "wait-ready";
    case TakeoverStage::kRetire: return "retire";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TakeoverController (old process)

TakeoverController::TakeoverController(IngestServer& ingest, UucsServer& server,
                                       Config config)
    : ingest_(ingest), server_(server), config_(std::move(config)) {
  if (config_.socket_path.empty()) {
    throw ConfigError("takeover controller needs a control socket path");
  }
  if (config_.state_dir.empty()) {
    throw ConfigError("takeover controller needs a state dir to hand over");
  }
  listen_fd_ = unix_listen(config_.socket_path);
  thread_ = std::thread([this] { accept_loop(); });
}

TakeoverController::~TakeoverController() { stop(); }

void TakeoverController::stop() {
  if (stopping_.exchange(true)) return;
  // Shutdown unblocks an accept_loop parked in poll at the next timeout; a
  // shutdown(2) on a listening unix socket also wakes it immediately.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  listen_fd_.reset();
  // After a handoff the successor may already have re-bound this path for
  // the *next* upgrade; unlinking would tear its control socket down.
  if (!handed_off_.load(std::memory_order_acquire)) {
    ::unlink(config_.socket_path.c_str());
  }
}

bool TakeoverController::enter_stage(TakeoverStage s) {
  stage_.store(static_cast<int>(s), std::memory_order_release);
  if (config_.stage_hook && !config_.stage_hook(s)) {
    killed_.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

void TakeoverController::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd p{};
    p.fd = listen_fd_.get();
    p.events = POLLIN;
    const int r = ::poll(&p, 1, 200);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    UniqueFd conn(::accept4(listen_fd_.get(), nullptr, nullptr, SOCK_CLOEXEC));
    if (!conn) continue;
    bool done = false;
    {
      TcpChannel channel(conn.release());
      done = handle_connection(channel);
    }
    // A completed handoff or a simulated kill ends this process's tenure;
    // the control socket has nothing left to offer.
    if (done || killed_.load(std::memory_order_acquire)) break;
  }
}

bool TakeoverController::handle_connection(TcpChannel& ch) {
  bool paused = false;
  try {
    if (!enter_stage(TakeoverStage::kHello)) return false;
    const auto hello = read_record(ch, config_.io_timeout_s, "takeover hello");
    if (hello.empty() || hello.front().type() != "takeover-hello") {
      throw ProtocolError("expected takeover-hello");
    }
    const std::int64_t version = hello.front().get_int_or("version", -1);
    if (version != kTakeoverVersion) {
      write_record(ch,
                   abort_record("unsupported takeover version " +
                                std::to_string(version)),
                   config_.io_timeout_s);
      return false;
    }
    KvRecord accept_rec("takeover-accept");
    accept_rec.set_int("version", kTakeoverVersion);
    accept_rec.set_int("port", ingest_.port());
    write_record(ch, accept_rec, config_.io_timeout_s);

    if (!enter_stage(TakeoverStage::kPause)) return false;
    ingest_.pause();
    paused = true;

    if (!enter_stage(TakeoverStage::kDrain)) return false;
    ingest_.drain(config_.drain_timeout_s);

    if (!enter_stage(TakeoverStage::kFlush)) return false;
    ingest_.flush_commits();

    if (!enter_stage(TakeoverStage::kSnapshot)) return false;
    ingest_.snapshot_now();

    if (!enter_stage(TakeoverStage::kSendFd)) return false;
    const int lfd = ingest_.loop().listener_fd();
    UUCS_CHECK_MSG(lfd >= 0, "listener already retired");
    ch.set_deadlines({0.0, 0.0, config_.io_timeout_s});
    ch.send_fd(lfd);

    if (!enter_stage(TakeoverStage::kSendState)) return false;
    const std::uint64_t clients = server_.client_count();
    const std::uint64_t results = server_.results().size();
    KvRecord state("takeover-state");
    state.set_int("version", kTakeoverVersion);
    state.set("state_dir", config_.state_dir);
    state.set("journal", config_.journal_path);
    state.set_int("clients", static_cast<std::int64_t>(clients));
    state.set_int("results", static_cast<std::int64_t>(results));
    state.set_int("generation",
                  static_cast<std::int64_t>(server_.generation() + 1));
    state.set_int("port", ingest_.port());
    write_record(ch, state, config_.io_timeout_s);

    if (!enter_stage(TakeoverStage::kWaitReady)) return false;
    const auto ready = read_record(ch, config_.ready_timeout_s, "takeover ready");
    if (ready.empty() || ready.front().type() != "takeover-ready") {
      throw ProtocolError("expected takeover-ready");
    }
    const std::int64_t got_clients = ready.front().get_int_or("clients", -1);
    const std::int64_t got_results = ready.front().get_int_or("results", -1);
    if (got_clients != static_cast<std::int64_t>(clients) ||
        got_results != static_cast<std::int64_t>(results)) {
      throw ProtocolError(
          "successor replayed " + std::to_string(got_clients) + " clients / " +
          std::to_string(got_results) + " results, expected " +
          std::to_string(clients) + " / " + std::to_string(results));
    }

    if (!enter_stage(TakeoverStage::kRetire)) return false;
    ingest_.loop().retire_listener();
    handed_off_.store(true, std::memory_order_release);
    // Courtesy only: the successor also serves on EOF, so a crash right
    // here leaves exactly one accepting process either way.
    try {
      write_record(ch, KvRecord("takeover-go"), config_.io_timeout_s);
    } catch (const std::exception&) {
    }
    log_info("takeover", "handed off to successor (clients=" +
                             std::to_string(clients) +
                             ", results=" + std::to_string(results) + ")");
    if (config_.on_handed_off) config_.on_handed_off();
    return true;
  } catch (const std::exception& e) {
    log_warn("takeover", std::string("handoff failed at ") + to_string(stage()) +
                             ", rolling back: " + e.what());
    try {
      write_record(ch, abort_record(e.what()), 1.0);
    } catch (const std::exception&) {
    }
    rollbacks_.fetch_add(1, std::memory_order_relaxed);
    if (paused) ingest_.resume();
    return false;
  }
}

// ---------------------------------------------------------------------------
// TakeoverClient (new process)

TakeoverClient::TakeoverClient(const std::string& socket_path, double io_timeout_s)
    : channel_(unix_connect(socket_path).release()), io_timeout_s_(io_timeout_s) {}

TakeoverClient::Inherited TakeoverClient::begin() {
  KvRecord hello("takeover-hello");
  hello.set_int("version", kTakeoverVersion);
  write_record(channel_, hello, io_timeout_s_);

  const auto accept_rec = read_record(channel_, io_timeout_s_, "takeover accept");
  if (accept_rec.empty()) throw ProtocolError("empty takeover accept");
  if (accept_rec.front().type() == "takeover-abort") {
    throw Error("predecessor aborted the takeover: " +
                accept_rec.front().get_or("reason", "?"));
  }
  if (accept_rec.front().type() != "takeover-accept") {
    throw ProtocolError("expected takeover-accept, got [" +
                        accept_rec.front().type() + "]");
  }

  Inherited out;
  // The predecessor quiesces, snapshots, then passes the fd: budget the
  // whole drain + snapshot, not one message's io timeout.
  channel_.set_deadlines({0.0, io_timeout_s_ + 60.0, io_timeout_s_});
  out.listener = channel_.recv_fd();

  const auto state = read_record(channel_, io_timeout_s_, "takeover state");
  if (state.empty()) throw ProtocolError("empty takeover state");
  if (state.front().type() == "takeover-abort") {
    throw Error("predecessor aborted the takeover: " +
                state.front().get_or("reason", "?"));
  }
  if (state.front().type() != "takeover-state") {
    throw ProtocolError("expected takeover-state, got [" +
                        state.front().type() + "]");
  }
  const KvRecord& rec = state.front();
  out.state_dir = rec.get("state_dir");
  out.journal_path = rec.get_or("journal", "");
  out.generation = static_cast<std::uint64_t>(rec.get_int_or("generation", 1));
  out.expect_clients = static_cast<std::uint64_t>(rec.get_int_or("clients", 0));
  out.expect_results = static_cast<std::uint64_t>(rec.get_int_or("results", 0));
  out.port = static_cast<std::uint16_t>(rec.get_int_or("port", 0));
  return out;
}

TakeoverClient::Go TakeoverClient::confirm_ready(std::uint64_t clients,
                                                 std::uint64_t results,
                                                 double go_timeout_s) {
  KvRecord ready("takeover-ready");
  ready.set_int("clients", static_cast<std::int64_t>(clients));
  ready.set_int("results", static_cast<std::int64_t>(results));
  bool write_failed = false;
  try {
    write_record(channel_, ready, io_timeout_s_);
  } catch (const std::exception&) {
    // EPIPE: the predecessor is gone (crash) or rolled back and closed. A
    // rollback sent an abort first, which is still buffered for us to read.
    write_failed = true;
  }
  try {
    const auto resp = read_record(
        channel_, write_failed ? io_timeout_s_ : go_timeout_s, "takeover go");
    if (!resp.empty() && resp.front().type() == "takeover-abort") {
      return Go::kAbort;
    }
    return Go::kServe;
  } catch (const std::exception&) {
    // EOF without an abort, or a wedged predecessor: either way nobody else
    // is accepting (a wedged predecessor paused before it snapshotted our
    // state), so serving is the safe choice.
    return Go::kServe;
  }
}

}  // namespace uucs
