#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "server/protocol.hpp"

namespace uucs {

/// RAII guard for a raw file descriptor: closes on destruction, moves but
/// never copies. Wraps every fd the moment the kernel hands it over —
/// accept(2)/socket(2) results used to travel as naked ints, so an
/// exception between the syscall and the owning object leaked the socket.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  explicit operator bool() const { return valid(); }

  /// Releases ownership without closing; returns the fd.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the held fd (if any) and optionally adopts a new one.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Deadlines (seconds) for the blocking TCP operations. Zero means "block
/// forever" — the pre-fault-tolerance behavior, still the default so local
/// and test transports pay nothing for the feature.
struct ChannelDeadlines {
  double connect_s = 0.0;  ///< TcpChannel::connect
  double read_s = 0.0;     ///< whole-message receive
  double write_s = 0.0;    ///< whole-message send
};

/// MessageChannel over a connected TCP socket, with "UUCS <len>\n<payload>"
/// framing. Blocking (optionally up to a deadline); one instance per
/// connection, single reader + single writer thread at a time.
class TcpChannel final : public MessageChannel {
 public:
  /// Takes ownership of a connected socket fd.
  explicit TcpChannel(int fd, ChannelDeadlines deadlines = {});
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Connects to host:port (IPv4, e.g. "127.0.0.1"); throws SystemError on
  /// failure and TimeoutError when `deadlines.connect_s` expires first.
  static std::unique_ptr<TcpChannel> connect(const std::string& host, std::uint16_t port,
                                             ChannelDeadlines deadlines = {});

  void set_deadlines(ChannelDeadlines deadlines) { deadlines_ = deadlines; }
  const ChannelDeadlines& deadlines() const { return deadlines_; }

  /// Throws TimeoutError if the peer does not drain us within write_s.
  void write(const std::string& message) override;

  /// Throws TimeoutError if a whole message does not arrive within read_s —
  /// a hung or stalled peer can no longer block the caller forever.
  std::optional<std::string> read() override;

  void close() override;

  /// Half-closes both directions without releasing the fd: a thread blocked
  /// in read()/write() on this channel unblocks with EOF / a peer-closed
  /// error. Unlike close(), this is safe to call from another thread while
  /// the channel is in use (the fd stays valid until close()).
  void shutdown_rw();

  /// The framed wire bytes write() would send for `payload`. Exposed so
  /// fault injection and tests can craft truncated or corrupt frames.
  static std::string frame(std::string_view payload);

  /// Appends just the frame header ("UUCS <len>\n") for a payload of
  /// `payload_size` bytes to `out`. The event loop writes header and payload
  /// as separate iovecs, so the payload is never copied into a framed
  /// string.
  static void frame_header_into(std::string& out, std::size_t payload_size);

  /// Longest accepted payload.
  static constexpr std::size_t kMaxFrameBytes = 64u << 20;

  /// The one frame-header grammar, shared by read() and the event loop's
  /// FrameReader: `avail` bytes at `data` start a frame. Returns the header
  /// length (newline included) and sets `len` once the header is complete,
  /// 0 while more bytes are needed. Throws ProtocolError as soon as a byte
  /// contradicts "UUCS <digits>\n", the header outgrows its longest legal
  /// form, or `len` exceeds kMaxFrameBytes. Never allocates on success.
  static std::size_t parse_frame_header(const char* data, std::size_t avail,
                                        std::size_t& len);

  /// Sends raw bytes with no framing (fault injection / tests only).
  void write_bytes(const std::string& bytes);

  /// Passes `fd` over a unix-domain socket (SCM_RIGHTS) on a one-byte
  /// carrier message, within write_s.
  void send_fd(int fd);

  /// Receives the fd carried by the next byte, within read_s. Throws
  /// ProtocolError on EOF or when that byte carries no fd. read() takes
  /// exactly one frame's bytes, so a carrier queued behind a frame is never
  /// swallowed (which would make the kernel drop its fd).
  UniqueFd recv_fd();

 private:
  int fd_;
  ChannelDeadlines deadlines_;
};

/// Listening TCP socket bound to 127.0.0.1. Port 0 picks a free port; the
/// chosen port is available via port(). `backlog` sizes the kernel accept
/// queue — the event-loop server points thousands of clients at one
/// listener, so connect storms need more room than the old fixed 16.
class TcpListener {
 public:
  /// Tag type for the adopting constructor below, so an adopted fd cannot be
  /// confused with a port number at a call site.
  struct AdoptFd {
    int fd;
  };

  explicit TcpListener(std::uint16_t port = 0, int backlog = 256);

  /// Adopts an externally created listening socket (e.g. one received over
  /// SCM_RIGHTS during a live takeover). The socket must already be bound
  /// and listening; the bound port is recovered via getsockname.
  explicit TcpListener(AdoptFd adopted);

  ~TcpListener();

  /// Movable so factories can choose between binding and adopting; moving a
  /// listener another thread is using is undefined.
  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)),
        port_(other.port_),
        shutting_down_(other.shutting_down_.load(std::memory_order_acquire)) {}

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// The listening socket's fd, for event loops that poll it directly.
  /// -1 after shutdown().
  int native_handle() const { return fd_.load(std::memory_order_acquire); }

  /// Switches the listening socket between blocking accept() (the default)
  /// and the non-blocking mode try_accept() requires.
  void set_nonblocking(bool nonblocking);

  /// Blocks until a client connects; returns nullptr only after an
  /// intentional shutdown(). A real accept(2) failure throws SystemError
  /// instead of being silently conflated with shutdown.
  std::unique_ptr<TcpChannel> accept();

  /// Non-blocking accept for event loops: an invalid UniqueFd when no
  /// connection is pending (or after shutdown), the connected socket —
  /// TCP_NODELAY set, already owned by the guard — otherwise. The listener
  /// must be in non-blocking mode.
  UniqueFd try_accept();

  /// Unblocks accept() and closes the listening socket. Safe to call from
  /// any thread (e.g. a signal-driven shutdown path) and idempotent.
  void shutdown();

  /// Releases ownership of the listening fd without shutdown(2)-ing it and
  /// returns it (-1 if already closed). Unlike shutdown(), this never
  /// disturbs the shared socket object, so a duplicate of the fd handed to
  /// another process (SCM_RIGHTS) keeps accepting and keeps its backlog.
  int release();

 private:
  std::atomic<int> fd_{-1};  ///< atomic: shutdown() races with accept()
  std::uint16_t port_ = 0;
  std::atomic<bool> shutting_down_{false};
};

}  // namespace uucs
