#include "server/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/error.hpp"

namespace uucs {

namespace {

/// "UUCS " + the digits of any length up to kMaxFrameBytes + "\n" fits.
constexpr std::size_t kMaxHeaderBytes = 32;

using SteadyClock = std::chrono::steady_clock;

/// Absolute deadline for a whole-message operation; nullopt blocks forever.
std::optional<SteadyClock::time_point> deadline_in(double seconds) {
  if (seconds <= 0) return std::nullopt;
  return SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                                  std::chrono::duration<double>(seconds));
}

/// Waits until `fd` is ready for `events`; throws TimeoutError when the
/// deadline passes first.
void wait_ready(int fd, short events, const SteadyClock::time_point& deadline,
                const char* what) {
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - SteadyClock::now());
    if (remaining.count() <= 0) {
      throw TimeoutError(std::string(what) + " deadline expired");
    }
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()) + 1);
    if (rc > 0) return;  // ready (or error/hup — let recv/send report it)
    if (rc == 0) throw TimeoutError(std::string(what) + " deadline expired");
    if (errno == EINTR) continue;
    throw SystemError(std::string("poll: ") + std::strerror(errno));
  }
}

void write_all(int fd, const char* data, std::size_t len,
               const std::optional<SteadyClock::time_point>& deadline) {
  std::size_t off = 0;
  while (off < len) {
    if (deadline) wait_ready(fd, POLLOUT, *deadline, "send");
    const int flags = MSG_NOSIGNAL | (deadline ? MSG_DONTWAIT : 0);
    const ssize_t n = ::send(fd, data + off, len - off, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (deadline && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        // The peer is gone, not the OS: classify as a (retryable) protocol
        // failure so retry layers reconnect instead of giving up.
        throw ProtocolError(std::string("peer closed connection during send (") +
                            std::strerror(errno) + ")");
      }
      throw SystemError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `len` bytes; returns false on clean EOF at a boundary.
bool read_all(int fd, char* data, std::size_t len,
              const std::optional<SteadyClock::time_point>& deadline) {
  std::size_t off = 0;
  while (off < len) {
    if (deadline) wait_ready(fd, POLLIN, *deadline, "recv");
    const int flags = deadline ? MSG_DONTWAIT : 0;
    const ssize_t n = ::recv(fd, data + off, len - off, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (deadline && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (errno == ECONNRESET) {
        throw ProtocolError("peer reset connection during recv");
      }
      throw SystemError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (off == 0) return false;
      throw ProtocolError("connection closed mid-message");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

TcpChannel::TcpChannel(int fd, ChannelDeadlines deadlines)
    : fd_(fd), deadlines_(deadlines) {
  UUCS_CHECK_MSG(fd >= 0, "bad socket fd");
}

TcpChannel::~TcpChannel() { close(); }

std::unique_ptr<TcpChannel> TcpChannel::connect(const std::string& host,
                                                std::uint16_t port,
                                                ChannelDeadlines deadlines) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw SystemError(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw SystemError("bad address " + host);
  }
  const std::string where = host + ":" + std::to_string(port);
  if (deadlines.connect_s > 0) {
    // Non-blocking connect + poll so a black-holed peer cannot hang us for
    // the kernel's multi-minute SYN timeout.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      const int err = errno;
      ::close(fd);
      throw SystemError("connect " + where + ": " + std::strerror(err));
    }
    if (rc != 0) {
      try {
        wait_ready(fd, POLLOUT, *deadline_in(deadlines.connect_s), "connect");
      } catch (...) {
        ::close(fd);
        throw;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        ::close(fd);
        throw SystemError("connect " + where + ": " + std::strerror(err));
      }
    }
    ::fcntl(fd, F_SETFL, flags);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw SystemError("connect " + where + ": " + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpChannel>(fd, deadlines);
}

void TcpChannel::frame_header_into(std::string& out, std::size_t payload_size) {
  char hdr[32];
  const int n = std::snprintf(hdr, sizeof(hdr), "UUCS %zu\n", payload_size);
  out.append(hdr, static_cast<std::size_t>(n));
}

std::string TcpChannel::frame(std::string_view payload) {
  std::string framed;
  framed.reserve(payload.size() + 16);
  frame_header_into(framed, payload.size());
  framed.append(payload);
  return framed;
}

std::size_t TcpChannel::parse_frame_header(const char* data, std::size_t avail,
                                          std::size_t& len) {
  // Wait for the newline before judging the length — except that anything
  // longer than the longest legal header, or any byte that contradicts the
  // grammar, is malformed right now.
  static constexpr char kMagic[] = "UUCS ";
  static constexpr std::size_t kMagicLen = 5;
  if (std::memcmp(data, kMagic, std::min(avail, kMagicLen)) != 0) {
    throw ProtocolError("bad frame magic");
  }
  if (avail < kMagicLen) return 0;
  const char* nl = static_cast<const char*>(std::memchr(
      data + kMagicLen, '\n', std::min(avail, kMaxHeaderBytes) - kMagicLen));
  if (nl == nullptr) {
    if (avail >= kMaxHeaderBytes) throw ProtocolError("frame header too long");
    return 0;
  }
  len = 0;
  const char* p = data + kMagicLen;
  if (p == nl) throw ProtocolError("frame header missing length");
  for (; p != nl; ++p) {
    if (*p < '0' || *p > '9') throw ProtocolError("bad frame length");
    len = len * 10 + static_cast<std::size_t>(*p - '0');
    if (len > kMaxFrameBytes) throw ProtocolError("frame too large");
  }
  return static_cast<std::size_t>(nl - data) + 1;
}

void TcpChannel::write(const std::string& message) {
  UUCS_CHECK_MSG(message.size() <= kMaxFrameBytes, "message too large");
  const std::string framed = frame(message);
  write_all(fd_, framed.data(), framed.size(), deadline_in(deadlines_.write_s));
}

void TcpChannel::write_bytes(const std::string& bytes) {
  write_all(fd_, bytes.data(), bytes.size(), deadline_in(deadlines_.write_s));
}

std::optional<std::string> TcpChannel::read() {
  // One deadline covers the whole message, so a peer trickling bytes cannot
  // stretch a read indefinitely.
  const auto deadline = deadline_in(deadlines_.read_s);
  // The header is read a byte at a time and the payload by its exact
  // length: nothing past this frame leaves the socket, so an SCM_RIGHTS
  // carrier queued behind it stays for recv_fd().
  char header[kMaxHeaderBytes];
  std::size_t have = 0;
  std::size_t len = 0;
  do {
    if (!read_all(fd_, header + have, 1, deadline)) {
      if (have == 0) return std::nullopt;
      throw ProtocolError("connection closed mid-header");
    }
  } while (parse_frame_header(header, ++have, len) == 0);
  std::string payload(len, '\0');
  if (len > 0 && !read_all(fd_, payload.data(), len, deadline)) {
    throw ProtocolError("connection closed mid-payload");
  }
  return payload;
}

namespace {

/// msghdr for the one-byte fd carrier; `ctrl` must outlive the result.
msghdr carrier_msg(char* byte, iovec& iov, char* ctrl, std::size_t ctrl_len) {
  iov.iov_base = byte;
  iov.iov_len = 1;
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = ctrl;
  msg.msg_controllen = ctrl_len;
  return msg;
}

}  // namespace

void TcpChannel::send_fd(int fd) {
  const auto deadline = deadline_in(deadlines_.write_s);
  char byte = 'F';  // SCM_RIGHTS needs at least one data byte
  iovec iov{};
  alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg = carrier_msg(&byte, iov, ctrl, sizeof(ctrl));
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &fd, sizeof(int));
  for (;;) {
    if (deadline) wait_ready(fd_, POLLOUT, *deadline, "fd pass");
    const ssize_t n =
        ::sendmsg(fd_, &msg, MSG_NOSIGNAL | (deadline ? MSG_DONTWAIT : 0));
    if (n == 1) return;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      throw ProtocolError("peer closed connection during fd pass");
    }
    throw SystemError(std::string("sendmsg: ") + std::strerror(errno));
  }
}

UniqueFd TcpChannel::recv_fd() {
  const auto deadline = deadline_in(deadlines_.read_s);
  char byte = 0;
  iovec iov{};
  alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg = carrier_msg(&byte, iov, ctrl, sizeof(ctrl));
  for (;;) {
    if (deadline) wait_ready(fd_, POLLIN, *deadline, "fd receive");
    const ssize_t n =
        ::recvmsg(fd_, &msg, MSG_CMSG_CLOEXEC | (deadline ? MSG_DONTWAIT : 0));
    if (n == 0) throw ProtocolError("peer closed before passing an fd");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      if (errno == ECONNRESET) throw ProtocolError("peer reset connection during recvmsg");
      throw SystemError(std::string("recvmsg: ") + std::strerror(errno));
    }
    for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr; cm = CMSG_NXTHDR(&msg, cm)) {
      if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS &&
          cm->cmsg_len == CMSG_LEN(sizeof(int))) {
        int fd = -1;
        std::memcpy(&fd, CMSG_DATA(cm), sizeof(int));
        return UniqueFd(fd);
      }
    }
    throw ProtocolError("message carried no SCM_RIGHTS fd");
  }
}

void TcpChannel::shutdown_rw() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpChannel::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd) throw SystemError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw SystemError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw SystemError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  fd_.store(fd.release(), std::memory_order_release);
}

TcpListener::TcpListener(AdoptFd adopted) {
  UniqueFd fd(adopted.fd);
  if (!fd) throw SystemError("adopting an invalid listener fd");
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw SystemError(std::string("getsockname on adopted listener: ") +
                      std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  fd_.store(fd.release(), std::memory_order_release);
}

TcpListener::~TcpListener() { shutdown(); }

int TcpListener::release() {
  return fd_.exchange(-1, std::memory_order_acq_rel);
}

void TcpListener::set_nonblocking(bool nonblocking) {
  const int lfd = fd_.load(std::memory_order_acquire);
  if (lfd < 0) return;
  const int flags = ::fcntl(lfd, F_GETFL, 0);
  if (flags < 0) throw SystemError(std::string("fcntl: ") + std::strerror(errno));
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(lfd, F_SETFL, want) != 0) {
    throw SystemError(std::string("fcntl: ") + std::strerror(errno));
  }
}

std::unique_ptr<TcpChannel> TcpListener::accept() {
  // Load once: shutdown() may swap fd_ to -1 concurrently; a stale fd is
  // fine (the close makes the blocked accept fail, and shutting_down_
  // turns that failure into a clean nullptr).
  const int lfd = fd_.load(std::memory_order_acquire);
  if (lfd < 0) return nullptr;
  for (;;) {
    // Guard the accepted fd immediately: everything between accept(2) and
    // the TcpChannel taking ownership (setsockopt, make_unique) can throw,
    // and an unguarded int would leak the socket.
    UniqueFd client(::accept(lfd, nullptr, nullptr));
    if (client) {
      const int one = 1;
      ::setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto channel = std::make_unique<TcpChannel>(client.get());
      client.release();  // the channel owns it now
      return channel;
    }
    const int err = errno;
    if (err == EINTR && !shutting_down_.load(std::memory_order_acquire)) continue;
    if (shutting_down_.load(std::memory_order_acquire)) return nullptr;
    throw SystemError(std::string("accept: ") + std::strerror(err));
  }
}

UniqueFd TcpListener::try_accept() {
  const int lfd = fd_.load(std::memory_order_acquire);
  if (lfd < 0) return UniqueFd{};
  for (;;) {
    UniqueFd client(::accept(lfd, nullptr, nullptr));
    if (client) {
      const int one = 1;
      ::setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return client;
    }
    const int err = errno;
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK || err == ECONNABORTED) {
      return UniqueFd{};
    }
    if (shutting_down_.load(std::memory_order_acquire)) return UniqueFd{};
    throw SystemError(std::string("accept: ") + std::strerror(err));
  }
}

void TcpListener::shutdown() {
  shutting_down_.store(true, std::memory_order_release);
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace uucs
