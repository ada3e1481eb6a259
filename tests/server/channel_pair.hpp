#pragma once

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>

#include "server/net.hpp"
#include "util/error.hpp"

namespace uucs {

/// Two connected MessageChannels over an AF_UNIX stream socketpair, framed
/// exactly like the TCP transport. Tests that need a peer without a
/// listener (a hand-scripted server, a channel decorator under test) drive
/// one end and hand the other to the code under test. Closing either end
/// gives the other EOF on read and EPIPE (a ProtocolError) on write.
struct ChannelPair {
  std::unique_ptr<TcpChannel> a;
  std::unique_ptr<TcpChannel> b;
};

inline ChannelPair make_channel_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw SystemError(std::string("socketpair: ") + std::strerror(errno));
  }
  return {std::make_unique<TcpChannel>(fds[0]), std::make_unique<TcpChannel>(fds[1])};
}

}  // namespace uucs
