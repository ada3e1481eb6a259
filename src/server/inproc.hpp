#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "server/protocol.hpp"

namespace uucs {

/// A pair of connected in-process MessageChannels (like socketpair, but for
/// whole messages). Tests and bench_micro use it to exercise the exact wire
/// codec the TCP transport uses without real sockets; the Internet-study
/// simulator skips the codec entirely and calls LocalServerApi.
class InProcChannelPair {
 public:
  InProcChannelPair();

  ~InProcChannelPair();

  MessageChannel& a();
  MessageChannel& b();

 private:
  struct Shared;
  class End;
  std::shared_ptr<Shared> shared_;
  std::unique_ptr<End> a_;
  std::unique_ptr<End> b_;
};

}  // namespace uucs
