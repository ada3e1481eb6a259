#pragma once

#include <memory>
#include <string>
#include <vector>

#include "server/net.hpp"
#include "server/protocol.hpp"
#include "util/failpoint.hpp"

namespace uucs {

/// What a FaultyChannel may do to one channel operation: the channel family
/// of the fault-injection framework (util/failpoint, DESIGN.md §8).
enum class ChannelFaultKind {
  kNone,        ///< pass through untouched
  kDrop,        ///< write: swallow the message; read: discard one message
  kDisconnect,  ///< close the channel and fail the operation
  kDelay,       ///< sleep delay_s, then pass through
  kTruncate,    ///< write: send a frame shorter than its header claims, then close
  kGarbage,     ///< write: send unframed garbage bytes, then close
};

std::string fault_kind_name(ChannelFaultKind kind);

using ChannelFaultAction = FaultAction<ChannelFaultKind>;
using ChannelFaultSchedule = FaultSchedule<ChannelFaultKind>;

/// Per-operation channel-fault odds for a seeded schedule.
struct ChannelFaultProfile {
  double drop = 0.0;
  double disconnect = 0.0;
  double delay = 0.0;
  double truncate = 0.0;
  double garbage = 0.0;
  double delay_s = 0.005;  ///< how long kDelay stalls

  /// The chaos-test mix: every sync has a realistic chance of at least one
  /// injected fault, while forward progress stays overwhelmingly likely.
  static ChannelFaultProfile moderate();

  std::vector<FaultOdds<ChannelFaultKind>> odds() const;
};

/// Parses "OP:KIND[,OP:KIND...]" where KIND is drop | disconnect |
/// delay[=SECONDS] | truncate | garbage (any "=V" lands in delay_s; a delay
/// of 0 or less means 5 ms). Example: "1:drop,3:delay=0.05,4:disconnect".
/// Throws ParseError on malformed specs.
ChannelFaultSchedule parse_channel_fault_schedule(const std::string& spec);

/// MessageChannel decorator that injects faults from a ChannelFaultSchedule
/// into every operation — the deterministic stand-in for a hostile network.
/// Wrapping a TcpChannel enables frame-level faults (truncated frames,
/// garbage bytes on the wire); over any other channel those degrade to a
/// disconnect, which is the same failure class one layer up.
///
/// Injected failures surface as the errors the real network produces:
/// ProtocolError for torn exchanges, TimeoutError (from the inner
/// channel's deadlines) for swallowed messages — so retry layers cannot
/// tell injection from reality, which is the point.
class FaultyChannel final : public MessageChannel {
 public:
  struct Stats {
    std::size_t ops = 0;
    std::size_t drops = 0;
    std::size_t disconnects = 0;
    std::size_t delays = 0;
    std::size_t truncations = 0;
    std::size_t garbage = 0;
    std::size_t faults() const {
      return drops + disconnects + delays + truncations + garbage;
    }
  };

  /// The schedule is shared so a reconnecting factory can thread one fault
  /// sequence through successive channels. `aggregate` (optional, borrowed)
  /// accumulates stats across all channels sharing it.
  FaultyChannel(std::unique_ptr<MessageChannel> inner,
                std::shared_ptr<ChannelFaultSchedule> schedule,
                Stats* aggregate = nullptr);
  FaultyChannel(std::unique_ptr<TcpChannel> inner,
                std::shared_ptr<ChannelFaultSchedule> schedule,
                Stats* aggregate = nullptr);

  void write(const std::string& message) override;
  std::optional<std::string> read() override;
  void close() override;

  const Stats& stats() const { return stats_; }

 private:
  ChannelFaultAction begin_op();
  void count(ChannelFaultKind kind);
  [[noreturn]] void poison(const char* what, ChannelFaultKind kind);

  std::unique_ptr<MessageChannel> inner_;
  TcpChannel* tcp_ = nullptr;  ///< non-null when frame-level faults are possible
  std::shared_ptr<ChannelFaultSchedule> schedule_;
  Stats stats_;
  Stats* aggregate_ = nullptr;
};

}  // namespace uucs
