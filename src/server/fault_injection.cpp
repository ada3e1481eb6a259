#include "server/fault_injection.hpp"

#include <chrono>
#include <thread>

#include "util/error.hpp"

namespace uucs {

std::string fault_kind_name(ChannelFaultKind kind) {
  switch (kind) {
    case ChannelFaultKind::kNone: return "none";
    case ChannelFaultKind::kDrop: return "drop";
    case ChannelFaultKind::kDisconnect: return "disconnect";
    case ChannelFaultKind::kDelay: return "delay";
    case ChannelFaultKind::kTruncate: return "truncate";
    case ChannelFaultKind::kGarbage: return "garbage";
  }
  return "unknown";
}

ChannelFaultProfile ChannelFaultProfile::moderate() {
  ChannelFaultProfile p;
  p.drop = 0.08;
  p.disconnect = 0.06;
  p.delay = 0.05;
  p.truncate = 0.04;
  p.garbage = 0.04;
  p.delay_s = 0.002;
  return p;
}

std::vector<FaultOdds<ChannelFaultKind>> ChannelFaultProfile::odds() const {
  return {{drop, {ChannelFaultKind::kDrop}},
          {disconnect, {ChannelFaultKind::kDisconnect}},
          {delay, {ChannelFaultKind::kDelay, delay_s}},
          {truncate, {ChannelFaultKind::kTruncate}},
          {garbage, {ChannelFaultKind::kGarbage}}};
}

namespace {

// Unlike the resource tables, any "=V" lands in delay_s.
constexpr FaultSpelling<ChannelFaultKind> kChannelSpellings[] = {
    {"drop", ChannelFaultKind::kDrop, FaultParam::kDelay},
    {"disconnect", ChannelFaultKind::kDisconnect, FaultParam::kDelay},
    {"delay", ChannelFaultKind::kDelay, FaultParam::kDelay},
    {"truncate", ChannelFaultKind::kTruncate, FaultParam::kDelay},
    {"garbage", ChannelFaultKind::kGarbage, FaultParam::kDelay},
};

}  // namespace

ChannelFaultSchedule parse_channel_fault_schedule(const std::string& spec) {
  auto script = parse_fault_script<ChannelFaultKind>(spec, kChannelSpellings, "fault");
  for (auto& [op, action] : script) {
    if (action.kind == ChannelFaultKind::kDelay && action.delay_s <= 0) {
      action.delay_s = 0.005;
    }
  }
  return ChannelFaultSchedule::scripted(std::move(script));
}

FaultyChannel::FaultyChannel(std::unique_ptr<MessageChannel> inner,
                             std::shared_ptr<ChannelFaultSchedule> schedule,
                             Stats* aggregate)
    : inner_(std::move(inner)), schedule_(std::move(schedule)), aggregate_(aggregate) {
  UUCS_CHECK_MSG(inner_ != nullptr, "FaultyChannel needs an inner channel");
  UUCS_CHECK_MSG(schedule_ != nullptr, "FaultyChannel needs a schedule");
  tcp_ = dynamic_cast<TcpChannel*>(inner_.get());
}

FaultyChannel::FaultyChannel(std::unique_ptr<TcpChannel> inner,
                             std::shared_ptr<ChannelFaultSchedule> schedule,
                             Stats* aggregate)
    : FaultyChannel(std::unique_ptr<MessageChannel>(std::move(inner)),
                    std::move(schedule), aggregate) {}

ChannelFaultAction FaultyChannel::begin_op() {
  ++stats_.ops;
  if (aggregate_) ++aggregate_->ops;
  return schedule_->next();
}

void FaultyChannel::count(ChannelFaultKind kind) {
  auto bump = [kind](Stats& s) {
    switch (kind) {
      case ChannelFaultKind::kDrop: ++s.drops; break;
      case ChannelFaultKind::kDisconnect: ++s.disconnects; break;
      case ChannelFaultKind::kDelay: ++s.delays; break;
      case ChannelFaultKind::kTruncate: ++s.truncations; break;
      case ChannelFaultKind::kGarbage: ++s.garbage; break;
      case ChannelFaultKind::kNone: break;
    }
  };
  bump(stats_);
  if (aggregate_) bump(*aggregate_);
}

void FaultyChannel::poison(const char* what, ChannelFaultKind kind) {
  inner_->close();
  throw ProtocolError(std::string("fault injection: ") + fault_kind_name(kind) +
                      " during " + what);
}

void FaultyChannel::write(const std::string& message) {
  const ChannelFaultAction action = begin_op();
  count(action.kind);
  switch (action.kind) {
    case ChannelFaultKind::kNone:
      inner_->write(message);
      return;
    case ChannelFaultKind::kDrop:
      return;  // swallowed: the peer never sees it, the caller's read times out
    case ChannelFaultKind::kDisconnect:
      poison("write", action.kind);
    case ChannelFaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::duration<double>(action.delay_s));
      inner_->write(message);
      return;
    case ChannelFaultKind::kTruncate:
      if (tcp_) {
        // Header claims the full payload; deliver only half, then hang up —
        // the peer's read_all hits EOF mid-payload.
        const std::string framed = TcpChannel::frame(message);
        const std::size_t header = framed.size() - message.size();
        tcp_->write_bytes(framed.substr(0, header + message.size() / 2));
      }
      poison("write", action.kind);
    case ChannelFaultKind::kGarbage:
      if (tcp_) {
        tcp_->write_bytes("\x07gArBaGe bytes, not a UUCS frame\xff\xfe\n");
      }
      poison("write", action.kind);
  }
}

std::optional<std::string> FaultyChannel::read() {
  const ChannelFaultAction action = begin_op();
  count(action.kind);
  switch (action.kind) {
    case ChannelFaultKind::kNone:
      return inner_->read();
    case ChannelFaultKind::kDrop: {
      // Lose one incoming message (the classic "response vanished" fault),
      // then keep reading: with deadlines, the caller sees a TimeoutError.
      const auto lost = inner_->read();
      if (!lost) return std::nullopt;  // peer closed; nothing to lose
      return inner_->read();
    }
    case ChannelFaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::duration<double>(action.delay_s));
      return inner_->read();
    case ChannelFaultKind::kDisconnect:
    case ChannelFaultKind::kTruncate:
    case ChannelFaultKind::kGarbage:
      // Byte-level faults have no receive-side analogue at this layer;
      // they all collapse to "the connection died under the read".
      poison("read", action.kind);
  }
  return inner_->read();
}

void FaultyChannel::close() { inner_->close(); }

}  // namespace uucs
