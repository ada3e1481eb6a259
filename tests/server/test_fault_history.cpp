// Golden fault histories. Every chaos suite replays its faults from a seed,
// so a seed must name the same fault history for as long as the suites
// reference it. These tests pin that history bit for bit: the first 512
// actions of each shipped seeded profile at three seeds (one CRC32 per
// stream over kind, delay_s and available_frac), plus one parsed script and
// the accepted/rejected spec lists for each CLI spelling table.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "server/fault_injection.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace uucs {
namespace {

constexpr int kHistoryLength = 512;

/// One action as text: the kind's enum value, then each double in exact
/// hex-float form, so the CRC covers every bit of every field.
std::string line(int kind, double delay_s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d %a\n", kind, delay_s);
  return buf;
}

std::string line(int kind, double delay_s, double available_frac) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%d %a %a\n", kind, delay_s, available_frac);
  return buf;
}

template <class Schedule>
std::uint32_t channel_history_crc(Schedule schedule) {
  std::string text;
  for (int i = 0; i < kHistoryLength; ++i) {
    const auto a = schedule.next();
    text += line(static_cast<int>(a.kind), a.delay_s);
  }
  return crc32(text);
}

template <class Schedule>
std::uint32_t resource_history_crc(Schedule schedule) {
  std::string text;
  for (int i = 0; i < kHistoryLength; ++i) {
    const auto a = schedule.next();
    text += line(static_cast<int>(a.kind), a.delay_s, a.available_frac);
  }
  return crc32(text);
}

struct SeedCrc {
  std::uint64_t seed;
  std::uint32_t crc;
};

TEST(FaultHistory, ChannelModerateProfileIsPinned) {
  const std::vector<SeedCrc> pinned = {{1, 0x77007e2eu}, {42, 0x2411802fu}, {99, 0x472fde9eu}};
  for (const auto& [seed, crc] : pinned) {
    EXPECT_EQ(channel_history_crc(
                  ChannelFaultSchedule::seeded(seed, ChannelFaultProfile::moderate())),
              crc)
        << "seed " << seed;
  }
}

TEST(FaultHistory, ServerHostileProfileIsPinned) {
  const std::vector<SeedCrc> pinned = {{1, 0x045c822fu}, {42, 0x1bcc1d2au}, {99, 0xa69c28edu}};
  for (const auto& [seed, crc] : pinned) {
    EXPECT_EQ(resource_history_crc(ResourceFaultSchedule::seeded(
                  seed, ResourceFaultProfile::server_hostile())),
              crc)
        << "seed " << seed;
  }
}

TEST(FaultHistory, HostHostileProfileIsPinned) {
  const std::vector<SeedCrc> pinned = {{1, 0xce0ad53au}, {42, 0xbbf53fabu}, {99, 0x251db4aau}};
  for (const auto& [seed, crc] : pinned) {
    EXPECT_EQ(resource_history_crc(ResourceFaultSchedule::seeded(
                  seed, ResourceFaultProfile::host_hostile())),
              crc)
        << "seed " << seed;
  }
}

template <class Schedule, class Action>
void expect_script(Schedule schedule, const std::vector<Action>& expected) {
  for (std::size_t op = 0; op < expected.size(); ++op) {
    const auto got = schedule.next();
    EXPECT_EQ(got.kind, expected[op].kind) << "op " << op;
    EXPECT_EQ(got.delay_s, expected[op].delay_s) << "op " << op;
  }
}

template <class Schedule, class Action>
void expect_resource_script(Schedule schedule, const std::vector<Action>& expected) {
  for (std::size_t op = 0; op < expected.size(); ++op) {
    const auto got = schedule.next();
    EXPECT_EQ(got.kind, expected[op].kind) << "op " << op;
    EXPECT_EQ(got.delay_s, expected[op].delay_s) << "op " << op;
    EXPECT_EQ(got.available_frac, expected[op].available_frac) << "op " << op;
  }
}

TEST(FaultHistory, ChannelScriptIsPinned) {
  // A value on any kind lands in delay_s; delay<=0 means the 5 ms default;
  // a later entry for an op overwrites an earlier one; gaps and ops past
  // the end run clean.
  expect_script(
      parse_channel_fault_schedule(
          "0:drop,1:disconnect=0.5,2:delay,3:delay=0,4:delay=0.25,5:truncate,7:garbage,"
          "9:drop,9:delay=0.125"),
      std::vector<ChannelFaultAction>{{ChannelFaultKind::kDrop, 0.0},
                                      {ChannelFaultKind::kDisconnect, 0.5},
                                      {ChannelFaultKind::kDelay, 0.005},
                                      {ChannelFaultKind::kDelay, 0.005},
                                      {ChannelFaultKind::kDelay, 0.25},
                                      {ChannelFaultKind::kTruncate, 0.0},
                                      {ChannelFaultKind::kNone, 0.0},
                                      {ChannelFaultKind::kGarbage, 0.0},
                                      {ChannelFaultKind::kNone, 0.0},
                                      {ChannelFaultKind::kDelay, 0.125},
                                      {ChannelFaultKind::kNone, 0.0},
                                      {ChannelFaultKind::kNone, 0.0}});
}

TEST(FaultHistory, ServerScriptIsPinned) {
  // Values on enospc/eio are validated and ignored; slow-fsync defaults to
  // 20 ms and keeps an explicit 0; pressure defaults to 2% available.
  expect_resource_script(
      parse_server_fault_schedule("0:enospc,1:eio=3,2:slow-fsync,3:slow-fsync=0,"
                                  "4:slow-fsync=0.5,5:pressure,6:pressure=0.25,"
                                  "6:pressure=1,8:enospc"),
      std::vector<ResourceFaultAction>{{ResourceFaultKind::kEnospc, 0.0, 1.0},
                                       {ResourceFaultKind::kEio, 0.0, 1.0},
                                       {ResourceFaultKind::kSlow, 0.02, 1.0},
                                       {ResourceFaultKind::kSlow, 0.0, 1.0},
                                       {ResourceFaultKind::kSlow, 0.5, 1.0},
                                       {ResourceFaultKind::kPressure, 0.0, 0.02},
                                       {ResourceFaultKind::kPressure, 0.0, 1.0},
                                       {ResourceFaultKind::kNone, 0.0, 1.0},
                                       {ResourceFaultKind::kEnospc, 0.0, 1.0},
                                       {ResourceFaultKind::kNone, 0.0, 1.0}});
}

TEST(FaultHistory, HostScriptIsPinned) {
  expect_resource_script(
      parse_host_fault_schedule("0:enospc,1:eio=3,2:slowio,3:slowio=0,4:slowio=0.5,"
                                "5:pressure,6:pressure=0.25,6:pressure=1,8:enospc"),
      std::vector<ResourceFaultAction>{{ResourceFaultKind::kEnospc, 0.0, 1.0},
                                       {ResourceFaultKind::kEio, 0.0, 1.0},
                                       {ResourceFaultKind::kSlow, 0.02, 1.0},
                                       {ResourceFaultKind::kSlow, 0.0, 1.0},
                                       {ResourceFaultKind::kSlow, 0.5, 1.0},
                                       {ResourceFaultKind::kPressure, 0.0, 0.02},
                                       {ResourceFaultKind::kPressure, 0.0, 1.0},
                                       {ResourceFaultKind::kNone, 0.0, 1.0},
                                       {ResourceFaultKind::kEnospc, 0.0, 1.0},
                                       {ResourceFaultKind::kNone, 0.0, 1.0}});
}

/// Specs both resource spelling tables treat alike.
std::vector<std::string> accepted_common() {
  return {"", " ", ",", "0:eio", " 3:eio , 1:enospc ", "0:enospc=0", "0:eio=1e3",
          "0:pressure=0", "0:pressure=1", "0:pressure=nan"};
}

std::vector<std::string> rejected_common() {
  return {"nonsense", "0", "0:eio:1", "x:eio", "-1:eio", "+2:eio", "1.5:eio", ":eio",
          "0:", "0:EIO", "0:eio=", "0:eio=-1", "0:eio=x", "0:pressure=1.01",
          "0:pressure=2", "0:pressure=inf", "99999999999999999999:eio"};
}

TEST(FaultHistory, ChannelSpecAcceptanceIsPinned) {
  for (const std::string spec :
       {"", ",", "0:drop", "1:disconnect", "2:delay", "2:delay=0", "2:delay=nan",
        "2:delay=inf", "3:truncate=7", "4:garbage", " 5:drop , 6:delay=0.1 "}) {
    EXPECT_NO_THROW(parse_channel_fault_schedule(spec)) << spec;
  }
  for (const std::string spec :
       {"nonsense", "0", "x:drop", "-1:drop", "0:frobnicate", "0:delay=-2",
        "0:delay=x", "0:Drop", "0:drop:1", "0:eio", "+2:drop", "99999999999999999999:drop"}) {
    EXPECT_THROW(parse_channel_fault_schedule(spec), ParseError) << spec;
  }
}

TEST(FaultHistory, ServerSpecAcceptanceIsPinned) {
  for (const auto& spec : accepted_common()) {
    EXPECT_NO_THROW(parse_server_fault_schedule(spec)) << spec;
  }
  for (const std::string spec : {"0:slow-fsync", "0:slow-fsync=0", "0:slow-fsync=inf"}) {
    EXPECT_NO_THROW(parse_server_fault_schedule(spec)) << spec;
  }
  for (const auto& spec : rejected_common()) {
    EXPECT_THROW(parse_server_fault_schedule(spec), ParseError) << spec;
  }
  for (const std::string spec : {"0:slowio", "0:slow-fsync=-1", "0:drop"}) {
    EXPECT_THROW(parse_server_fault_schedule(spec), ParseError) << spec;
  }
}

TEST(FaultHistory, HostSpecAcceptanceIsPinned) {
  for (const auto& spec : accepted_common()) {
    EXPECT_NO_THROW(parse_host_fault_schedule(spec)) << spec;
  }
  for (const std::string spec : {"0:slowio", "0:slowio=0", "0:slowio=inf"}) {
    EXPECT_NO_THROW(parse_host_fault_schedule(spec)) << spec;
  }
  for (const auto& spec : rejected_common()) {
    EXPECT_THROW(parse_host_fault_schedule(spec), ParseError) << spec;
  }
  for (const std::string spec : {"0:slow-fsync", "0:slowio=-1", "0:drop"}) {
    EXPECT_THROW(parse_host_fault_schedule(spec), ParseError) << spec;
  }
}

}  // namespace
}  // namespace uucs
