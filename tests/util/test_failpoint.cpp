#include "util/failpoint.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <limits>
#include <string>

namespace uucs {
namespace {

TEST(Failpoint, ScriptsAreSparseSoHugeOpIndicesAreCheap) {
  // INT64_MAX and a mid-range index parse to two map entries, not a dense
  // vector of that length; the early ops run clean.
  const std::string max = std::to_string(std::numeric_limits<std::int64_t>::max());
  for (auto parse : {parse_server_fault_schedule, parse_host_fault_schedule}) {
    auto s = parse(max + ":enospc,100000000:eio,1:pressure");
    EXPECT_EQ(s.next().kind, ResourceFaultKind::kNone);
    EXPECT_EQ(s.next().kind, ResourceFaultKind::kPressure);
    EXPECT_EQ(s.next().kind, ResourceFaultKind::kNone);
  }
  // One past INT64_MAX is no longer an op index at all.
  EXPECT_THROW(parse_server_fault_schedule("9223372036854775808:eio"), ParseError);
  EXPECT_THROW(parse_host_fault_schedule("9223372036854775808:eio"), ParseError);
}

TEST(Failpoint, SeededDrawsFollowEnumOrderAndConsumeOneDrawPerOp) {
  // All the odds on the last kind: every op draws it.
  ResourceFaultProfile p;
  p.pressure = 1.0;
  p.pressure_available_frac = 0.3;
  auto s = ResourceFaultSchedule::seeded(5, p);
  for (int i = 0; i < 16; ++i) {
    const auto a = s.next();
    EXPECT_EQ(a.kind, ResourceFaultKind::kPressure);
    EXPECT_EQ(a.available_frac, 0.3);
    EXPECT_EQ(a.delay_s, 0.0);
  }
  EXPECT_EQ(s.ops(), 16u);
  // Zero odds: clean forever.
  auto clean = ResourceFaultSchedule::seeded(5, ResourceFaultProfile{});
  for (int i = 0; i < 16; ++i) EXPECT_EQ(clean.next().kind, ResourceFaultKind::kNone);
}

TEST(Failpoint, InapplicableDrawsAreConsumedAndPassClean) {
  ResourceFailpoints fp;
  fp.arm(parse_host_fault_schedule("0:pressure=0.1,1:enospc,2:slowio=0.5,3:eio"));
  EXPECT_EQ(fp.on_write().kind, ResourceFaultKind::kNone);  // op 0: pressure
  EXPECT_FALSE(fp.on_probe().has_value());                  // op 1: enospc
  const auto slow = fp.on_write();                          // op 2
  EXPECT_EQ(slow.kind, ResourceFaultKind::kSlow);
  EXPECT_EQ(slow.delay_s, 0.5);
  EXPECT_EQ(fp.on_write().kind, ResourceFaultKind::kEio);   // op 3
  const auto stats = fp.stats();
  EXPECT_EQ(stats.write_checks, 3u);
  EXPECT_EQ(stats.probe_checks, 1u);
  EXPECT_EQ(stats.injected(), 2u);  // slow + eio; the two misfits count nothing
}

TEST(Failpoint, IoFaultMapsEachWriteKind) {
  EXPECT_EQ(io_fault({ResourceFaultKind::kEnospc}).err, ENOSPC);
  EXPECT_EQ(io_fault({ResourceFaultKind::kEio}).err, EIO);
  const IoFault slow = io_fault({ResourceFaultKind::kSlow, 0.25});
  EXPECT_EQ(slow.err, 0);
  EXPECT_EQ(slow.stall_s, 0.25);
  for (auto kind : {ResourceFaultKind::kNone, ResourceFaultKind::kPressure}) {
    const IoFault clean = io_fault({kind, 0.25, 0.1});
    EXPECT_EQ(clean.err, 0);
    EXPECT_EQ(clean.stall_s, 0.0);
  }
}

}  // namespace
}  // namespace uucs
