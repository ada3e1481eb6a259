#include "util/failpoint.hpp"

#include <cerrno>

#include "util/strings.hpp"

namespace uucs {

std::vector<FaultScriptEntry> split_fault_script(const std::string& spec,
                                                 std::string_view what) {
  const std::string label(what);
  std::vector<FaultScriptEntry> entries;
  for (const auto& part : split(trim(spec), ',')) {
    if (trim(part).empty()) continue;
    const auto fields = split(trim(part), ':');
    if (fields.size() != 2) {
      throw ParseError(label + " schedule entry '" + part + "' is not OP:KIND");
    }
    const auto op = parse_int(fields[0]);
    if (!op || *op < 0) {
      throw ParseError("bad " + label + " operation index '" + fields[0] + "'");
    }
    FaultScriptEntry entry{static_cast<std::size_t>(*op), fields[1], std::nullopt};
    const auto eq = entry.kind.find('=');
    if (eq != std::string::npos) {
      entry.value = parse_double(entry.kind.substr(eq + 1));
      if (!entry.value || *entry.value < 0) {
        throw ParseError("bad " + label + " value '" + entry.kind.substr(eq + 1) + "'");
      }
      entry.kind.resize(eq);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

ResourceFaultProfile ResourceFaultProfile::server_hostile() {
  ResourceFaultProfile p;
  p.enospc = 0.06;
  p.eio = 0.03;
  p.slow = 0.06;
  p.pressure = 0.10;
  return p;
}

ResourceFaultProfile ResourceFaultProfile::host_hostile() {
  ResourceFaultProfile p;
  p.enospc = 0.10;
  p.eio = 0.04;
  p.slow = 0.04;
  p.pressure = 0.10;
  return p;
}

std::vector<FaultOdds<ResourceFaultKind>> ResourceFaultProfile::odds() const {
  return {{enospc, {ResourceFaultKind::kEnospc}},
          {eio, {ResourceFaultKind::kEio}},
          {slow, {ResourceFaultKind::kSlow, slow_s}},
          {pressure, {ResourceFaultKind::kPressure, 0.0, pressure_available_frac}}};
}

namespace {

// The two CLIs spell the stall kind after what it stalls.
constexpr FaultSpelling<ResourceFaultKind> kServerSpellings[] = {
    {"enospc", ResourceFaultKind::kEnospc},
    {"eio", ResourceFaultKind::kEio},
    {"slow-fsync", ResourceFaultKind::kSlow, FaultParam::kDelay, 0.02},
    {"pressure", ResourceFaultKind::kPressure, FaultParam::kAvailableFrac, 0.02},
};

constexpr FaultSpelling<ResourceFaultKind> kHostSpellings[] = {
    {"enospc", ResourceFaultKind::kEnospc},
    {"eio", ResourceFaultKind::kEio},
    {"slowio", ResourceFaultKind::kSlow, FaultParam::kDelay, 0.02},
    {"pressure", ResourceFaultKind::kPressure, FaultParam::kAvailableFrac, 0.02},
};

}  // namespace

ResourceFaultSchedule parse_server_fault_schedule(const std::string& spec) {
  return ResourceFaultSchedule::scripted(
      parse_fault_script<ResourceFaultKind>(spec, kServerSpellings, "server fault"));
}

ResourceFaultSchedule parse_host_fault_schedule(const std::string& spec) {
  return ResourceFaultSchedule::scripted(
      parse_fault_script<ResourceFaultKind>(spec, kHostSpellings, "host fault"));
}

IoFault io_fault(const ResourceFaultAction& action) {
  switch (action.kind) {
    case ResourceFaultKind::kEnospc: return {ENOSPC, 0.0};
    case ResourceFaultKind::kEio: return {EIO, 0.0};
    case ResourceFaultKind::kSlow: return {0, action.delay_s};
    default: return {};
  }
}

void ResourceFailpoints::arm(ResourceFaultSchedule schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_ = std::move(schedule);
  armed_.store(true, std::memory_order_release);
}

void ResourceFailpoints::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
}

ResourceFaultAction ResourceFailpoints::on_write() {
  if (!armed_.load(std::memory_order_relaxed)) return {};
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return {};
  ++stats_.write_checks;
  const ResourceFaultAction action = schedule_.next();
  switch (action.kind) {
    case ResourceFaultKind::kEnospc: ++stats_.enospc; return action;
    case ResourceFaultKind::kEio: ++stats_.eio; return action;
    case ResourceFaultKind::kSlow: ++stats_.slow; return action;
    default: return {};  // kPressure does not apply here: consumed, clean
  }
}

std::optional<double> ResourceFailpoints::on_probe() {
  if (!armed_.load(std::memory_order_relaxed)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return std::nullopt;
  ++stats_.probe_checks;
  const ResourceFaultAction action = schedule_.next();
  if (action.kind != ResourceFaultKind::kPressure) return std::nullopt;
  ++stats_.pressure;
  return action.available_frac;
}

ResourceFailpoints::Stats ResourceFailpoints::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace uucs
