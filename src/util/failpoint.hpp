#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace uucs {

/// UUCS's one fault-injection framework (DESIGN.md §8). A site family names
/// what can go wrong in a `Kind` enum whose first enumerator is kNone; a
/// FaultSchedule<Kind> decides, operation by operation, what does. The
/// network decorator (server/fault_injection: ChannelFaultKind) and the
/// resource sites below (journal batches, disk writes, pressure probes:
/// ResourceFaultKind) are its two families.

/// One consulted fault decision.
template <class Kind>
struct FaultAction {
  Kind kind = Kind::kNone;
  double delay_s = 0.0;         ///< stall kinds: how long the operation blocks
  double available_frac = 1.0;  ///< pressure kinds: the faked available fraction
};

/// A sparse script: op index -> action. Unlisted operations run clean.
template <class Kind>
using FaultScript = std::map<std::size_t, FaultAction<Kind>>;

/// One outcome a seeded schedule can draw: `action`, with chance `odds` per
/// operation.
template <class Kind>
struct FaultOdds {
  double odds = 0.0;
  FaultAction<Kind> action;
};

/// Deterministic source of FaultActions, one per consulted operation.
/// Scripted (an explicit op -> action map, exact replay) or seeded (drawn
/// from per-kind odds with a private Rng: same seed, same fault history).
template <class Kind>
class FaultSchedule {
 public:
  using Action = FaultAction<Kind>;

  /// No faults, ever.
  static FaultSchedule none() { return FaultSchedule(); }

  /// `script[op]` applies to the op-th operation; unlisted operations and
  /// those past the end run clean. Sparse, so any op index is cheap.
  static FaultSchedule scripted(FaultScript<Kind> script) {
    FaultSchedule s;
    s.script_ = std::move(script);
    return s;
  }

  /// `actions[i]` applies to the i-th operation.
  static FaultSchedule scripted(const std::vector<Action>& actions) {
    FaultScript<Kind> script;
    for (std::size_t i = 0; i < actions.size(); ++i) script.emplace(i, actions[i]);
    return scripted(std::move(script));
  }

  /// Draws each operation's action from `profile.odds()` (the per-kind odds
  /// in enum order) using an Rng seeded with `seed`.
  template <class Profile>
  static FaultSchedule seeded(std::uint64_t seed, const Profile& profile) {
    FaultSchedule s;
    s.rng_.emplace(seed);
    s.odds_ = profile.odds();
    return s;
  }

  /// The action for the next consulted operation.
  Action next() {
    const std::size_t op = ops_++;
    if (!rng_) {
      const auto it = script_.find(op);
      return it == script_.end() ? Action{} : it->second;
    }
    // One uniform draw per operation keeps the history a pure function of
    // (seed, operation count), independent of which fault fires. The edges
    // accumulate in enum order, so the floating-point sums never change.
    const double u = rng_->uniform();
    double edge = 0.0;
    for (const auto& o : odds_) {
      edge += o.odds;
      if (u < edge) return o.action;
    }
    return Action{};
  }

  /// Operations consumed so far.
  std::size_t ops() const { return ops_; }

 private:
  FaultSchedule() = default;
  FaultScript<Kind> script_;
  std::optional<Rng> rng_;  ///< set iff seeded
  std::vector<FaultOdds<Kind>> odds_;
  std::size_t ops_ = 0;
};

/// Which action field a KIND's "=V" sets.
enum class FaultParam { kNone, kDelay, kAvailableFrac };

/// One KIND a site's script accepts.
template <class Kind>
struct FaultSpelling {
  std::string_view name;
  Kind kind;
  FaultParam param = FaultParam::kNone;
  double fallback = 0.0;  ///< the param field's value when "=V" is absent
};

/// One "OP:KIND[=V]" entry, before KIND is looked up.
struct FaultScriptEntry {
  std::size_t op = 0;
  std::string kind;
  std::optional<double> value;
};

/// Splits "OP:KIND[=V][,OP:KIND[=V]...]" where OP is a 0-based operation
/// index and V a number >= 0. Throws ParseError naming `what` (e.g. "host
/// fault") on a malformed entry.
std::vector<FaultScriptEntry> split_fault_script(const std::string& spec,
                                                 std::string_view what);

/// Parses a script through a site's spelling table. "=V" sets the
/// spelling's param field (kNone: validated, then ignored); without it that
/// field takes the spelling's fallback. A fraction above 1 is rejected. A
/// later entry for an op overwrites an earlier one.
template <class Kind>
FaultScript<Kind> parse_fault_script(const std::string& spec,
                                     std::span<const FaultSpelling<Kind>> spellings,
                                     std::string_view what) {
  FaultScript<Kind> script;
  for (const FaultScriptEntry& entry : split_fault_script(spec, what)) {
    const auto spelling =
        std::find_if(spellings.begin(), spellings.end(),
                     [&](const auto& s) { return s.name == entry.kind; });
    if (spelling == spellings.end()) {
      throw ParseError("unknown " + std::string(what) + " kind '" + entry.kind + "'");
    }
    FaultAction<Kind> action{spelling->kind};
    const double value = entry.value.value_or(spelling->fallback);
    if (spelling->param == FaultParam::kDelay) action.delay_s = value;
    if (spelling->param == FaultParam::kAvailableFrac) {
      if (value > 1.0) throw ParseError("pressure fraction must be <= 1");
      action.available_frac = value;
    }
    script[entry.op] = action;
  }
  return script;
}

/// The resource faults: the journal disk on the server and the disk and
/// memory under the exercisers on a client host, made hostile.
enum class ResourceFaultKind : std::uint8_t {
  kNone = 0,
  kEnospc,    ///< write: fail with ENOSPC (the volume filled up)
  kEio,       ///< write: fail with EIO (a dying device)
  kSlow,      ///< write: block for delay_s first (a loaded or throttled disk)
  kPressure,  ///< probe: report only available_frac of memory free
};

using ResourceFaultAction = FaultAction<ResourceFaultKind>;
using ResourceFaultSchedule = FaultSchedule<ResourceFaultKind>;

/// Per-operation resource-fault odds for a seeded schedule.
struct ResourceFaultProfile {
  double enospc = 0.0;
  double eio = 0.0;
  double slow = 0.0;
  double pressure = 0.0;
  double slow_s = 0.02;                   ///< how long kSlow blocks
  double pressure_available_frac = 0.02;  ///< what kPressure reports

  /// The chaos-overload mix: every class likely enough to fire many times
  /// across a run, none so hot the server never recovers.
  static ResourceFaultProfile server_hostile();

  /// The chaos-host mix: every run of a few hundred disk writes sees ENOSPC
  /// streaks, occasional device errors and stalls, and the memory probe
  /// periodically reports a nearly-exhausted host.
  static ResourceFaultProfile host_hostile();

  std::vector<FaultOdds<ResourceFaultKind>> odds() const;
};

/// `uucs_server --server-faults`: enospc | eio | slow-fsync[=SECONDS] |
/// pressure[=FRACTION]. Example: "0:enospc,2:slow-fsync=0.5,3:pressure=0.25".
ResourceFaultSchedule parse_server_fault_schedule(const std::string& spec);

/// `uucs_client --failpoint-script`: enospc | eio | slowio[=SECONDS] |
/// pressure[=FRACTION]. Example: "0:enospc,3:slowio=0.05,5:pressure=0.01".
ResourceFaultSchedule parse_host_fault_schedule(const std::string& spec);

/// What a write-site action does to the write: fail it with `err`, or stall
/// `stall_s` and then write for real. Zero-initialized passes clean.
struct IoFault {
  int err = 0;
  double stall_s = 0.0;
};

/// kEnospc/kEio -> ENOSPC/EIO; kSlow -> a stall of delay_s; else clean.
IoFault io_fault(const ResourceFaultAction& action);

/// The armed registry the resource sites consult. Disarmed (the default and
/// the production state) a consult is one relaxed atomic load (see
/// BM_HostFailpointGuard); armed, the site takes the mutex and draws
/// the schedule's next action.
///
/// Sites: on_write() before each journal batch attempt (server) or disk
/// write (exerciser); on_probe() at each memory-pressure sample. One
/// schedule feeds both, op by op, so one seed is one complete fault history
/// however the sites interleave; a draw of a kind that does not apply at the
/// consulting site is consumed and passes clean.
class ResourceFailpoints {
 public:
  struct Stats {
    std::size_t write_checks = 0;  ///< on_write consultations while armed
    std::size_t probe_checks = 0;  ///< on_probe consultations while armed
    std::size_t enospc = 0;
    std::size_t eio = 0;
    std::size_t slow = 0;
    std::size_t pressure = 0;
    std::size_t injected() const { return enospc + eio + slow + pressure; }
  };

  /// Arms `schedule`, replacing any previous one. Safe from any thread.
  void arm(ResourceFaultSchedule schedule);

  /// Disarms; later consultations are clean and consume nothing.
  void disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Write site: ENOSPC, EIO, a stall, or kNone.
  ResourceFaultAction on_write();

  /// Probe site: the faked available fraction, or nullopt to use the real
  /// reading.
  std::optional<double> on_probe();

  Stats stats() const;

 private:
  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  ResourceFaultSchedule schedule_ = ResourceFaultSchedule::none();
  Stats stats_;
};

}  // namespace uucs
