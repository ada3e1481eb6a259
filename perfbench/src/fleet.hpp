#pragma once

// The ingest half of UUCS under load: an in-process IngestServer on
// loopback at the uucs_server defaults, a seeded fleet of registered
// clients, and one open-loop generator thread multiplexing every client
// over a few pipelined connections.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/event_loop.hpp"
#include "server/ingest.hpp"
#include "server/server.hpp"
#include "testcase/store.hpp"
#include "trace.hpp"
#include "util/guid.hpp"
#include "util/kvtext.hpp"

namespace perfbench {

/// uucs_server defaults: the configuration every fleet workload serves at.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kShards = 4;
constexpr std::size_t kSampleBatch = 16;
constexpr std::size_t kMaxBatch = 512;
constexpr std::uint32_t kLingerUs = 500;
/// Load-generator connections (at most nproc on the 4-core reference host).
constexpr std::size_t kConnections = 4;

/// One fleet workload: who the clients are and the fixed offered rates.
struct FleetShape {
  std::string name;
  bool join = false;          ///< fresh clients vs. the 2080-testcase suite
  std::size_t clients = 0;    ///< registered GUIDs multiplexed by the generator
  double light_rate = 0.0;    ///< syncs/s where linger + fsync dominate
  double nominal_rate = 0.0;  ///< syncs/s, about half the sustained rate
  double p99_limit_ms = 0.0;  ///< latency limit of the sustained search
};

/// Cumulative CPU time of the whole machine as /proc/stat reports it:
/// `steal` is time the hypervisor ran something else while this VM's CPUs
/// wanted to run, `total` all accounted time (both in clock ticks).
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static HostCpu read();
  /// Stolen share of the CPU time between `before` and this reading.
  double steal_since(const HostCpu& before) const;
};

/// Throws std::invalid_argument for a name that is not a fleet workload.
FleetShape fleet_shape(const std::string& workload);

/// The registered clients, as GUID strings in ascending order. GUIDs are
/// minted by the server's seeded generator, so the set (and therefore every
/// request byte) is a function of the seed alone.
struct ClientSet {
  std::vector<std::string> guids;
  /// Index of `guid` in `guids`, or -1.
  long find(std::string_view guid) const;
};

/// One phase's seeded open-loop schedule: Poisson arrivals from uniformly
/// chosen clients, with every request pre-encoded (framed) up front so the
/// generator only copies bytes while the clock runs.
struct Schedule {
  struct Req {
    std::int64_t due_ns = 0;     ///< offset from the phase start
    std::uint32_t client = 0;    ///< index into ClientSet::guids
    std::uint32_t serial0 = 0;   ///< first run serial; the rest follow
    std::uint32_t records = 0;   ///< results uploaded (>= 1)
    std::uint32_t known_off = 0; ///< slice of `known` this client holds
    std::uint32_t known_len = 0;
    std::size_t off = 0;         ///< framed bytes in `bytes`
    std::size_t len = 0;
  };
  std::uint64_t phase_id = 0;
  bool knows_catalog = false;  ///< mature clients: every sync lists the catalog
  std::string bytes;
  std::vector<Req> reqs;
  std::vector<std::uint32_t> known;  ///< catalog indices, per request slices
};

/// Run ids of a request are "<guid>/<serial>" for serial0 .. serial0+k-1;
/// serials carry the phase id in their high bits, so no two phases of one
/// run ever share a run id.
std::string run_id(const ClientSet& clients, std::uint32_t client, std::uint32_t serial);

/// One acked upload: `records` run ids of `client` from `serial0` on.
struct AckedUpload {
  std::uint32_t client = 0;
  std::uint32_t serial0 = 0;
  std::uint32_t records = 0;
};

/// Builds phase `phase_id` of a run seeded with `seed`. Pure function of its
/// arguments: same inputs, same bytes.
Schedule make_schedule(const FleetShape& shape, const ClientSet& clients,
                       const std::vector<std::string>& catalog_ids,
                       std::uint64_t seed, std::uint64_t phase_id, double rate,
                       double duration_s);

/// What one phase measured.
struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t acked = 0;
  std::size_t errors = 0;       ///< [error] replies (busy, refused)
  std::size_t timeouts = 0;     ///< no reply within the drain window
  std::size_t late_replies = 0; ///< replies to an earlier phase's request
  std::vector<double> latency_ms;  ///< due -> ack, acked requests only
  std::vector<double> gen_lag_ms;  ///< due -> handed to the socket buffer
  std::size_t outstanding_at_window_end = 0;
  double process_cpu_s = 0.0;
  double gen_cpu_s = 0.0;
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  double steal_frac = 0.0;         ///< host CPU stolen from this VM, share of all CPU time
  double inflight_sum = 0.0;       ///< sampled EventLoopServer inflight()
  std::size_t inflight_samples = 0;
  std::size_t failed() const { return attempted - acked; }
};

/// The generator: one thread (the caller's), `kConnections` nonblocking
/// loopback connections, replies matched to requests by the run ids the
/// server echoes in `stored`. Every reply is checked; a reply that acks
/// something other than what its request uploaded throws CorrectnessError.
class Generator {
 public:
  Generator(std::uint16_t port, const std::vector<std::string>& catalog_ids);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Registers `n` clients (pipelined) and returns their GUIDs, sorted.
  ClientSet register_clients(std::size_t n, std::uint64_t seed);

  /// Runs one schedule open loop: sends each request when due, waits for
  /// the replies (at most `drain_s` after the window), times each ack from
  /// its due time. `sample` (optional) runs about every millisecond.
  /// With a tracer, records client.sync / client.send / client.ack spans.
  PhaseResult run(const Schedule& schedule, const ClientSet& clients,
                  double drain_s, const std::function<void()>& sample,
                  Tracer* tracer);

  /// Every upload acked so far.
  std::vector<AckedUpload>& acked() { return acked_; }

 private:
  /// Closes its descriptor on destruction.
  struct Fd {
    int fd = -1;
    Fd() = default;
    explicit Fd(int f) : fd(f) {}
    ~Fd();
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
  };
  struct Conn;
  void flush(Conn& c);
  void watch(Conn& c, bool want_out);
  /// A connection that failed: out of the epoll set, its unanswered
  /// requests time out and count as failed.
  void drop(Conn& c);

  Fd epfd_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::string> catalog_ids_;  ///< sorted
  uucs::KvDoc doc_;
  std::vector<AckedUpload> acked_;
};

struct CorrectnessError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One set-up ingest plane: catalog, journaled server, IngestServer,
/// generator, registered and warmed-up fleet.
struct Fleet {
  FleetShape shape;
  std::uint64_t seed = 0;
  std::string dir;                  ///< journal work dir (inside the checkout)
  std::vector<std::string> catalog_ids;
  std::unique_ptr<uucs::UucsServer> server;
  std::unique_ptr<uucs::IngestServer> ingest;
  std::unique_ptr<Generator> gen;
  ClientSet clients;
  std::vector<AckedUpload> acked;   ///< filled by stop()
  std::uint64_t next_phase = 1;
  double suite_gen_s = 0.0;

  ~Fleet();
  /// Stops the generator and the ingest plane (idempotent).
  void stop();
};

/// Builds a fleet: catalog, server, journal, ingest plane, registrations,
/// warm-up. Everything here is set-up and never inside a timed phase.
/// Phases of this fleet are numbered from `first_phase`, so fleets of one
/// run draw different arrivals and bytes.
std::unique_ptr<Fleet> setup_fleet(const FleetShape& shape, std::uint64_t seed,
                                   const std::string& dir, std::uint64_t first_phase);

/// The fleet's testcase catalog: the Internet suite for joining clients,
/// the controlled-study testcases for mature ones.
uucs::TestcaseStore make_catalog(bool join, std::uint64_t seed);

/// Runs the next phase of `fleet` at `rate` for `duration_s`.
PhaseResult run_phase(Fleet& fleet, double rate, double duration_s,
                      bool sample_inflight, Tracer* tracer,
                      Schedule* keep_schedule = nullptr);

/// The sustained-rate search: an adaptive up-down staircase over offered
/// rates. A probe that meets the p99 limit with no failed sync and no
/// growing backlog raises the rate by the current step, any other lowers it;
/// the step halves at every reversal, from 32% down to 2% (finer than the
/// metric's bound). The estimate is the median rate of the settled probes,
/// so one noisy probe moves it by at most one step.
class SustainedSearch {
 public:
  explicit SustainedSearch(double start_rate) : rate_(start_rate) {}
  void probe(Fleet& fleet, double probe_s);
  double estimate() const;
  std::size_t probes() const { return visited_.size(); }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool generator_limited = false;  ///< a passing probe had material generator lag

 private:
  static constexpr std::size_t kSettle = 6;  ///< probes before the estimate counts
  double rate_;
  double step_ = 0.32;
  int last_ = 0;  ///< +1 pass, -1 miss, 0 none yet
  std::vector<double> visited_;
};

/// The post-stop gates: every acked run id stored exactly once, and a fresh
/// server replaying the journal holds every acked run id. Throws
/// CorrectnessError on a violation; returns a one-line summary.
std::string audit_fleet(Fleet& fleet);

}  // namespace perfbench
