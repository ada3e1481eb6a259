#include "fleet.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <unordered_map>
#include <unordered_set>

#include "metrics.hpp"
#include "monitor/sysinfo.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "study/controlled_study.hpp"
#include "testcase/suite.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/rng_streams.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kPhaseShift = 20;  ///< serials: phase << 20 | count

double cpu_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t pending_key(std::uint32_t client, std::uint32_t serial0) {
  return (static_cast<std::uint64_t>(client) << 32) | serial0;
}

std::uint32_t parse_u32(std::string_view s) {
  std::uint32_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) {
    throw CorrectnessError("malformed run id serial '" + std::string(s) + "'");
  }
  return v;
}

const char* const kTaskNames[] = {"word", "powerpoint", "ie", "quake"};

}  // namespace

HostCpu HostCpu::read() {
  HostCpu out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) out.total += x;
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

double HostCpu::steal_since(const HostCpu& before) const {
  if (total <= before.total) return 0.0;
  return static_cast<double>(steal - before.steal) / static_cast<double>(total - before.total);
}

FleetShape fleet_shape(const std::string& workload) {
  // Rates are fixed numbers, never derived from a measurement: `nominal` is
  // about half of the sustained rate measured on the reference host (4-core
  // Xeon) when the benchmark was defined, `light` low enough that the 500 us
  // group-commit linger and the fsync dominate each ack.
  if (workload == "fleet_upload") {
    return {"fleet_upload", false, 4096, 1000.0, 14000.0, 100.0};
  }
  if (workload == "fleet_join") {
    return {"fleet_join", true, 4096, 600.0, 3000.0, 100.0};
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

long ClientSet::find(std::string_view guid) const {
  const auto it = std::lower_bound(guids.begin(), guids.end(), guid);
  if (it == guids.end() || *it != guid) return -1;
  return it - guids.begin();
}

std::string run_id(const ClientSet& clients, std::uint32_t client, std::uint32_t serial) {
  return clients.guids[client] + "/" + std::to_string(serial);
}

uucs::TestcaseStore make_catalog(bool join, std::uint64_t seed) {
  if (join) {
    uucs::Rng rng = uucs::Rng(seed).fork(uucs::streams::kInternetSuite);
    return uucs::generate_internet_suite(uucs::SuiteSpec{}, rng);
  }
  // Mature clients hold the whole (small) controlled-study catalog.
  uucs::TestcaseStore store;
  for (const auto task : uucs::sim::kAllTasks) {
    store.merge(uucs::study::controlled_study_testcases(task));
  }
  return store;
}

Schedule make_schedule(const FleetShape& shape, const ClientSet& clients,
                       const std::vector<std::string>& catalog_ids,
                       std::uint64_t seed, std::uint64_t phase_id, double rate,
                       double duration_s) {
  Schedule s;
  s.phase_id = phase_id;
  s.knows_catalog = !shape.join;
  uucs::Rng rng = uucs::Rng(seed).fork(0x5eed0000ull + phase_id);
  const std::size_t n_clients = clients.guids.size();
  std::vector<std::uint32_t> syncs_of(n_clients, 0), records_of(n_clients, 0);
  const std::uint32_t phase_base = static_cast<std::uint32_t>(phase_id) << kPhaseShift;

  uucs::SyncRequest req;
  req.protocol_version = uucs::kProtocolVersionMax;
  std::string payload;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(1.0 / rate);
    if (t >= duration_s) break;
    Schedule::Req r;
    r.due_ns = static_cast<std::int64_t>(t * 1e9);
    r.client = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_clients) - 1));
    // §4: a run every 2 h on average between 12 h syncs -> ~6 records per
    // upload; a fresh client has run one testcase when it first syncs.
    r.records = shape.join ? 1 : 1 + static_cast<std::uint32_t>(rng.poisson(5.0));
    r.serial0 = phase_base + records_of[r.client];
    records_of[r.client] += r.records;
    const std::string& guid = clients.guids[r.client];

    req.guid = uucs::Guid::parse(guid);
    req.sync_seq = phase_base + ++syncs_of[r.client];
    req.known_testcase_ids.clear();
    if (shape.join) {
      // A fresh client already holds a handful of testcases; the reply must
      // bring only ones it does not have.
      r.known_off = static_cast<std::uint32_t>(s.known.size());
      const auto k = rng.uniform_int(0, 8);
      for (std::int64_t i = 0; i < k; ++i) {
        const auto idx = static_cast<std::uint32_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(catalog_ids.size()) - 1));
        if (std::find(s.known.begin() + r.known_off, s.known.end(), idx) != s.known.end()) {
          continue;
        }
        s.known.push_back(idx);
        req.known_testcase_ids.push_back(catalog_ids[idx]);
      }
      r.known_len = static_cast<std::uint32_t>(s.known.size()) - r.known_off;
    } else {
      req.known_testcase_ids = catalog_ids;
    }
    req.results.resize(r.records);
    for (std::uint32_t j = 0; j < r.records; ++j) {
      uucs::RunRecord& rec = req.results[j];
      rec = uucs::RunRecord{};
      rec.run_id = guid + "/" + std::to_string(r.serial0 + j);
      rec.client_guid = guid;
      rec.testcase_id = catalog_ids[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(catalog_ids.size()) - 1))];
      rec.task = kTaskNames[rng.uniform_int(0, 3)];
      rec.discomforted = rng.bernoulli(0.3);
      rec.offset_s = rng.uniform(0.0, 120.0);
      std::vector<double> levels(5);
      for (double& v : levels) v = rng.uniform(0.0, 2.0);
      rec.set_last_levels(uucs::Resource::kCpu, std::move(levels));
    }
    payload.clear();
    uucs::encode_sync_request_into(req, payload);
    r.off = s.bytes.size();
    uucs::TcpChannel::frame_header_into(s.bytes, payload.size());
    s.bytes += payload;
    r.len = s.bytes.size() - r.off;
    s.reqs.push_back(r);
  }
  return s;
}

// --- generator --------------------------------------------------------------

Generator::Fd::~Fd() {
  if (fd >= 0) ::close(fd);
}

struct Generator::Conn {
  std::size_t index = 0;
  Fd fd;
  bool dead = false;
  bool want_out = false;
  uucs::FrameReader reader;
  std::string out;
  std::size_t off = 0;
};

Generator::Generator(std::uint16_t port, const std::vector<std::string>& catalog_ids)
    : epfd_(::epoll_create1(EPOLL_CLOEXEC)), catalog_ids_(catalog_ids) {
  std::sort(catalog_ids_.begin(), catalog_ids_.end());
  if (epfd_.fd < 0) throw std::runtime_error("epoll_create1 failed");
  for (std::size_t i = 0; i < kConnections; ++i) {
    auto c = std::make_unique<Conn>();
    c->index = i;
    c->fd.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c->fd.fd < 0) throw std::runtime_error("socket failed");
    int one = 1;
    ::setsockopt(c->fd.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c->fd.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error(std::string("connect failed: ") + std::strerror(errno));
    }
    if (::fcntl(c->fd.fd, F_SETFL, O_NONBLOCK) != 0) throw std::runtime_error("fcntl failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (::epoll_ctl(epfd_.fd, EPOLL_CTL_ADD, c->fd.fd, &ev) != 0) {
      throw std::runtime_error("epoll_ctl failed");
    }
    conns_.push_back(std::move(c));
  }
}

Generator::~Generator() = default;

void Generator::watch(Conn& c, bool want_out) {
  if (c.want_out == want_out || c.dead) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.u64 = c.index;
  ::epoll_ctl(epfd_.fd, EPOLL_CTL_MOD, c.fd.fd, &ev);
  c.want_out = want_out;
}

void Generator::drop(Conn& c) {
  if (c.dead) return;
  c.dead = true;
  ::epoll_ctl(epfd_.fd, EPOLL_CTL_DEL, c.fd.fd, nullptr);
}

void Generator::flush(Conn& c) {
  while (!c.dead && c.off < c.out.size()) {
    const ssize_t n =
        ::send(c.fd.fd, c.out.data() + c.off, c.out.size() - c.off, MSG_NOSIGNAL);
    if (n > 0) {
      c.off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      drop(c);
    }
  }
  if (c.off == c.out.size()) {
    c.out.clear();
    c.off = 0;
  } else if (c.off > (1u << 20)) {
    c.out.erase(0, c.off);
    c.off = 0;
  }
  watch(c, c.off < c.out.size());
}

ClientSet Generator::register_clients(std::size_t n, std::uint64_t seed) {
  const std::string sentinel = "@NONCE@";
  const std::string full = uucs::encode_register_request(
      uucs::HostSpec::paper_study_machine(), sentinel, uucs::kProtocolVersionMax);
  const std::size_t at = full.find(sentinel);
  std::string payload;
  for (std::size_t i = 0; i < n; ++i) {
    payload = full.substr(0, at) + "perfbench-" + std::to_string(seed) + "-" +
              std::to_string(i) + full.substr(at + sentinel.size());
    Conn& c = *conns_[i % kConnections];
    uucs::TcpChannel::frame_header_into(c.out, payload.size());
    c.out += payload;
  }
  ClientSet set;
  const std::int64_t deadline = now_ns() + 60'000'000'000ll;
  epoll_event events[16];
  char buf[1 << 16];
  for (auto& c : conns_) flush(*c);
  while (set.guids.size() < n) {
    if (now_ns() > deadline) throw std::runtime_error("registration timed out");
    const int nev = ::epoll_wait(epfd_.fd, events, 16, 1000);
    for (int e = 0; e < nev; ++e) {
      Conn& c = *conns_[events[e].data.u64];
      if (events[e].events & EPOLLOUT) flush(c);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      for (;;) {
        const ssize_t got = ::recv(c.fd.fd, buf, sizeof(buf), 0);
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) throw std::runtime_error("server closed a connection during registration");
        c.reader.feed(buf, static_cast<std::size_t>(got));
        std::string_view frame;
        while (c.reader.next_view(frame)) {
          doc_.parse(frame);
          if (doc_.empty() || doc_.at(0).type() != "register-response") {
            throw std::runtime_error("registration refused: " + std::string(frame.substr(0, 200)));
          }
          set.guids.emplace_back(doc_.at(0).get("guid"));
        }
      }
    }
  }
  std::sort(set.guids.begin(), set.guids.end());
  if (std::adjacent_find(set.guids.begin(), set.guids.end()) != set.guids.end()) {
    throw CorrectnessError("server minted a duplicate GUID");
  }
  return set;
}

PhaseResult Generator::run(const Schedule& schedule, const ClientSet& clients,
                           double drain_s, const std::function<void()>& sample,
                           Tracer* tracer) {
  PhaseResult res;
  const std::size_t n = schedule.reqs.size();
  res.attempted = n;
  std::vector<std::int64_t> sent_ns(n, 0);
  std::unordered_map<std::uint64_t, std::uint32_t> pending;
  pending.reserve(n * 2 + 16);
  res.latency_ms.reserve(n);
  res.gen_lag_ms.reserve(n);
  const std::uint32_t phase_base = static_cast<std::uint32_t>(schedule.phase_id) << kPhaseShift;
  const std::uint32_t phase_mask = ~((1u << kPhaseShift) - 1);

  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double gcpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t start = now_ns() + 1'000'000;
  const auto drain_ns = static_cast<std::int64_t>(drain_s * 1e9);
  std::int64_t window_end = 0;
  std::int64_t last_sample = start;
  std::size_t next = 0, outstanding = 0;
  std::vector<char> dirty(conns_.size(), 0);
  epoll_event events[16];
  static thread_local std::vector<char> buf(1 << 18);
  std::vector<std::string_view> stored_ids;
  std::vector<std::string_view> tc_ids;

  auto handle = [&](std::string_view frame, std::int64_t now) {
    res.response_bytes += frame.size();
    try {
      doc_.parse(frame);
    } catch (const std::exception& e) {
      throw CorrectnessError(std::string("unparseable reply: ") + e.what());
    }
    if (doc_.empty()) throw CorrectnessError("empty reply");
    const auto head = doc_.at(0);
    if (head.type() == "error") {
      ++res.errors;
      return;
    }
    if (head.type() != "sync-response") {
      throw CorrectnessError("unexpected reply type '" + std::string(head.type()) + "'");
    }
    const std::string_view stored = head.get("stored");
    stored_ids.clear();
    for (std::size_t b = 0; b <= stored.size();) {
      const std::size_t e = std::min(stored.find(',', b), stored.size());
      if (e > b) stored_ids.push_back(stored.substr(b, e - b));
      b = e + 1;
    }
    if (stored_ids.empty()) throw CorrectnessError("sync reply acks no run id");
    const std::string_view first = stored_ids.front();
    const std::size_t slash = first.rfind('/');
    if (slash == std::string_view::npos) throw CorrectnessError("malformed run id");
    const long client = clients.find(first.substr(0, slash));
    if (client < 0) throw CorrectnessError("reply acks a run id of an unknown client");
    const std::uint32_t serial0 = parse_u32(first.substr(slash + 1));
    const auto it = pending.find(pending_key(static_cast<std::uint32_t>(client), serial0));
    if (it == pending.end()) {
      if ((serial0 & phase_mask) != phase_base) {
        ++res.late_replies;
        return;
      }
      throw CorrectnessError("reply acks run ids no pending request uploaded");
    }
    const std::uint32_t idx = it->second;
    const Schedule::Req& r = schedule.reqs[idx];
    // Exactly what the request uploaded, in upload order, each stored new.
    if (stored_ids.size() != r.records ||
        head.get_int("accepted_results") != static_cast<std::int64_t>(r.records) ||
        head.get_int("duplicate_results") != 0) {
      throw CorrectnessError(
          "ack does not match the uploaded records: uploaded " + std::to_string(r.records) +
          ", acked " + std::to_string(stored_ids.size()) + " (accepted " +
          std::to_string(head.get_int("accepted_results")) + ", duplicate " +
          std::to_string(head.get_int("duplicate_results")) + ")");
    }
    for (std::uint32_t j = 0; j < r.records; ++j) {
      const std::string_view id = stored_ids[j];
      const std::string_view guid = clients.guids[r.client];
      if (id.size() <= guid.size() || id.substr(0, guid.size()) != guid ||
          id[guid.size()] != '/' || parse_u32(id.substr(guid.size() + 1)) != r.serial0 + j) {
        throw CorrectnessError("ack lists a run id the request did not upload");
      }
    }
    // Testcase hand-out: only testcases the client does not hold yet.
    const std::size_t n_tc = doc_.size() - 1;
    if (head.get_int("testcase_count") != static_cast<std::int64_t>(n_tc)) {
      throw CorrectnessError("testcase_count does not match the reply");
    }
    const std::size_t fresh =
        schedule.knows_catalog ? 0 : catalog_ids_.size() - r.known_len;
    if (n_tc != std::min(kSampleBatch, fresh)) {
      throw CorrectnessError("reply hands out " + std::to_string(n_tc) +
                             " testcases, expected " +
                             std::to_string(std::min(kSampleBatch, fresh)));
    }
    tc_ids.clear();
    for (std::size_t k = 1; k < doc_.size(); ++k) {
      const std::string_view id = doc_.at(k).get("id");
      if (!std::binary_search(catalog_ids_.begin(), catalog_ids_.end(), id)) {
        throw CorrectnessError("reply hands out a testcase outside the catalog");
      }
      for (std::uint32_t q = 0; q < r.known_len; ++q) {
        if (catalog_ids_[schedule.known[r.known_off + q]] == id) {
          throw CorrectnessError("reply hands out a testcase the client already has");
        }
      }
      tc_ids.push_back(id);
    }
    std::sort(tc_ids.begin(), tc_ids.end());
    if (std::adjacent_find(tc_ids.begin(), tc_ids.end()) != tc_ids.end()) {
      throw CorrectnessError("reply hands out the same testcase twice");
    }

    const std::int64_t due = start + r.due_ns;
    res.latency_ms.push_back(static_cast<double>(now - due) / 1e6);
    if (tracer != nullptr) {
      const std::uint64_t rid = (schedule.phase_id << 32) | idx;
      const int root = tracer->add("client.sync", due, now, -1, rid);
      tracer->add("client.send", due, sent_ns[idx], root, rid);
      tracer->add("client.ack", sent_ns[idx], now, root, rid);
    }
    acked_.push_back({static_cast<std::uint32_t>(r.client), r.serial0, r.records});
    pending.erase(it);
    --outstanding;
    ++res.acked;
  };

  for (;;) {
    std::int64_t now = now_ns();
    while (next < n && start + schedule.reqs[next].due_ns <= now) {
      const Schedule::Req& r = schedule.reqs[next];
      const std::size_t ci = r.client % kConnections;
      Conn& c = *conns_[ci];
      if (!c.dead) {
        c.out.append(schedule.bytes, r.off, r.len);
        dirty[ci] = 1;
      }
      res.request_bytes += r.len;
      sent_ns[next] = now;
      res.gen_lag_ms.push_back(static_cast<double>(now - (start + r.due_ns)) / 1e6);
      pending.emplace(pending_key(r.client, r.serial0), static_cast<std::uint32_t>(next));
      ++outstanding;
      ++next;
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!dirty[i]) continue;
      dirty[i] = 0;
      flush(*conns_[i]);
    }
    if (next == n && window_end == 0) {
      window_end = now;
      res.outstanding_at_window_end = outstanding;
    }
    if (next == n && outstanding == 0) break;
    if (window_end != 0 && now - window_end > drain_ns) break;
    if (sample && now - last_sample >= 1'000'000) {
      sample();
      last_sample = now;
    }

    std::int64_t wake = next < n ? start + schedule.reqs[next].due_ns : now + 2'000'000;
    if (sample) wake = std::min(wake, last_sample + 1'000'000);
    const std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now);
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int nev = ::epoll_pwait2(epfd_.fd, events, 16, &ts, nullptr);
    if (nev < 0 && errno != EINTR) throw std::runtime_error("epoll_pwait2 failed");
    for (int e = 0; e < nev; ++e) {
      Conn& c = *conns_[events[e].data.u64];
      if (c.dead) continue;
      if (events[e].events & EPOLLOUT) flush(c);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      while (!c.dead) {
        const ssize_t got = ::recv(c.fd.fd, buf.data(), buf.size(), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) {
          drop(c);
          break;
        }
        c.reader.feed(buf.data(), static_cast<std::size_t>(got));
        now = now_ns();
        std::string_view frame;
        while (c.reader.next_view(frame)) handle(frame, now);
        if (static_cast<std::size_t>(got) < buf.size()) break;
      }
    }
  }
  res.timeouts = outstanding - std::min(outstanding, res.errors);
  res.process_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  res.gen_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - gcpu0;
  return res;
}

// --- fleet ------------------------------------------------------------------

Fleet::~Fleet() { stop(); }

void Fleet::stop() {
  if (gen) {
    acked = std::move(gen->acked());
    gen.reset();
  }
  if (ingest) ingest->stop();
}

std::unique_ptr<Fleet> setup_fleet(const FleetShape& shape, std::uint64_t seed,
                                   const std::string& dir, std::uint64_t first_phase) {
  auto fleet = std::make_unique<Fleet>();
  fleet->shape = shape;
  fleet->next_phase = first_phase;
  fleet->seed = seed;
  fleet->dir = dir;
  uucs::make_dirs(dir);

  const std::int64_t c0 = now_ns();
  const uucs::TestcaseStore catalog = make_catalog(shape.join, seed);
  fleet->suite_gen_s = static_cast<double>(now_ns() - c0) / 1e9;
  fleet->catalog_ids = catalog.ids();

  fleet->server = std::make_unique<uucs::UucsServer>(seed, kSampleBatch, kShards);
  fleet->server->add_testcases(catalog);
  fleet->server->attach_journal(dir + "/server.journal");
  uucs::IngestServer::Config config;
  config.loop.port = 0;
  config.loop.workers = kWorkers;
  config.loop.idle_timeout_s = 900.0;
  config.commit.max_batch_entries = kMaxBatch;
  config.commit.max_wait_us = kLingerUs;
  config.state_dir = dir;
  fleet->ingest = std::make_unique<uucs::IngestServer>(*fleet->server, config);
  fleet->gen = std::make_unique<Generator>(fleet->ingest->port(), fleet->catalog_ids);
  fleet->clients = fleet->gen->register_clients(shape.clients, seed);

  // Warm-up: every client-side and server-side cache, arena and thread-local
  // parse buffer reaches steady state before anything is timed.
  const PhaseResult warm = run_phase(*fleet, shape.nominal_rate, 0.25, false, nullptr);
  if (warm.failed() != 0) {
    throw std::runtime_error("warm-up lost " + std::to_string(warm.failed()) + " syncs");
  }
  return fleet;
}

PhaseResult run_phase(Fleet& fleet, double rate, double duration_s,
                      bool sample_inflight, Tracer* tracer, Schedule* keep_schedule) {
  Schedule schedule = make_schedule(fleet.shape, fleet.clients, fleet.catalog_ids,
                                    fleet.seed, fleet.next_phase++, rate, duration_s);
  std::function<void()> sampler;
  double inflight_sum = 0.0;
  std::size_t inflight_n = 0;
  if (sample_inflight) {
    sampler = [&] {
      inflight_sum += static_cast<double>(fleet.ingest->loop_stats().inflight);
      ++inflight_n;
    };
  }
  const HostCpu host0 = HostCpu::read();
  PhaseResult res = fleet.gen->run(schedule, fleet.clients, 5.0, sampler, tracer);
  res.steal_frac = HostCpu::read().steal_since(host0);
  res.inflight_sum = inflight_sum;
  res.inflight_samples = inflight_n;
  if (keep_schedule != nullptr) *keep_schedule = std::move(schedule);
  return res;
}

void SustainedSearch::probe(Fleet& fleet, double probe_s) {
  const FleetShape& shape = fleet.shape;
  const PhaseResult r = run_phase(fleet, rate_, probe_s, false, nullptr);
  attempted += r.attempted;
  failed += r.failed();
  const LatencySummary lat = summarize(r.latency_ms);
  // No growing backlog: by Little's law a server keeping up holds fewer than
  // rate x limit requests when the sending window closes.
  const double backlog_cap = rate_ * shape.p99_limit_ms / 1e3 + 16.0;
  const bool pass = r.failed() == 0 && lat.p99 <= shape.p99_limit_ms &&
                    static_cast<double>(r.outstanding_at_window_end) <= backlog_cap;
  if (pass && summarize(r.gen_lag_ms).p99 > 0.1 * shape.p99_limit_ms) {
    generator_limited = true;
  }
  visited_.push_back(rate_);
  const int dir = pass ? 1 : -1;
  if (last_ != 0 && dir != last_) step_ = std::max(step_ / 2.0, 0.02);
  last_ = dir;
  rate_ = pass ? rate_ * (1.0 + step_) : rate_ / (1.0 + step_);
}

double SustainedSearch::estimate() const {
  if (visited_.size() <= kSettle) return visited_.empty() ? rate_ : visited_.back();
  return median(std::vector<double>(visited_.begin() + kSettle, visited_.end()));
}

std::string audit_fleet(Fleet& fleet) {
  fleet.stop();
  std::size_t acked_records = 0;
  for (const AckedUpload& a : fleet.acked) acked_records += a.records;
  const std::size_t stored_count = fleet.server->results().size();

  // Exactly once: no run id is stored twice, and every acked one is stored.
  std::unordered_set<std::uint64_t> stored;
  stored.reserve(stored_count * 2);
  for (const uucs::RunRecord& rec : fleet.server->results().records()) {
    const std::size_t slash = rec.run_id.rfind('/');
    const long client = slash == std::string::npos
                            ? -1
                            : fleet.clients.find(std::string_view(rec.run_id).substr(0, slash));
    if (client < 0) throw CorrectnessError("stored run id of no fleet client: " + rec.run_id);
    const std::uint32_t serial = parse_u32(std::string_view(rec.run_id).substr(slash + 1));
    if (!stored.insert(pending_key(static_cast<std::uint32_t>(client), serial)).second) {
      throw CorrectnessError("run id stored twice: " + rec.run_id);
    }
  }
  for (const AckedUpload& a : fleet.acked) {
    for (std::uint32_t j = 0; j < a.records; ++j) {
      if (stored.count(pending_key(a.client, a.serial0 + j)) == 0) {
        throw CorrectnessError("acked run id not stored: " +
                               run_id(fleet.clients, a.client, a.serial0 + j));
      }
    }
  }

  // Durability: a fresh server replaying the journal holds every acked id.
  // The live server goes first so the two never hold the records at once.
  fleet.ingest.reset();
  fleet.server.reset();
  uucs::UucsServer replay(fleet.seed, kSampleBatch, kShards);
  replay.attach_journal(fleet.dir + "/server.journal");
  if (replay.client_count() != fleet.clients.guids.size()) {
    throw CorrectnessError("journal replay lost registrations");
  }
  for (const AckedUpload& a : fleet.acked) {
    for (std::uint32_t j = 0; j < a.records; ++j) {
      const std::string id = run_id(fleet.clients, a.client, a.serial0 + j);
      if (!replay.has_result(id)) throw CorrectnessError("acked run id not durable: " + id);
    }
  }
  return std::to_string(fleet.acked.size()) + " acked syncs, " +
         std::to_string(acked_records) + " acked run ids: each stored exactly once (" +
         std::to_string(stored_count) + " stored), all " +
         "recovered by a journal replay";
}

}  // namespace perfbench
