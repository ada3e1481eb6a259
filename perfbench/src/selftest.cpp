#include "selftest.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "util/guid.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(nearest_rank(v, 0.50) == 50, "p50 of 1..100 is 50");
  check(nearest_rank(v, 0.99) == 99, "p99 of 1..100 is 99");
  check(nearest_rank(v, 0.995) == 100, "p99.5 of 1..100 rounds up to 100");
  check(nearest_rank(v, 0.0) == 1, "p0 clamps to the first sample");
  check(nearest_rank({7.0}, 0.99) == 7.0, "single sample");
  check(nearest_rank({}, 0.5) == 0.0, "empty sample");
  // Ten samples beyond: p99 needs n - ceil(0.99 n) >= 10.
  check(ten_beyond(1000, 0.99), "p99 reportable at n=1000");
  check(!ten_beyond(999, 0.99), "p99 not reportable at n=999");
  check(ten_beyond(20, 0.5), "p50 reportable at n=20");
  check(!ten_beyond(19, 0.5), "p50 not reportable at n=19");
  const LatencySummary s = summarize(v);
  check(s.samples == 100 && s.p50 == 50 && s.p99 == 99 && !s.p99_ok,
        "summary of 1..100 flags p99 as unreportable");
  check(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median");
}

void test_schedule_determinism() {
  uucs::Rng rng(7);
  ClientSet clients;
  for (int i = 0; i < 16; ++i) clients.guids.push_back(uucs::Guid::generate(rng).to_string());
  std::sort(clients.guids.begin(), clients.guids.end());
  const std::vector<std::string> catalog = {"tc-a", "tc-b", "tc-c", "tc-d", "tc-e",
                                            "tc-f", "tc-g", "tc-h", "tc-i", "tc-j"};
  for (const char* workload : {"fleet_upload", "fleet_join"}) {
    const FleetShape shape = fleet_shape(workload);
    const Schedule a = make_schedule(shape, clients, catalog, 11, 3, 500.0, 0.2);
    const Schedule b = make_schedule(shape, clients, catalog, 11, 3, 500.0, 0.2);
    const Schedule c = make_schedule(shape, clients, catalog, 12, 3, 500.0, 0.2);
    const Schedule d = make_schedule(shape, clients, catalog, 11, 4, 500.0, 0.2);
    check(!a.reqs.empty(), "schedule has requests");
    check(a.bytes == b.bytes && a.reqs.size() == b.reqs.size(), "same seed, same bytes");
    bool same_times = a.reqs.size() == b.reqs.size();
    for (std::size_t i = 0; same_times && i < a.reqs.size(); ++i) {
      same_times = a.reqs[i].due_ns == b.reqs[i].due_ns && a.reqs[i].client == b.reqs[i].client;
    }
    check(same_times, "same seed, same arrival schedule");
    check(a.bytes != c.bytes, "different seed, different bytes");
    check(a.bytes != d.bytes, "different phase, different bytes");
    bool uploads = true;
    for (const auto& r : a.reqs) uploads = uploads && r.records >= 1;
    check(uploads, "every sync uploads at least one record");
  }
}

void test_metric_names() {
  check(valid_metric_name("light.ack_p50_ms"), "dotted name is valid");
  check(valid_metric_name("setup_s") && valid_metric_name("9lives"), "plain names are valid");
  check(!valid_metric_name(""), "empty name is invalid");
  check(!valid_metric_name("_lead"), "leading underscore is invalid");
  check(!valid_metric_name(".lead"), "leading dot is invalid");
  check(!valid_metric_name("has space"), "space is invalid");
  check(valid_metric_name(std::string(64, 'a')), "64 characters is valid");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters is invalid");
  check(valid_unit("ms") && valid_unit("1/s") && valid_unit("%") && valid_unit("count"),
        "common units are valid");
  check(!valid_unit("") && !valid_unit(std::string(17, 'u')) && !valid_unit("m s"),
        "bad units are invalid");
  MetricTable t;
  t.set("a.b", 1.5, "ms", 10);
  bool threw = false;
  try {
    t.set("a.b", 2.0, "ms");
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "duplicate metric name is rejected");
  check(t.json() == "{\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}}", "metric JSON");
}

void test_self_times() {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},    // overlaps a: the union counts once
      {"c", 60, 70, 0, 1},
      {"d", 90, 120, 0, 1},   // runs past its parent: clipped to 90..100
      {"a.child", 12, 18, 1, 1},
  };
  const auto self = self_times_ns(spans);
  check(self[0] == 100 - 40 - 10 - 10, "root self time excludes the union of children");
  check(self[1] == 20 - 6, "a's self time excludes its own child only");
  check(self[2] == 30 && self[3] == 10 && self[4] == 30, "leaves keep their full duration");
  check(self[5] == 6, "grandchild self time");
  const auto by_name = self_times_by_name_us(spans);
  check(by_name.at("root").size() == 1 && by_name.at("root")[0] == 0.04, "self times by name in us");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  test_percentiles();
  test_schedule_determinism();
  test_metric_names();
  test_self_times();
  return failures;
}

}  // namespace perfbench
