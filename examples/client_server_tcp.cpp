/// The full distributed loop over real TCP on localhost: the UUCS ingest
/// plane serving the wire protocol, and a client that registers, hot-syncs
/// a growing random sample of testcases, executes one of them with the real
/// exercisers (scaled down to two seconds), and uploads the result — the
/// complete §2 architecture in one process.

#include <cstdio>

#include "client/client.hpp"
#include "client/run_executor.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "testcase/suite.hpp"
#include "util/logging.hpp"

int main() {
  using namespace uucs;
  Logger::instance().set_level(LogLevel::kWarn);

  // --- server side ---------------------------------------------------------
  UucsServer server(2004, /*sample_batch=*/4);
  Rng suite_rng(7);
  for (int i = 0; i < 10; ++i) {
    // Short, gentle testcases so the live run stays quick.
    server.add_testcase(
        make_ramp_testcase(Resource::kCpu, 0.5 + 0.1 * i, 2.0, 10.0));
  }
  IngestServer ingest(server, {});
  std::printf("server listening on 127.0.0.1:%u with %zu testcases\n",
              ingest.port(), server.testcases().size());

  // --- client side ---------------------------------------------------------
  auto channel = TcpChannel::connect("127.0.0.1", ingest.port());
  RemoteServerApi api(*channel);

  UucsClient client(HostSpec::detect());
  client.ensure_registered(api);
  std::printf("client registered as %s\n", client.guid().to_string().c_str());

  std::printf("hot sync #1: %zu new testcases\n", client.hot_sync(api));
  const std::size_t second_batch = client.hot_sync(api);
  std::printf("hot sync #2: %zu new testcases (local store now %zu)\n",
              second_batch, client.testcases().size());

  // Local random choice + live execution of one downloaded testcase.
  const auto id = client.choose_testcase_id(client.rng());
  const Testcase& testcase = client.testcases().get(*id);
  std::printf("executing %s with the real exercisers...\n", testcase.id().c_str());

  RealClock clock;
  ExerciserConfig config;
  config.subinterval_s = 0.01;
  ExerciserSet exercisers(clock, config);
  ProgrammaticFeedback feedback;  // nobody presses it in this demo
  RunExecutor executor(clock, exercisers, feedback);
  RunRecord run = executor.execute(testcase, client.next_run_id(), "demo");
  std::printf("run finished: %s after %.1f s\n",
              run.discomforted ? "discomfort" : "exhausted", run.offset_s);

  client.record_result(std::move(run));
  client.hot_sync(api);
  channel->close();
  ingest.stop();
  std::printf("result uploaded; server now holds %zu results\n",
              server.results().size());
  return 0;
}
