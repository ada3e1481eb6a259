/// Robustness sweep: the server dispatcher must answer EVERY byte sequence
/// with a well-formed response ([error] for garbage) and never throw or
/// corrupt its state — a client cannot take the server down (§2's server
/// accepts connections from arbitrary Internet hosts). The server is
/// journaled, so every dispatch also checks admission's cheap peek: a
/// request that hands back journal entries must have been peeked as
/// write-class, or a degraded journal would let it through the write gate.

#include <gtest/gtest.h>

#include "server/protocol.hpp"
#include "testcase/suite.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace uucs {
namespace {

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ProtocolFuzz() : server_(GetParam()) {
    server_.attach_journal(dir_.file("server.journal"));
  }

  /// Dispatches `request`; fails the test if it produced journal entries
  /// without being write-class.
  std::string dispatch(const std::string& request) {
    const DispatchResult result = dispatch_request_deferred(server_, request);
    if (!result.journal_entries.empty()) {
      EXPECT_TRUE(peek_request(request).write_class) << request;
    }
    return result.response;
  }

  /// A registered client the fuzzed syncs can name.
  Guid register_client() {
    const auto records = kv_parse(
        dispatch(encode_register_request(HostSpec::paper_study_machine())));
    return Guid::parse(records.at(0).get("guid"));
  }

  TempDir dir_;
  UucsServer server_;
};

std::string random_bytes(Rng& rng, std::size_t max_len) {
  const auto n = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string s(n, '\0');
  for (auto& c : s) {
    // Printable-heavy mix with occasional control characters.
    c = rng.bernoulli(0.9)
            ? static_cast<char>(rng.uniform_int(32, 126))
            : static_cast<char>(rng.uniform_int(0, 31));
    if (c == '\0') c = ' ';
  }
  return s;
}

/// Mutates a valid request: flip, delete or insert characters.
std::string mutate(const std::string& base, Rng& rng) {
  std::string s = base;
  const int edits = static_cast<int>(rng.uniform_int(1, 8));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        s[pos] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:
        s.erase(pos, 1);
        break;
      default:
        s.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
        break;
    }
  }
  return s;
}

TEST_P(ProtocolFuzz, RandomBytesAlwaysGetAResponse) {
  server_.add_testcase(make_ramp_testcase(Resource::kCpu, 1.0, 10.0));
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::string request = random_bytes(rng, 512);
    std::string response;
    ASSERT_NO_THROW(response = dispatch(request)) << request;
    const auto records = kv_parse(response);  // response itself parses
    ASSERT_FALSE(records.empty());
    EXPECT_TRUE(records[0].type() == "error" ||
                records[0].type() == "register-response" ||
                records[0].type() == "sync-response");
  }
  // Server state intact after the barrage.
  EXPECT_EQ(server_.testcases().size(), 1u);
}

TEST_P(ProtocolFuzz, MutatedValidRequestsNeverCrash) {
  server_.add_testcase(make_ramp_testcase(Resource::kDisk, 2.0, 10.0));
  SyncRequest req;
  req.guid = register_client();
  const std::string valid = encode_sync_request(req);
  Rng rng(GetParam() ^ 0x777);
  for (int i = 0; i < 200; ++i) {
    std::string response;
    ASSERT_NO_THROW(response = dispatch(mutate(valid, rng)));
    ASSERT_FALSE(kv_parse(response).empty());
  }
}

TEST_P(ProtocolFuzz, MutatedUploadsAreWriteClassWheneverTheyStore) {
  // Uploads are where the peek can go wrong: an edit that breaks the
  // result_count key must not turn a stored upload into a read.
  server_.add_testcase(make_ramp_testcase(Resource::kDisk, 2.0, 10.0));
  SyncRequest req;
  req.guid = register_client();
  for (int i = 0; i < 2; ++i) {
    RunRecord r;
    r.run_id = "fuzz/" + std::to_string(i);
    r.testcase_id = "disk-ramp-x2-t10";
    r.task = "fuzz";
    req.results.push_back(r);
  }
  const std::string valid = encode_sync_request(req);
  Rng rng(GetParam() ^ 0x555);
  for (int i = 0; i < 400; ++i) {
    std::string response;
    ASSERT_NO_THROW(response = dispatch(mutate(valid, rng)));
    ASSERT_FALSE(kv_parse(response).empty());
  }
}

TEST_P(ProtocolFuzz, ValidRequestsStillWorkAfterFuzzing) {
  server_.add_testcase(make_ramp_testcase(Resource::kCpu, 1.0, 10.0));
  Rng rng(GetParam() ^ 0x999);
  for (int i = 0; i < 50; ++i) {
    dispatch(random_bytes(rng, 256));
  }
  const std::string response =
      dispatch(encode_register_request(HostSpec::paper_study_machine()));
  EXPECT_EQ(kv_parse(response).at(0).type(), "register-response");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace uucs
