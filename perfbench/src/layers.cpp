#include "layers.hpp"

#include <filesystem>
#include <future>
#include <stdexcept>

#include "metrics.hpp"
#include "monitor/sysinfo.hpp"
#include "server/event_loop.hpp"
#include "server/protocol.hpp"
#include "util/fs.hpp"
#include "util/journal.hpp"
#include "util/kvtext.hpp"

namespace perfbench {

namespace {

/// The request decode dispatch_request_deferred performs after its KvDoc
/// parse, written against the same public calls (Guid::parse,
/// RunRecord::from_kv) so it can sit in its own span.
uucs::SyncRequest decode_sync(const uucs::KvDoc& doc) {
  uucs::SyncRequest req;
  const auto head = doc.at(0);
  req.protocol_version = static_cast<std::uint32_t>(head.get_int_or("proto", 1));
  req.guid = uucs::Guid::parse(std::string(head.get("guid")));
  req.sync_seq = static_cast<std::uint64_t>(head.get_int_or("sync_seq", 0));
  const std::string_view known = head.has("known") ? head.get("known") : "";
  for (std::size_t b = 0; b <= known.size();) {
    const std::size_t e = std::min(known.find(',', b), known.size());
    if (e > b) req.known_testcase_ids.emplace_back(known.substr(b, e - b));
    b = e + 1;
  }
  for (std::size_t i = 1; i < doc.size(); ++i) {
    req.results.push_back(uucs::RunRecord::from_kv(doc.at(i)));
  }
  return req;
}

/// A server in the state the live fleet's server started from: catalog
/// loaded, the fleet's clients registered (the seeded GUID minting makes
/// them the same GUIDs), journal attached afterwards.
std::unique_ptr<uucs::UucsServer> twin_server(const FleetShape& shape, std::uint64_t seed,
                                              const ClientSet& clients,
                                              const std::string& journal_path) {
  auto server = std::make_unique<uucs::UucsServer>(seed, kSampleBatch, kShards);
  server->add_testcases(make_catalog(shape.join, seed));
  const uucs::HostSpec host = uucs::HostSpec::paper_study_machine();
  for (std::size_t i = 0; i < clients.guids.size(); ++i) {
    const std::string guid = server->register_client(host, 0.0, "twin-" + std::to_string(i)).to_string();
    if (clients.find(guid) < 0) throw CorrectnessError("twin server minted a GUID the fleet lacks");
  }
  server->attach_journal(journal_path);
  return server;
}

}  // namespace

LayerDrive drive_layers(const FleetShape& shape, std::uint64_t seed,
                        const ClientSet& clients, const Schedule& schedule,
                        const std::string& dir, Tracer& tracer) {
  std::filesystem::remove_all(dir);
  uucs::make_dirs(dir);
  auto chain_server = twin_server(shape, seed, clients, dir + "/chain.journal");
  auto ref_server = twin_server(shape, seed, clients, dir + "/reference.journal");
  uucs::GroupCommitJournal::Config commit;
  commit.max_batch_entries = kMaxBatch;
  commit.max_wait_us = kLingerUs;
  uucs::GroupCommitJournal committer(*chain_server->mutable_journal(), commit);

  uucs::FrameReader reader;
  uucs::KvDoc doc;
  std::string response;
  std::vector<std::string> entries;
  std::vector<double> reference_us;
  LayerDrive out;
  for (std::size_t idx = 0; idx < schedule.reqs.size(); ++idx) {
    const Schedule::Req& r = schedule.reqs[idx];
    const std::uint64_t rid = (schedule.phase_id << 32) | idx;
    const int root = tracer.begin("ingest.request", -1, rid);

    int s = tracer.begin("net.frame", root, rid);
    reader.feed(schedule.bytes.data() + r.off, r.len);
    std::string_view view;
    const bool framed = reader.next_view(view);
    tracer.end(s);
    if (!framed) throw CorrectnessError("FrameReader did not yield a seeded frame");

    s = tracer.begin("protocol.peek", root, rid);
    const uucs::RequestPeek peek = uucs::peek_request(view);
    tracer.end(s);
    if (peek.op != uucs::RequestPeek::Op::kSync || !peek.write_class) {
      throw CorrectnessError("peek_request misclassified an upload");
    }

    const int dispatch = tracer.begin("protocol.dispatch", root, rid);
    s = tracer.begin("kvtext.parse", dispatch, rid);
    doc.parse(view);
    const uucs::SyncRequest req = decode_sync(doc);
    tracer.end(s);
    s = tracer.begin("server.hot_sync", dispatch, rid);
    entries.clear();
    const uucs::SyncResponse resp = chain_server->hot_sync(req, &entries);
    tracer.end(s);
    s = tracer.begin("protocol.encode_response", dispatch, rid);
    response.clear();
    uucs::encode_sync_response_into(resp, response);
    tracer.end(s);
    tracer.end(dispatch);

    const std::vector<std::string> chain_entries = entries;
    s = tracer.begin("journal.commit", root, rid);
    std::promise<bool> durable;
    committer.append_async(std::move(entries), [&durable](bool ok) { durable.set_value(ok); });
    const bool ok = durable.get_future().get();
    tracer.end(s);
    tracer.end(root);
    if (!ok) throw CorrectnessError("group commit reported a failed batch");

    const std::int64_t t0 = now_ns();
    const uucs::DispatchResult ref = uucs::dispatch_request_deferred(*ref_server, view);
    reference_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (ref.response != response || ref.journal_entries != chain_entries) {
      throw CorrectnessError("layer chain diverges from dispatch_request_deferred");
    }
  }
  committer.flush();
  std::filesystem::remove_all(dir);
  out.requests = schedule.reqs.size();
  out.dispatch_deferred_us_p50 = median(reference_us);
  return out;
}

}  // namespace perfbench
