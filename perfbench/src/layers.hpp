#pragma once

// The traced single-threaded layer drive: the same seeded request bytes the
// generator sent are pushed, one at a time, through the public calls of each
// ingest layer, with a span around every call.

#include <cstdint>
#include <string>

#include "fleet.hpp"
#include "trace.hpp"

namespace perfbench {

struct LayerDrive {
  std::size_t requests = 0;
  double dispatch_deferred_us_p50 = 0.0;  ///< the real dispatch_request_deferred
};

/// Replays `schedule` (built for `clients` of a fleet of `shape`) through
/// FrameReader -> peek_request -> KvDoc parse + decode -> hot_sync ->
/// encode_sync_response_into under a protocol.dispatch parent span, then
/// GroupCommitJournal::append_async until its durability callback fires.
/// A twin server runs dispatch_request_deferred on the same bytes; its
/// response and journal entries must match the layer chain's byte for byte
/// (CorrectnessError otherwise).
LayerDrive drive_layers(const FleetShape& shape, std::uint64_t seed,
                        const ClientSet& clients, const Schedule& schedule,
                        const std::string& dir, Tracer& tracer);

}  // namespace perfbench
