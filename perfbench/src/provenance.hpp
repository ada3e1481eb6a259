#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Name of the filesystem holding `path` (statfs magic), e.g. "ext4".
std::string filesystem_type(const std::string& path);

/// The provenance block every run prints: host (nproc, CPU model), source
/// revision, compiler and build type, the journal's filesystem, the ingest
/// server configuration and the seed.
std::string provenance(const std::string& workload, std::uint64_t seed,
                       const std::string& journal_dir);

}  // namespace perfbench
