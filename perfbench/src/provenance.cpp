#include "provenance.hpp"

#include <sched.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "fleet.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

}  // namespace

std::string filesystem_type(const std::string& path) {
  struct statfs fs{};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string provenance(const std::string& workload, std::uint64_t seed,
                       const std::string& journal_dir) {
  const char* rev = std::getenv("PERFBENCH_REVISION");
  std::string out;
  out += "provenance:\n";
  out += "  workload        " + workload + "\n";
  out += "  seed            " + std::to_string(seed) + "\n";
  out += "  nproc           " + std::to_string(std::thread::hardware_concurrency()) +
         " (usable " + std::to_string(usable_cpus()) + ")\n";
  out += "  cpu             " + cpu_model() + "\n";
  out += "  revision        " + std::string(rev != nullptr ? rev : "unknown") + "\n";
  out += "  compiler        " PERFBENCH_COMPILER "\n";
  out += "  build type      " PERFBENCH_BUILD_TYPE "\n";
  out += "  journal fs      " + filesystem_type(journal_dir) + "\n";
  out += "  server config   workers=" + std::to_string(kWorkers) +
         " shards=" + std::to_string(kShards) +
         " sample_batch=" + std::to_string(kSampleBatch) +
         " group_commit_max=" + std::to_string(kMaxBatch) +
         " group_commit_wait_us=" + std::to_string(kLingerUs) +
         " journal=fsync snapshots=off overload=off\n";
  out += "  generator       1 thread, " + std::to_string(kConnections) +
         " pipelined loopback connections, open loop (Poisson arrivals)\n";
  return out;
}

}  // namespace perfbench
