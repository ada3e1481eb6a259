#include <fcntl.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "exerciser/exerciser.hpp"
#include "exerciser/playback.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace uucs {

namespace {

constexpr std::size_t kMinFileBytes = 1u << 20;

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { close_now(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      close_now();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

 private:
  void close_now() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
};

/// Disk exerciser (§2.2): identical playback structure to the CPU
/// exerciser, but the busy operation is a random seek in a large backing
/// file followed by a write of a random amount of data, forced write-through
/// (O_SYNC) so contention reaches the device rather than the buffer cache.
/// The paper sizes the file at 2x physical memory for the same reason; the
/// configured size is a knob so small build hosts can run it.
///
/// Host-safety: the exerciser is a guest on someone's machine, so it
///  * reclaims scratch files leaked by dead clients before creating its own;
///  * checks free space first and shrinks the backing file (a degradation,
///    not an error) to preserve cfg.disk_min_free_bytes for the host;
///  * unlinks the backing file right after opening it (cfg.unlink_scratch)
///    so even SIGKILL cannot leak disk space;
///  * absorbs ENOSPC/EIO on individual writes with a growing backoff
///    instead of crashing the run — the run completes kDegraded.
/// Other write errors still throw (surfaced as kFailed by the supervisor).
class DiskExerciser final : public ResourceExerciser {
 public:
  DiskExerciser(Clock& clock, const ExerciserConfig& cfg)
      : clock_(clock),
        cfg_(cfg),
        engine_(clock, cfg,
                [this](double deadline, unsigned worker) { busy(deadline, worker); }) {
  }

  ~DiskExerciser() override {
    for (auto& f : files_) f = Fd();
    if (!path_.empty() && !unlinked_) ::unlink(path_.c_str());
  }

  Resource resource() const override { return Resource::kDisk; }

  double run(const ExerciseFunction& f) override {
    ensure_file();
    return engine_.run(f);
  }

  void stop() override { engine_.stop(); }

  void reset() override {
    engine_.reset();
    std::lock_guard<std::mutex> lock(deg_mu_);
    degradation_ = {};
    if (file_shrunk_) {
      // The shrunk file persists across runs; keep reporting it.
      degradation_.events = 1;
      degradation_.detail = shrink_detail_;
    }
  }

  Degradation degradation() const override {
    std::lock_guard<std::mutex> lock(deg_mu_);
    return degradation_;
  }

  /// Total bytes written so far (observable progress for tests/probes).
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  void note_degradation(const std::string& detail) {
    std::lock_guard<std::mutex> lock(deg_mu_);
    ++degradation_.events;
    degradation_.detail = detail;
  }

  /// Free bytes on the volume holding `dir`; nullopt if statvfs fails.
  static std::optional<std::uint64_t> free_bytes(const std::string& dir) {
    struct statvfs vfs;
    if (::statvfs(dir.c_str(), &vfs) != 0) return std::nullopt;
    return static_cast<std::uint64_t>(vfs.f_bavail) *
           static_cast<std::uint64_t>(vfs.f_frsize);
  }

  void ensure_file() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!path_.empty()) return;

    reclaim_stale_scratch_files(cfg_.disk_dir);

    // Size the file to what the volume can spare: the host keeps at least
    // disk_min_free_bytes at all times. Shrinking is a degradation the run
    // reports; an unusably small allowance is an error.
    std::size_t want = cfg_.disk_file_bytes;
    if (const auto free = free_bytes(cfg_.disk_dir)) {
      const std::uint64_t reserve = cfg_.disk_min_free_bytes;
      const std::uint64_t sparable = *free > reserve ? *free - reserve : 0;
      if (sparable < want) {
        want = static_cast<std::size_t>(sparable);
      }
    }
    want = std::max(want, std::min(cfg_.disk_file_bytes, kMinFileBytes));

    std::string path = cfg_.disk_dir + "/uucs-disk-exerciser-" +
                       std::to_string(::getpid()) + ".dat";
    Fd create(::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0600));
    if (!create.valid()) {
      throw SystemError("create " + path + ": " + std::strerror(errno));
    }
    // ENOSPC while materializing the file also shrinks it, down to the
    // 1 MiB floor; anything less means the volume genuinely has no room
    // for borrowing and the run must fail rather than fill the disk.
    while (::ftruncate(create.get(), static_cast<off_t>(want)) != 0) {
      if (errno == ENOSPC && want / 2 >= kMinFileBytes) {
        want /= 2;
        continue;
      }
      const int saved = errno;
      ::unlink(path.c_str());
      throw SystemError("ftruncate " + path + ": " + std::strerror(saved));
    }
    if (want < cfg_.disk_file_bytes) {
      file_shrunk_ = true;
      shrink_detail_ = strprintf("backing file shrunk to %zu bytes to preserve host free space",
                                 want);
      note_degradation(shrink_detail_);
    }
    // One write-through descriptor per worker so workers do not serialize on
    // a shared file offset.
    files_.resize(cfg_.max_threads);
    for (auto& fd : files_) {
      fd = Fd(::open(path.c_str(), O_RDWR | O_SYNC));
      if (!fd.valid()) {
        const int saved = errno;
        ::unlink(path.c_str());
        files_.clear();
        throw SystemError("open " + path + ": " + std::strerror(saved));
      }
    }
    if (cfg_.unlink_scratch) {
      // With the descriptors open the kernel keeps the blocks alive; the
      // name disappears now, so no crash — even SIGKILL — can leak scratch.
      unlinked_ = ::unlink(path.c_str()) == 0;
    }
    file_bytes_ = want;
    path_ = std::move(path);
  }

  /// Sleeps up to `seconds` in subinterval slices, returning early at the
  /// deadline or on stop, so backoff never blunts stop-responsiveness.
  void backoff_sleep(double seconds, double deadline) {
    const double until = std::min(clock_.now() + seconds, deadline);
    while (!engine_.stop_requested()) {
      const double now = clock_.now();
      if (now >= until) break;
      clock_.sleep(std::min(cfg_.subinterval_s, until - now));
    }
  }

  void busy(double deadline, unsigned worker) {
    thread_local Rng rng(cfg_.seed ^ (0x9e37ULL * (worker + 1)));
    std::vector<char> buf(cfg_.disk_max_write_bytes);
    const int fd = files_[worker % files_.size()].get();
    const std::size_t write_cap = std::min(cfg_.disk_max_write_bytes, file_bytes_);
    unsigned consecutive_errors = 0;
    while (clock_.now() < deadline && !engine_.stop_requested()) {
      const auto max_off = static_cast<std::int64_t>(file_bytes_ - write_cap);
      const auto off = rng.uniform_int(0, std::max<std::int64_t>(max_off, 0));
      const auto len = static_cast<std::size_t>(
          rng.uniform_int(512, static_cast<std::int64_t>(write_cap)));
      buf[0] = static_cast<char>(rng());

      IoFault injected;
      if (cfg_.failpoints) {
        injected = io_fault(cfg_.failpoints->on_write());
        // A realistically blocked syscall: sleeps whole, not sliced, so the
        // stall is exactly what the watchdog has to bound.
        if (injected.stall_s > 0) clock_.sleep(injected.stall_s);
      }

      ssize_t n;
      if (injected.err != 0) {
        n = -1;
        errno = injected.err;
      } else {
        n = ::pwrite(fd, buf.data(), len, static_cast<off_t>(off));
      }
      if (n < 0) {
        if (errno == ENOSPC || errno == EIO) {
          // Transient host trouble: back off (growing, capped) and keep
          // playing. The run completes degraded instead of crashing.
          const int saved = errno;
          ++consecutive_errors;
          note_degradation(strprintf("pwrite: %s (%u consecutive)",
                                     std::strerror(saved), consecutive_errors));
          const double backoff =
              cfg_.subinterval_s * static_cast<double>(1u << std::min(consecutive_errors, 5u));
          backoff_sleep(backoff, deadline);
          continue;
        }
        throw SystemError(strprintf("pwrite %s: %s", path_.c_str(), std::strerror(errno)));
      }
      consecutive_errors = 0;
      bytes_written_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    }
  }

  Clock& clock_;
  ExerciserConfig cfg_;
  PlaybackEngine engine_;
  std::mutex mu_;
  std::string path_;
  std::vector<Fd> files_;
  std::size_t file_bytes_ = 0;
  bool unlinked_ = false;
  bool file_shrunk_ = false;
  std::string shrink_detail_;
  std::atomic<std::uint64_t> bytes_written_{0};
  mutable std::mutex deg_mu_;
  Degradation degradation_;
};

}  // namespace

std::unique_ptr<ResourceExerciser> make_disk_exerciser(Clock& clock,
                                                       const ExerciserConfig& cfg) {
  return std::make_unique<DiskExerciser>(clock, cfg);
}

}  // namespace uucs
