#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>

#include "exerciser/exerciser.hpp"
#include "monitor/sampler.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/strings.hpp"

namespace uucs {

namespace {

constexpr std::size_t kPageSize = 4096;

/// RAII anonymous mapping. Pages materialize (count toward the resident
/// set) only when first touched, so the exerciser's working set really is
/// the fraction it touches — matching §2.2's semantics, where contention is
/// "the fraction of physical memory it should attempt to allocate" into its
/// working set.
class PagePool {
 public:
  explicit PagePool(std::size_t bytes) : bytes_(bytes) {
    base_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) {
      throw SystemError("mmap of memory pool failed");
    }
  }
  ~PagePool() {
    if (base_ != MAP_FAILED) ::munmap(base_, bytes_);
  }
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  char* page(std::size_t index) {
    return static_cast<char*>(base_) + index * kPageSize;
  }
  std::size_t page_count() const { return bytes_ / kPageSize; }

 private:
  std::size_t bytes_;
  void* base_ = MAP_FAILED;
};

/// Memory exerciser (§2.2): keeps a pool of allocated pages equal to the
/// configured size and touches the fraction of it named by the current
/// contention level at high frequency, inflating its working set to that
/// fraction of the pool. Contention is clamped to 1.0 — the paper avoids
/// higher levels because they cause immediate thrashing.
///
/// Host-safety: the host keeps a memory_headroom_frac floor of its memory
/// (physical or cgroup-limited) at all times. The pool is capped at run
/// start so creating it cannot violate the floor, and a periodic pressure
/// probe (every pressure_check_interval_s) halves the touched working set
/// while availability sits below the floor — borrowing degrades instead of
/// pushing the host into swap or OOM. Each shrink is a degradation event.
class MemoryExerciser final : public ResourceExerciser {
 public:
  MemoryExerciser(Clock& clock, const ExerciserConfig& cfg)
      : clock_(clock), cfg_(cfg) {
    cfg_.validate();
  }

  Resource resource() const override { return Resource::kMemory; }

  double run(const ExerciseFunction& f) override {
    if (f.empty()) return 0.0;

    // Cap the pool so even a full-contention run leaves the headroom floor
    // untouched. The probe reads the real host (or the armed failpoint).
    std::size_t pool_bytes = cfg_.memory_pool_bytes;
    if (const auto p = probe()) {
      const auto headroom =
          static_cast<std::uint64_t>(cfg_.memory_headroom_frac *
                                     static_cast<double>(p->total_bytes));
      const std::uint64_t borrowable =
          p->available_bytes > headroom ? p->available_bytes - headroom : 0;
      if (borrowable < pool_bytes) {
        pool_bytes = std::max<std::size_t>(
            (static_cast<std::size_t>(borrowable) / kPageSize) * kPageSize, kPageSize);
        note_degradation(strprintf("pool capped to %zu bytes by host headroom floor",
                                   pool_bytes));
      }
    }

    // The pool lives only for the run, so a stopped exerciser releases its
    // borrowed memory immediately, as the paper requires.
    PagePool pool(pool_bytes);
    const std::size_t pages = pool.page_count();
    std::size_t ceiling = pages;  // shrinks under pressure, recovers when clear
    const double start = clock_.now();
    const double duration = f.duration();
    double next_check = start + cfg_.pressure_check_interval_s;
    std::size_t cursor = 0;
    std::uint64_t stamp = 1;
    while (!stop_.load(std::memory_order_relaxed)) {
      const double now = clock_.now();
      const double t = now - start;
      if (t >= duration) break;

      if (now >= next_check) {
        next_check = now + cfg_.pressure_check_interval_s;
        if (const auto p = probe()) {
          if (p->available_frac() < cfg_.memory_headroom_frac) {
            const std::size_t shrunk = std::max<std::size_t>(ceiling / 2, 1);
            if (shrunk < ceiling) {
              ceiling = shrunk;
              note_degradation(strprintf(
                  "host memory pressure (%.1f%% available): working set shrunk to %zu pages",
                  p->available_frac() * 100.0, ceiling));
            }
          } else {
            ceiling = pages;
          }
        }
      }

      const double c = std::min(f.level_at(t), 1.0);
      const auto touch_pages = std::min<std::size_t>(
          static_cast<std::size_t>(c * static_cast<double>(pages)), ceiling);
      if (touch_pages == 0) {
        clock_.sleep(cfg_.subinterval_s);
        continue;
      }
      // Touch one sweep of the borrowed region (bounded per iteration so the
      // stop flag and the function level are re-checked promptly).
      const std::size_t burst = std::min<std::size_t>(touch_pages, 4096);
      for (std::size_t i = 0; i < burst; ++i) {
        cursor = (cursor + 1) % touch_pages;
        std::memcpy(pool.page(cursor), &stamp, sizeof(stamp));
        ++stamp;
      }
      touched_bytes_.fetch_add(burst * kPageSize, std::memory_order_relaxed);
    }
    return std::min(clock_.now() - start, duration);
  }

  void stop() override { stop_.store(true, std::memory_order_relaxed); }

  void reset() override {
    stop_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(deg_mu_);
    degradation_ = {};
  }

  Degradation degradation() const override {
    std::lock_guard<std::mutex> lock(deg_mu_);
    return degradation_;
  }

  /// Total bytes written across runs (observable progress for tests).
  std::uint64_t touched_bytes() const {
    return touched_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// One pressure reading: the real host numbers, with an armed failpoint
  /// overriding the available fraction (keeping the real total so byte
  /// arithmetic stays meaningful).
  std::optional<MemoryPressure> probe() {
    auto p = read_memory_pressure();
    if (cfg_.failpoints) {
      if (const auto frac = cfg_.failpoints->on_probe()) {
        if (!p) {
          p = MemoryPressure{};
          p->total_bytes = cfg_.memory_pool_bytes * 4;
        }
        p->available_bytes = static_cast<std::uint64_t>(
            *frac * static_cast<double>(p->total_bytes));
      }
    }
    return p;
  }

  void note_degradation(const std::string& detail) {
    std::lock_guard<std::mutex> lock(deg_mu_);
    ++degradation_.events;
    degradation_.detail = detail;
  }

  Clock& clock_;
  ExerciserConfig cfg_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> touched_bytes_{0};
  mutable std::mutex deg_mu_;
  Degradation degradation_;
};

}  // namespace

std::unique_ptr<ResourceExerciser> make_memory_exerciser(Clock& clock,
                                                         const ExerciserConfig& cfg) {
  return std::make_unique<MemoryExerciser>(clock, cfg);
}

}  // namespace uucs
