#include "server/overload.hpp"

#include <algorithm>
#include <chrono>

#include "monitor/sampler.hpp"

namespace uucs {

Admission OverloadController::admit(const RequestPeek& peek, double queue_age_ms,
                                    std::size_t inflight) {
  if (peek.op == RequestPeek::Op::kStats) return Admission::kOk;
  if (config_.request_deadline_ms > 0.0 &&
      queue_age_ms > config_.request_deadline_ms) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shed_deadline;
    return Admission::kShedDeadline;
  }
  if (config_.max_queue_depth > 0) {
    if (inflight > config_.max_queue_depth) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed_queue;
      return Admission::kShedQueue;
    }
    // Registrations go first: a machine that cannot register just retries,
    // a machine mid-sync is carrying results. Note > not >=: the request
    // being admitted is itself counted in `inflight`.
    const double floor =
        std::max(1.0, config_.register_shed_frac *
                          static_cast<double>(config_.max_queue_depth));
    if (peek.op == RequestPeek::Op::kRegister &&
        static_cast<double>(inflight) > floor) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed_registrations;
      return Admission::kShedRegistration;
    }
  }
  return Admission::kOk;
}

void OverloadController::note_degraded_reject() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.degraded_rejects;
}

void OverloadController::start(std::function<void()> on_pressure_enter,
                               std::function<void()> on_pressure_exit) {
  if (config_.min_available_frac <= 0.0) return;  // gate disabled
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  on_pressure_enter_ = std::move(on_pressure_enter);
  on_pressure_exit_ = std::move(on_pressure_exit);
  running_ = true;
  stop_requested_ = false;
  monitor_ = std::thread([this] { monitor_loop(); });
}

void OverloadController::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  monitor_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  // Leave the accept gate the way we found it.
  if (pressure_paused_.exchange(false) && on_pressure_exit_) {
    on_pressure_exit_();
  }
}

void OverloadController::set_suspended(bool suspended) {
  std::lock_guard<std::mutex> gate(gate_mu_);
  suspended_ = suspended;
  if (suspended && pressure_paused_.exchange(false)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.pressure_resumes;
    if (on_pressure_exit_) on_pressure_exit_();
  }
}

void OverloadController::monitor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval = std::chrono::duration<double>(
      std::max(0.01, config_.pressure_interval_s));
  while (!stop_requested_) {
    lock.unlock();
    probe_once();
    lock.lock();
    cv_.wait_for(lock, interval, [this] { return stop_requested_; });
  }
}

void OverloadController::probe_once() {
  double frac = 1.0;
  bool have = false;
  if (config_.failpoints != nullptr) {
    if (const auto injected = config_.failpoints->on_probe()) {
      frac = *injected;
      have = true;
    }
  }
  if (!have) {
    if (const auto pressure = read_memory_pressure()) {
      frac = pressure->available_frac();
      have = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.probes;
    if (have) stats_.last_available_frac = frac;
  }
  std::lock_guard<std::mutex> gate(gate_mu_);
  if (!have || suspended_) return;
  const double floor = config_.min_available_frac;
  if (!pressure_paused_.load(std::memory_order_relaxed)) {
    if (frac < floor) {
      pressure_paused_.store(true, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.pressure_pauses;
      }
      if (on_pressure_enter_) on_pressure_enter_();
    }
  } else if (frac > std::min(1.0, 1.5 * floor)) {
    // Hysteresis: resume only clearly above the floor, so a fraction
    // hovering at the boundary does not toggle accept per probe.
    pressure_paused_.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.pressure_resumes;
    }
    if (on_pressure_exit_) on_pressure_exit_();
  }
}

OverloadStats OverloadController::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace uucs
