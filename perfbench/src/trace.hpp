#pragma once

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer (never inside the program),
// kept in memory, and written out once when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;              ///< index of the causing span, -1 for a root
  std::uint64_t request_id = 0; ///< shared by every span of one request
};

class Tracer {
 public:
  /// Opens a span; returns its index for end() and as a child's parent.
  int begin(const std::string& name, int parent, std::uint64_t request_id);
  void end(int index);
  /// Records a span whose interval was measured elsewhere.
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t request_id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated dump: index, name, start, end, parent, request id.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent; overlapping children counted once).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per span name: the self times (in microseconds) of all spans so named.
std::map<std::string, std::vector<double>> self_times_by_name_us(
    const std::vector<Span>& spans);

}  // namespace perfbench
