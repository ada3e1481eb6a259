#pragma once

// Statistics and the metric sink shared by every part of the benchmark:
// nearest-rank percentiles with the "at least ten samples beyond" rule,
// medians, and the named-metric table that becomes the final JSON line.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// ceil(p * n) (1-based), clamped to [1, n]. Returns 0 for an empty sample.
double nearest_rank(const std::vector<double>& sorted, double p);

/// True when at least ten samples lie strictly beyond the nearest-rank
/// position of percentile `p` in a sample of `n` — the condition under which
/// the benchmark reports that percentile at all.
bool ten_beyond(std::size_t n, double p);

/// Median of an unsorted sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// Latency digest of one phase: sample count, p50 and p99 (both
/// nearest-rank). `p99_ok` is false when p99 lacks ten samples beyond it.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_ok = false;
};
LatencySummary summarize(std::vector<double> values);

/// Metric names: a letter or digit, then at most 63 letters, digits, '_',
/// '.' or '-'. Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
bool valid_metric_name(std::string_view name);
bool valid_unit(std::string_view unit);

/// Named metrics in the order they were set. set() rejects an invalid name
/// or unit, a duplicate name, or a non-finite value by throwing.
class MetricTable {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< measurements behind the value (0: n/a)
  };

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  const Metric* find(std::string_view name) const;
  const std::vector<Metric>& all() const { return metrics_; }

  /// One "name value unit (n=...)" line per metric.
  std::string render() const;
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
