#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  if (rank < 1.0) return 1;
  if (rank > static_cast<double>(n)) return n;
  return static_cast<std::size_t>(rank);
}

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(sorted.size(), p) - 1];
}

bool ten_beyond(std::size_t n, double p) {
  if (n == 0) return false;
  return n - rank_of(n, p) >= 10;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  LatencySummary s;
  s.samples = values.size();
  s.p50 = nearest_rank(values, 0.50);
  s.p99 = nearest_rank(values, 0.99);
  s.p99_ok = ten_beyond(values.size(), 0.99);
  return s;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name.front();
  const bool alnum0 = (c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
                      (c0 >= '0' && c0 <= '9');
  return alnum0 && std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

void MetricTable::set(const std::string& name, double value,
                      const std::string& unit, std::size_t samples) {
  if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name '" + name + "'");
  if (!valid_unit(unit)) throw std::invalid_argument("bad unit '" + unit + "' for " + name);
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite value for " + name);
  if (find(name) != nullptr) throw std::invalid_argument("metric set twice: " + name);
  metrics_.push_back({name, value, unit, samples});
}

const MetricTable::Metric* MetricTable::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricTable::render() const {
  std::string out;
  for (const Metric& m : metrics_) {
    char line[200];
    if (m.samples > 0) {
      std::snprintf(line, sizeof(line), "  %-34s %14.6g %-7s (n=%zu)\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    } else {
      std::snprintf(line, sizeof(line), "  %-34s %14.6g %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    }
    out += line;
  }
  return out;
}

std::string MetricTable::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + format_value(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
