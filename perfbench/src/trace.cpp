#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

int Tracer::begin(const std::string& name, int parent, std::uint64_t request_id) {
  spans_.push_back({name, now_ns(), 0, parent, request_id});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }

int Tracer::add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::uint64_t request_id) {
  spans_.push_back({name, start_ns, end_ns, parent, request_id});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\trequest_id\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\n", i, s.name.c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, static_cast<unsigned long long>(s.request_id));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> self_times_by_name_us(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
  }
  return out;
}

}  // namespace perfbench
