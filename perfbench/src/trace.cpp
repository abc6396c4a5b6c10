#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {
namespace {

thread_local int t_current_span = -1;

}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

DigestBook::DigestBook(const std::string& path) : path_(path) {
  std::ifstream in(path);
  readable_ = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string workload, kind, hex;
    if (is >> workload >> kind >> hex) entries_[workload + " " + kind] = hex;
  }
}

std::string DigestBook::check(const std::string& workload,
                              const std::string& kind,
                              std::uint64_t digest) const {
  if (!readable_) return "cannot read digests file " + path_;
  const auto it = entries_.find(workload + " " + kind);
  if (it == entries_.end()) {
    return "no committed " + kind + " digest for " + workload +
           " (computed " + hex64(digest) + ")";
  }
  if (it->second == hex64(digest)) return "";
  return workload + " " + kind + " digest " + hex64(digest) +
         " != committed " + it->second;
}

int Tracer::begin(const std::string& name, std::uint64_t trace_id,
                  int parent) {
  if (!on_) return -1;
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, trace_id, parent < 0 ? t_current_span : parent, now,
                    -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  if (!on_ || span < 0) return;
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_s = now;
}

void Tracer::record(const std::string& name, std::uint64_t trace_id,
                    Clock::time_point start, Clock::time_point end) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, trace_id, t_current_span,
                    seconds_between(epoch_, start),
                    seconds_between(epoch_, end)});
}

std::map<std::string, double> Tracer::totals(std::uint64_t trace_id) const {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans_) {
    if (s.trace_id == trace_id && s.end_s >= 0.0) {
      out[s.name] += s.end_s - s.start_s;
    }
  }
  return out;
}

std::map<std::string, std::pair<std::size_t, double>> Tracer::self_times()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0 && s.end_s >= 0.0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::map<std::string, std::pair<std::size_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_s < 0.0) continue;
    // Union of child intervals clipped to the parent: children may run
    // concurrently on pool threads.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo_raw, hi_raw] : kids) {
      const double lo = std::max(lo_raw, s.start_s);
      const double hi = std::min(hi_raw, s.end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    auto& slot = out[s.name];
    ++slot.first;
    slot.second += (s.end_s - s.start_s) - covered;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"span\":%zu,\"name\":\"%s\",\"trace\":%llu,"
                  "\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  i, s.name.c_str(),
                  static_cast<unsigned long long>(s.trace_id), s.parent,
                  s.start_s, s.end_s);
    os << buf;
  }
}

ScopedSpan::ScopedSpan(Tracer& tracer, const std::string& name,
                       std::uint64_t trace_id)
    : tracer_(tracer), saved_(t_current_span) {
  span_ = tracer_.begin(name, trace_id);
  if (span_ >= 0) t_current_span = span_;
}

ScopedSpan::~ScopedSpan() {
  tracer_.end(span_);
  if (span_ >= 0) t_current_span = saved_;
}

double self_peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double self_cpu_s() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace perfbench
