// Span recorder and its Chrome trace-event writer.
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

std::uint64_t Trace::record(std::string name, Clock::time_point start,
                            Clock::time_point end, std::uint64_t query,
                            std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({std::move(name), start, end, id, parent, query});
  return id;
}

void Trace::write_chrome(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  // Complete ("X") events, one per span; the query id doubles as the track
  // (tid) so each query's spans nest on one row of the viewer.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    const double ts = seconds_between(origin_, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    out << (k ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,";
    std::snprintf(buf, sizeof buf,
                  "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":"
                  "%llu,\"parent\":%llu,\"query\":%llu}}",
                  static_cast<unsigned long long>(s.query), ts, dur,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.query));
    out << buf;
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
