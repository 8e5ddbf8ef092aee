// Shared declarations of the serving benchmark harness (README.md in this
// directory explains the workloads and the metrics).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/db_align.h"
#include "db/subject_db.h"
#include "svc/service.h"
#include "sw/alignment.h"
#include "util/sequence.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// One generated workload: the inputs, the service shape that serves them,
/// and the load the generator offers.  Everything derives from the seed.
struct Workload {
  std::string name;
  bool is_db = true;  ///< db scan traffic; false = resident-pair traffic
  int nodes = 2;      ///< cluster nodes of the service under test
  int workers = 2;    ///< service workers == closed-loop in-flight window
  /// Closed-loop capacity when the benchmark was defined; with the open
  /// rate it sets a segment's nominal length, and so the segment count.
  double closed_qps = 0;
  /// Fixed Poisson arrival rate of the open loop, well below closed_qps:
  /// latency is taken far from saturation.
  double open_rate_qps = 0;
  /// Per segment: cold set-ups (setup_s samples; the last one serves the
  /// segment), untimed warm-up queries on the fresh service, closed-loop
  /// burst queries, and open-loop arrivals (>= 100: one latency window).
  int setups = 1;
  std::size_t warm = 0, burst = 0, open_queries = 0;

  std::vector<gdsm::Sequence> db_seqs;  ///< db workloads
  gdsm::db::DbConfig db_cfg;
  gdsm::Sequence subject;  ///< pair workload: the resident subject

  /// Distinct probes, ready to submit.  Traffic cycles through them in a
  /// seeded order, so each answer can be checked against its oracle.
  std::vector<gdsm::svc::QuerySpec> probes;
};

/// Builds workload `name` from `seed`; throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

gdsm::svc::ServiceConfig service_config(const Workload& w);
/// Installs the workload's resident data (load_db / load_subject).
void load_inputs(gdsm::svc::AlignService& svc, const Workload& w);

/// The serial oracle's answer for one distinct probe.
struct Expected {
  std::vector<gdsm::db::DbHit> hits;        ///< db::brute_force_hits
  std::vector<gdsm::Candidate> candidates;  ///< serial heuristic_scan
};
struct Oracle {
  std::vector<Expected> answers;  ///< per distinct probe
  std::size_t db_fragments = 0;   ///< db workloads: fragments scanned
};
/// Answers for the first `probes` distinct probes.
Oracle compute_oracle(const Workload& w, std::size_t probes);
bool answer_matches(const Workload& w, const Expected& e,
                    const gdsm::svc::QueryResult& r);

// ---- statistics over raw samples ------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of raw samples; 0 when empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder.  Spans are kept until write_chrome() dumps them
/// as Chrome trace-event JSON; a disabled recorder records nothing.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Records one finished span and returns its id (0 when disabled).
  std::uint64_t record(std::string name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t query,
                       std::uint64_t parent = 0);
  /// Runs `fn`, records it as a span and returns its duration in seconds
  /// (measured whether or not the recorder is enabled).
  template <typename Fn>
  double timed(const char* name, std::uint64_t query, Fn&& fn) {
    const Clock::time_point a = Clock::now();
    fn();
    const Clock::time_point b = Clock::now();
    record(name, a, b, query);
    return seconds_between(a, b);
  }

  std::size_t size() const noexcept { return spans_.size(); }
  /// Writes {"traceEvents": [...]}; throws std::runtime_error on I/O error.
  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::uint64_t id, parent, query;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- per-layer replay -----------------------------------------------------

/// Metric name -> value; units live in main.cpp's metric tables.
using Metrics = std::map<std::string, double>;

/// Tallies the replay's own oracle checks so they land in the run's gate.
struct GateTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Replays every distinct probe through each layer's public functions on
/// private copies of the workload's data (and once through `svc`), records
/// spans into `trace`, and returns the per-layer metrics that the replay
/// measures.  `scratch_dir` receives the persisted index while timing it.
Metrics replay_layers(const Workload& w, gdsm::svc::AlignService& svc,
                      const std::vector<Expected>& expected, Trace& trace,
                      const std::string& scratch_dir, GateTally& gate);

}  // namespace perfbench
