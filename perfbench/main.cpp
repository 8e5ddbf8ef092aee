// Serving benchmark harness: one generator thread drives svc::AlignService
// with a seeded workload, checks every answer against the serial oracles,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced replay (--trace 1).  The last stdout line is the JSON result.
//
//   gdsm_perfbench --workload db_scan --seed 1 --seconds 20 --trace 0
//                  [--out-dir DIR] [--git DESCRIBE] [--corrupt-answer]
//
// --corrupt-answer alters one service answer before the oracle gate runs;
// the run must then report correct=false and exit 1 (selftest.py).
#include <malloc.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "db/meter.h"
#include "simd/dispatch.h"
#include "util/rng.h"

namespace {

using namespace perfbench;
namespace svc = gdsm::svc;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end and per-layer metrics, in BENCHMARK.json's order (run.py
// checks that the two lists agree).  Throughput and latency are printed on
// every run but are not among them: on a busy host their spread exceeds
// the widest bound (README.md, "Keeping the numbers steady").
constexpr MetricDef kEndToEnd[] = {
    {"cpu_ms_per_query", "ms"},
    {"cpu_ms_per_query_open", "ms"},
    {"setup_s", "s"},
    {"rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"svc.queue_wait_ms_p50", "ms"},
    {"svc.run_ms_p50", "ms"},
    {"svc.overhead_ms_p50", "ms"},
    {"svc.batch_size_mean", "count"},
    {"db.calls_per_query", "count"},
    {"db.filter_ms_p50", "ms"},
    {"db.scan_ms_p50", "ms"},
    {"db.cascade_ms_p50", "ms"},
    {"db.query_ms_p50", "ms"},
    {"db.dispatch_ms_p50", "ms"},
    {"db.filtration_ratio", "fraction"},
    {"db.forwarded_per_query", "count"},
    {"db.cluster_path_share", "fraction"},
    {"db.cascade_resolve_ratio", "fraction"},
    {"db.dp_hit_ratio", "fraction"},
    {"db.seeds_per_query", "count"},
    {"db.extensions_per_query", "count"},
    {"db.index_build_s", "s"},
    {"db.index_open_s", "s"},
    {"db.shard_place_s", "s"},
    {"simd.dp_ms_p50", "ms"},
    {"simd.gcups", "GCUPS"},
    {"simd.cells_per_query", "count"},
    {"simd.cells16_share", "fraction"},
    {"simd.overflow_reruns_per_query", "count"},
    {"simd.profile_hit_ratio", "fraction"},
    {"dsm.read_faults_per_query", "count"},
    {"dsm.cache_hits_per_query", "count"},
    {"dsm.barriers_per_query", "count"},
    {"dsm.write_faults_per_query", "count"},
    {"dsm.diffs_per_query", "count"},
    {"dsm.diff_bytes_per_query", "bytes"},
    {"dsm.invalidations_per_query", "count"},
    {"dsm.lock_acquires_per_query", "count"},
    {"dsm.cv_waits_per_query", "count"},
    {"net.msgs_per_query", "count"},
    {"net.bytes_per_query", "bytes"},
    {"core.blocked_ms_p50", "ms"},
    {"core.serial_ms_p50", "ms"},
    {"core.speedup", "x"},
    {"core.efficiency", "fraction"},
    {"gen.lag_ms_p90", "ms"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string git = "unknown";
  bool corrupt_answer = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt-answer") {
      o.corrupt_answer = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = val == "1";
    } else if (key == "--out-dir") {
      o.out_dir = val;
    } else if (key == "--git") {
      o.git = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds >= 1 && o.seconds <= 60)) {
    throw std::invalid_argument("--seconds must be in [1, 60]");
  }
  return o;
}

/// Fixed CPU + memory loop (dependent multiply/xor walk over 16 MiB), timed
/// to show host drift between runs.  Printed only, never used to scale.
double host_calib_ms() {
  std::vector<std::uint64_t> buf(std::size_t{1} << 21);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = i * 0x9e3779b97f4a7c15ull;
  std::vector<double> reps;
  std::uint64_t x = 1;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point a = Clock::now();
    for (int k = 0; k < (1 << 19); ++k) {
      const std::size_t idx = (x >> 17) & (buf.size() - 1);
      x = x * 6364136223846793005ull + buf[idx];
      buf[idx] ^= x;
    }
    reps.push_back(seconds_between(a, Clock::now()) * 1e3);
  }
  if (x == 42) std::puts("");  // keeps the loop observable
  return quantile(reps, 0.5);
}

/// Steal and total jiffies of all CPUs (/proc/stat): time the hypervisor
/// gave this guest's runnable vCPUs to someone else.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  stat >> cpu;
  for (double& x : v) stat >> x;
  double total = 0;
  for (const double x : v) total += x;
  return {v[7], total};
}

/// Resets VmHWM to the current RSS, so the next peak_rss_mib() reads the
/// peak since this call.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// One query sent by the generator and its terminal outcome.
struct Sample {
  std::size_t probe = 0;
  Clock::time_point due{};   ///< scheduled send time (open loop) or send time
  Clock::time_point sent{};  ///< just before AlignService::submit
  svc::TicketPtr ticket;
  svc::QueryOutcome out;
  std::uint64_t qid = 0;  ///< span query id when traced

  double lag_s() const { return seconds_between(due, sent); }
  /// Due time -> ticket resolution.  total_s is the service's own
  /// admission -> resolution clock; admission follows `sent` immediately.
  double latency_s() const { return lag_s() + out.result.total_s; }
  Clock::time_point resolved() const {
    return after(sent, out.result.total_s);
  }
};

struct Phase {
  std::vector<Sample> samples;
  Clock::time_point start{};
  double cpu_s = 0;  ///< CPU time the service spent on the phase's queries
};

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// User + system CPU time of the whole process / of the calling thread so
/// far.  Time the hypervisor gives to other guests is in neither.
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// Spans of one traced service query: the query (due -> resolution), the
/// generator's lag, submit -> ticket, and the service's wait / run split.
void record_query_spans(Trace& tr, const Sample& s) {
  const std::uint64_t qid = s.qid;
  const auto at = [&](double sec) { return after(s.sent, sec); };
  const Clock::time_point end = s.resolved();
  const std::uint64_t root = tr.record("query", s.due, end, qid);
  if (s.sent > s.due) tr.record("gen.lag", s.due, s.sent, qid, root);
  const std::uint64_t sub =
      tr.record("AlignService::submit->ticket", s.sent, end, qid, root);
  if (!s.out.ok) return;
  tr.record("svc.queue_wait", s.sent, at(s.out.result.wait_s), qid, sub);
  tr.record("svc.run", at(s.out.result.wait_s),
            at(s.out.result.wait_s + s.out.result.run_s), qid, sub);
}

/// The single load-generating thread.
class Generator {
 public:
  Generator(const Workload& w, std::uint64_t seed)
      : w_(w), rng_(seed ^ 0x5eedf00dull) {}

  /// The service the next queries go to.
  void attach(svc::AlignService& service) { service_ = &service; }

  /// From now on, records each query's spans into `trace` while it runs:
  /// the submit call as it returns, the rest as the ticket resolves.
  void record_into(Trace* trace) { trace_ = trace; }

  /// Sends the next `count` probes with `window` of them in flight.
  Phase closed_loop(std::size_t count, std::size_t window) {
    Phase ph;
    const double cpu0 = service_cpu_s();
    ph.start = Clock::now();
    std::size_t sent = 0;
    std::vector<Sample> inflight;
    for (; sent < std::min(window, count); ++sent) {
      inflight.push_back(send(Clock::now()));
    }
    while (!inflight.empty()) {
      bool any = false;
      for (std::size_t k = 0; k < inflight.size();) {
        if (!inflight[k].ticket->ready()) {
          ++k;
          continue;
        }
        any = true;
        finish(inflight[k]);
        ph.samples.push_back(std::move(inflight[k]));
        if (sent < count) {
          inflight[k] = send(Clock::now());
          ++sent;
          ++k;
        } else {
          inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(k));
        }
      }
      // Poll: blocking on one ticket would idle a worker whenever a later
      // query finishes first.
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    ph.cpu_s = service_cpu_s() - cpu0;
    return ph;
  }

  /// `count` Poisson arrivals at `rate` per second; each query is timed
  /// from its due time, so a stalled generator or service shows.  The
  /// times are sorted uniform draws over count / rate seconds: a Poisson
  /// process conditioned on its count, so every run of a given length
  /// sends the same number of queries.
  Phase open_loop(std::size_t count, double rate) {
    Phase ph;
    const double cpu0 = service_cpu_s();
    ph.start = Clock::now();
    const double seconds = static_cast<double>(count) / rate;
    std::vector<double> at(count);
    for (double& t : at) t = rng_.uniform() * seconds;
    std::sort(at.begin(), at.end());
    for (const double t : at) {
      const Clock::time_point due = after(ph.start, t);
      std::this_thread::sleep_until(due);
      ph.samples.push_back(send(due));
    }
    for (Sample& s : ph.samples) finish(s);
    ph.cpu_s = service_cpu_s() - cpu0;
    return ph;
  }

 private:
  /// The service's CPU time so far: the process's, less what this thread
  /// spent outside AlignService::submit.  Waiting for tickets costs the
  /// generator more CPU the longer the host makes it wait, and is not the
  /// service's.
  double service_cpu_s() const {
    return process_cpu_s() - thread_cpu_s() + submit_cpu_s_;
  }

  Sample send(Clock::time_point due) {
    if (next_ % w_.probes.size() == 0) {
      order_.resize(w_.probes.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.below(i)]);
      }
    }
    Sample s;
    s.probe = order_[next_++ % order_.size()];
    s.due = due;
    const double cpu0 = thread_cpu_s();
    s.sent = Clock::now();
    s.ticket = service_->submit(w_.probes[s.probe]).ticket;
    submit_cpu_s_ += thread_cpu_s() - cpu0;
    if (trace_ != nullptr) {
      s.qid = ++qid_;
      trace_->record("AlignService::submit", s.sent, Clock::now(), s.qid);
    }
    return s;
  }

  void finish(Sample& s) {
    s.out = s.ticket->wait();
    s.ticket.reset();
    if (trace_ != nullptr) record_query_spans(*trace_, s);
  }

  svc::AlignService* service_ = nullptr;
  const Workload& w_;
  gdsm::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  Trace* trace_ = nullptr;
  std::uint64_t qid_ = 0;
  double submit_cpu_s_ = 0;  ///< generator CPU time inside submit calls
};

/// Completions per second of one closed-loop burst: first send to last
/// resolution.
double burst_qps(const Phase& ph) {
  std::size_t ok = 0;
  Clock::time_point last = ph.start;
  for (const Sample& s : ph.samples) {
    if (!s.out.ok) continue;
    ++ok;
    last = std::max(last, s.resolved());
  }
  return ok == 0 ? 0.0 : static_cast<double>(ok) / seconds_between(ph.start, last);
}

/// One cold set-up: a fresh service, its resident data and one cold probe,
/// which starts the cluster engine and faults the resident data in.
struct ColdSetup {
  double seconds = 0;
  Sample probe;
  std::unique_ptr<svc::AlignService> service;
};

ColdSetup cold_setup(const Workload& w) {
  ColdSetup c;
  c.probe.due = c.probe.sent = Clock::now();
  c.service = std::make_unique<svc::AlignService>(service_config(w));
  load_inputs(*c.service, w);
  c.probe.out = c.service->submit(w.probes[0]).ticket->wait();
  c.seconds = seconds_between(c.probe.sent, Clock::now());
  return c;
}

/// The measured part of a run, as segments.  Each segment shuts the last
/// service down and times cold set-ups of fresh ones (setup_s samples;
/// each shut down before the next starts), warms the last with a few
/// untimed queries, then runs a closed-loop burst of a fixed probe count
/// and an open-loop stretch of a fixed arrival count.
/// Fresh services keep every segment alike: the service's DSM global
/// memory only grows with the queries it serves (README.md, "Known
/// behaviour"), and set-ups are sampled across the whole run.  The peak
/// RSS is that of the first segment, served by a fresh process: the
/// process keeps a few MiB per segment after its service is gone, so later
/// peaks depend on what piled up before them.
struct Measured {
  std::vector<double> setup_s;
  double rss_mib = 0;
  std::vector<Sample> setups, warm;  ///< cold probes and warm-up queries
  std::vector<Phase> closed, open;
};

/// Nominal length of one segment's timed phases at the workload's
/// reference rates.
double segment_seconds(const Workload& w) {
  return static_cast<double>(w.burst) / w.closed_qps +
         static_cast<double>(w.open_queries) / w.open_rate_qps;
}

Measured measure(Generator& gen, const Workload& w, double seconds,
                 std::unique_ptr<svc::AlignService>& service) {
  Measured m;
  const int segments =
      std::max(1, static_cast<int>(std::lround(seconds / segment_seconds(w))));
  const auto window = static_cast<std::size_t>(w.workers);
  service.reset();
  malloc_trim(0);
  reset_peak_rss();
  for (int k = 0; k < segments; ++k) {
    for (int j = 0; j < w.setups; ++j) {
      service.reset();
      ColdSetup c = cold_setup(w);
      m.setup_s.push_back(c.seconds);
      m.setups.push_back(std::move(c.probe));
      service = std::move(c.service);
    }
    gen.attach(*service);
    Phase warm = gen.closed_loop(w.warm, window);
    for (Sample& s : warm.samples) m.warm.push_back(std::move(s));
    m.closed.push_back(gen.closed_loop(w.burst, window));
    m.open.push_back(gen.open_loop(w.open_queries, w.open_rate_qps));
    if (k == 0) m.rss_mib = peak_rss_mib();
  }
  return m;
}

struct EndToEnd {
  double cpu_ms = 0, cpu_open_ms = 0, setup = 0, rss = 0;
  double throughput = 0, p50 = 0, p90 = 0, lag_p90 = 0;  // printed only
  std::size_t latency_samples = 0, closed_samples = 0, segments = 0;
};

/// The gated metrics are quantities a busy host barely moves: medians over
/// the run's segments of the service's CPU time per query in the
/// closed-loop bursts and in the open-loop stretches, the median cold
/// set-up time, and the first segment's peak RSS.  Wall-clock
/// throughput and latency are printed next to them but not gated: on a
/// shared host they measure how soon the hypervisor runs a woken vCPU
/// (README.md, "Keeping the numbers steady").  Latency is still computed
/// from raw samples timed from the due time; each segment's open stretch
/// is one window of >= 100 of them, and p50 / p90 are the medians over the
/// windows of the windows' own percentiles.
EndToEnd summarize(const Measured& m) {
  EndToEnd e;
  std::vector<double> qps, cpu_ms, cpu_open_ms, lag, p50s, p90s;
  const auto per_query_ms = [](const Phase& ph) {
    return ph.cpu_s * 1e3 / static_cast<double>(ph.samples.size());
  };
  for (const Phase& ph : m.closed) {
    qps.push_back(burst_qps(ph));
    cpu_ms.push_back(per_query_ms(ph));
    e.closed_samples += ph.samples.size();
  }
  for (const Phase& ph : m.open) {
    std::vector<double> window;
    for (const Sample& s : ph.samples) {
      lag.push_back(s.lag_s() * 1e3);
      if (s.out.ok) window.push_back(s.latency_s() * 1e3);
    }
    cpu_open_ms.push_back(per_query_ms(ph));
    p50s.push_back(quantile(window, 0.5));
    p90s.push_back(quantile(window, 0.9));
    e.latency_samples += window.size();
  }
  e.segments = m.open.size();
  e.cpu_ms = quantile(cpu_ms, 0.5);
  e.cpu_open_ms = quantile(cpu_open_ms, 0.5);
  e.setup = quantile(m.setup_s, 0.5);
  e.rss = m.rss_mib;
  e.throughput = quantile(qps, 0.5);
  e.p50 = quantile(p50s, 0.5);
  e.p90 = quantile(p90s, 0.5);
  e.lag_p90 = quantile(lag, 0.9);
  return e;
}

void print_e2e(const char* label, const EndToEnd& e) {
  std::printf(
      "%-9s cpu_ms_per_query %.3f (closed loop, %zu queries)  "
      "cpu_ms_per_query_open %.3f  setup_s %.4f  rss_mb %.1f  (%zu segments)\n"
      "%-9s not gated: throughput_qps %.2f  latency_p50_ms %.3f  "
      "latency_p90_ms %.3f (open loop, %zu samples)  gen.lag_ms_p90 %.4f\n",
      label, e.cpu_ms, e.closed_samples, e.cpu_open_ms, e.setup, e.rss, e.segments,
      label, e.throughput, e.p50, e.p90, e.latency_samples, e.lag_p90);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int run(const Options& o) {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us: tight sleep_until
  const double calib_ms = host_calib_ms();
  const Workload w = make_workload(o.workload, o.seed);
  const double total_bases = [&] {
    double b = 0;
    for (const auto& s : w.db_seqs) b += static_cast<double>(s.size());
    return w.is_db ? b : static_cast<double>(w.subject.size());
  }();

  std::printf(
      "run: workload=%s seed=%llu seconds=%g trace=%d git=%s nproc=%ld "
      "kernel=%s bases=%.0f nodes=%d workers=%d in_flight=%d "
      "open_rate_qps=%g distinct_probes=%zu segment: warm=%zu burst=%zu "
      "open=%zu\n",
      w.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.git.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      gdsm::simd::active_backend_name(), total_bases, w.nodes, w.workers,
      w.workers, w.open_rate_qps, w.probes.size(), w.warm, w.burst,
      w.open_queries);
  std::printf("host.calib_ms %.3f (diagnostic only)\n", calib_ms);
  std::fflush(stdout);

  // The traced invocation measures half the seconds untraced, then the
  // other half while the generator records every query's spans, then
  // replays the layers.  The service itself is not instrumented, so the
  // two lines differ by the recorder's cost on the generator thread (and
  // by host drift).
  const double span = o.trace ? o.seconds / 2 : o.seconds;
  Generator gen(w, o.seed);
  std::unique_ptr<svc::AlignService> service;
  const auto steal0 = cpu_steal_jiffies();
  Measured untraced = measure(gen, w, span, service);
  const auto steal1 = cpu_steal_jiffies();
  // Diagnostic only, like host.calib_ms: a high share means other tenants
  // took CPU from this run.
  std::printf("host.steal_pct %.2f during the untraced measurement\n",
              100 * (steal1.first - steal0.first) /
                  std::max(1.0, steal1.second - steal0.second));
  const EndToEnd e2e = summarize(untraced);

  Trace trace(o.trace);
  Measured traced;
  double db_calls = 0;
  if (o.trace) {
    const std::uint64_t db_calls0 = gdsm::db::db_meter_snapshot().queries;
    gen.record_into(&trace);
    traced = measure(gen, w, span, service);
    gen.record_into(nullptr);
    db_calls = static_cast<double>(gdsm::db::db_meter_snapshot().queries -
                                   db_calls0);
  }

  // The oracle runs after every timed phase, with the service idle.
  const Clock::time_point oracle_start = Clock::now();
  const Oracle oracle = compute_oracle(w, w.probes.size());
  std::printf("oracle: %.3f s, %zu db fragments\n",
              seconds_between(oracle_start, Clock::now()),
              oracle.db_fragments);

  Metrics layer;  // the metrics this invocation reports, by name
  GateTally replay_gate;
  if (o.trace) {
    // Every query the traced service phases ran: cold probes, warm-up,
    // closed and open loops.
    double served = static_cast<double>(traced.setups.size() +
                                        traced.warm.size());
    std::vector<double> wait_ms, run_ms, batch;
    for (const auto* phases : {&traced.closed, &traced.open}) {
      for (const Phase& ph : *phases) {
        for (const Sample& s : ph.samples) {
          ++served;
          if (!s.out.ok) continue;
          batch.push_back(static_cast<double>(s.out.result.batch_size));
          if (phases == &traced.open) {
            wait_ms.push_back(s.out.result.wait_s * 1e3);
            run_ms.push_back(s.out.result.run_s * 1e3);
          }
        }
      }
    }
    layer["db.calls_per_query"] = db_calls / served;
    layer["svc.queue_wait_ms_p50"] = quantile(wait_ms, 0.5);
    layer["svc.run_ms_p50"] = quantile(run_ms, 0.5);
    layer["svc.batch_size_mean"] = mean(batch);
    layer["gen.lag_ms_p90"] = summarize(traced).lag_p90;
    const Metrics replay = replay_layers(w, *service, oracle.answers, trace,
                                         o.out_dir, replay_gate);
    layer.insert(replay.begin(), replay.end());
  }

  // ---- oracle gate (outside every timed phase) ---------------------------
  std::size_t attempted = replay_gate.attempted;
  std::size_t failed = replay_gate.failed;
  std::size_t refused = 0, mismatched = failed;
  bool corrupt_next = o.corrupt_answer;
  const auto gate = [&](Sample& s) {
    ++attempted;
    if (!s.out.ok) {
      ++failed;
      if (++refused <= 3) {
        std::fprintf(stderr, "query failed: %s\n", s.out.error.c_str());
      }
      return;
    }
    if (corrupt_next) {
      // Test hook: a wrong answer must be caught by the check below.
      auto& hits = s.out.result.db_hits;
      auto& cands = s.out.result.candidates;
      if (!hits.empty()) {
        ++hits.front().score;
      } else if (!cands.empty()) {
        ++cands.front().score;
      } else {
        hits.emplace_back();
      }
      corrupt_next = false;
    }
    if (!answer_matches(w, oracle.answers[s.probe], s.out.result)) {
      ++failed;
      ++mismatched;
    }
  };
  for (Measured* m : {&untraced, &traced}) {
    for (Sample& s : m->setups) gate(s);
    for (Sample& s : m->warm) gate(s);
    for (auto* phases : {&m->closed, &m->open}) {
      for (Phase& ph : *phases) {
        for (Sample& s : ph.samples) gate(s);
      }
    }
  }

  const bool correct = failed == 0;
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);

  print_e2e("untraced", e2e);
  if (o.trace) print_e2e("traced", summarize(traced));
  std::printf(
      "oracle gate: attempted %zu failed %zu (refused/expired/failed %zu, "
      "wrong answers %zu) error_rate %.6f\n",
      attempted, failed, refused, mismatched, error_rate);

  if (o.trace) {
    const std::string path = o.out_dir + "/trace-" + w.name + "-" +
                             std::to_string(o.seed) + ".json";
    trace.write_chrome(path);
    std::printf("trace: %zu spans -> %s\n", trace.size(), path.c_str());
  }

  if (!o.trace) {
    layer = {{"cpu_ms_per_query", e2e.cpu_ms},
             {"cpu_ms_per_query_open", e2e.cpu_open_ms},
             {"setup_s", e2e.setup},
             {"rss_mb", e2e.rss}};
  }
  std::string metrics;
  for (const MetricDef& d : o.trace ? std::span<const MetricDef>(kPerLayer)
                                    : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = layer.find(d.name);
    if (it == layer.end()) {
      throw std::logic_error(std::string("metric not measured: ") + d.name);
    }
    if (o.trace) std::printf("  %-34s %14.6f %s\n", d.name, it->second, d.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(d.name) + "\": {\"value\": " +
               json_number(it->second) + ", \"unit\": \"" + d.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "gdsm_perfbench: %s\nusage: gdsm_perfbench --workload "
                 "<db_scan|db_sensitive|pair_blocked> --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--git DESCRIBE] "
                 "[--corrupt-answer]\n",
                 e.what());
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdsm_perfbench: %s\n", e.what());
    return 1;
  }
}
