// Traced per-layer replay (--trace 1).
//
// Every distinct probe is replayed through the service under test (submit ->
// ticket) and through each layer's public functions on private copies of the
// workload's data; each call is a span tagged with the probe's query id.  Self
// times come by subtraction: cascade = scan - filter, dispatch = db_query -
// scan, service overhead = run_s - the direct db_query / blocked_align.
// Layers a workload never calls report 0.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.h"
#include "core/blocked.h"
#include "dsm/cluster.h"
#include "dsm/stats.h"
#include "simd/dispatch.h"
#include "simd/striped.h"
#include "sw/heuristic_scan.h"
#include "sw/linear_score.h"

namespace perfbench {
namespace {

namespace svc = gdsm::svc;
namespace db = gdsm::db;
namespace dsm = gdsm::dsm;

// Replay query ids start here so they never collide with the traced
// service phases' ids in the same trace file.
constexpr std::uint64_t kReplayQueryBase = 1'000'000;

constexpr const char* kDbMetrics[] = {
    "db.filter_ms_p50",        "db.scan_ms_p50",
    "db.cascade_ms_p50",       "db.query_ms_p50",
    "db.dispatch_ms_p50",      "db.filtration_ratio",
    "db.forwarded_per_query",  "db.cluster_path_share",
    "db.cascade_resolve_ratio", "db.dp_hit_ratio",
    "db.seeds_per_query",      "db.extensions_per_query",
    "db.index_build_s",        "db.index_open_s",
    "db.shard_place_s",        "simd.dp_ms_p50",
    "simd.gcups",              "simd.cells_per_query",
    "simd.cells16_share",      "simd.overflow_reruns_per_query",
    "simd.profile_hit_ratio",
};
constexpr const char* kCoreMetrics[] = {
    "core.blocked_ms_p50", "core.serial_ms_p50", "core.speedup",
    "core.efficiency"};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Traffic {
  std::uint64_t msgs = 0, bytes = 0;
};

Traffic traffic(const dsm::Cluster& c) {
  Traffic t;
  for (const auto& n : c.traffic_snapshot()) {
    t.msgs += n.total_messages();
    t.bytes += n.total_bytes();
  }
  return t;
}

/// DSM protocol work and wire traffic summed over the replayed calls.
struct DsmTally {
  dsm::NodeStats node;
  Traffic net;

  void add(const dsm::NodeStats& s, const Traffic& before,
           const Traffic& after) {
    node += s;
    net.msgs += after.msgs - before.msgs;
    net.bytes += after.bytes - before.bytes;
  }

  void put(Metrics& m, double n) const {
    const auto per = [&](std::uint64_t v) {
      return ratio(static_cast<double>(v), n);
    };
    m["dsm.read_faults_per_query"] = per(node.read_faults);
    m["dsm.cache_hits_per_query"] = per(node.cache_hits);
    m["dsm.barriers_per_query"] = per(node.barriers);
    m["dsm.write_faults_per_query"] = per(node.write_faults);
    m["dsm.diffs_per_query"] = per(node.diffs_sent);
    m["dsm.diff_bytes_per_query"] = per(node.diff_bytes);
    m["dsm.invalidations_per_query"] = per(node.invalidations);
    m["dsm.lock_acquires_per_query"] = per(node.lock_acquires);
    m["dsm.cv_waits_per_query"] = per(node.cv_waits);
    m["net.msgs_per_query"] = per(net.msgs);
    m["net.bytes_per_query"] = per(net.bytes);
  }
};

/// submit -> ticket on the service under test, checked against the oracle.
/// Returns the service's run_s (dispatch -> completion).
double replay_service(svc::AlignService& service, const Workload& w,
                      std::size_t probe, const Expected& expected,
                      Trace& trace, std::uint64_t qid, GateTally& gate) {
  svc::QueryOutcome out;
  trace.timed("AlignService::submit->ticket", qid, [&] {
    out = service.submit(w.probes[probe]).ticket->wait();
  });
  ++gate.attempted;
  if (!out.ok || !answer_matches(w, expected, out.result)) ++gate.failed;
  return out.result.run_s;
}

dsm::DsmConfig private_cluster_config(int nodes) {
  // The service raises n_cvs to what its strategies need; mirror that.
  const svc::ServiceConfig defaults;
  dsm::DsmConfig d = defaults.dsm;
  d.n_cvs = std::max({d.n_cvs, 2 * nodes + 2,
                      static_cast<int>(defaults.mult_h) * nodes + 1});
  return d;
}

Metrics replay_db(const Workload& w, svc::AlignService& service,
                  const std::vector<Expected>& expected, Trace& trace,
                  const std::string& scratch_dir, GateTally& gate) {
  Metrics m;
  db::SubjectDb sdb;
  m["db.index_build_s"] = trace.timed("SubjectDb::SubjectDb", 0, [&] {
    sdb = db::SubjectDb(w.db_seqs, w.db_cfg);
  });
  const std::string index_path = scratch_dir + "/qgram-index-" +
                                 std::to_string(getpid()) + ".bin";
  sdb.save_index(index_path);
  m["db.index_open_s"] = trace.timed("SubjectDb::open_index", 0, [&] {
    (void)db::SubjectDb::open_index(w.db_seqs, index_path, w.db_cfg);
  });
  std::remove(index_path.c_str());

  dsm::Cluster cluster(w.nodes, private_cluster_config(w.nodes));
  db::DbShards shards;
  m["db.shard_place_s"] = trace.timed("DbShards::DbShards", 0, [&] {
    shards = db::DbShards(cluster, sdb);
  });
  cluster.run([](dsm::Node&) {});  // start the engine outside the timings

  double scanned = 0, rejected = 0, forwarded = 0, resolved = 0,
         confirmed = 0, seeds = 0, extensions = 0, cluster_path = 0,
         cells = 0, dp_s = 0;
  std::vector<double> filter_ms, scan_ms, cascade_ms, query_ms, dispatch_ms,
      overhead_ms, dp_ms;
  DsmTally tally;
  gdsm::simd::StripedCounters sc_sum;
  const std::size_t np = w.probes.size();
  const auto qid = [&](std::size_t i) { return kReplayQueryBase + i; };

  // Each layer sweeps every probe before the next layer starts, so every
  // call runs after a call of its own kind, with its own data hot in cache
  // (the service's db copy and this private copy do not share memory).
  // Two rounds; the medians span both.
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> run_s(np), f_s(np), s_s(np), q_s(np);
    std::vector<db::SubjectDb::ScanResult> scans(np);
    for (std::size_t i = 0; i < np; ++i) {
      run_s[i] = replay_service(service, w, i, expected[i], trace, qid(i),
                                gate);
    }
    for (std::size_t i = 0; i < np; ++i) {
      const svc::QuerySpec& p = w.probes[i];
      db::SubjectDb::Filtration filt;
      f_s[i] = trace.timed("SubjectDb::filter", qid(i), [&] {
        filt = sdb.filter(p.query, p.scheme, p.min_score);
      });
    }
    for (std::size_t i = 0; i < np; ++i) {
      const svc::QuerySpec& p = w.probes[i];
      s_s[i] = trace.timed("SubjectDb::scan", qid(i), [&] {
        scans[i] = sdb.scan(p.query, p.scheme, p.min_score);
      });
    }
    for (std::size_t i = 0; i < np; ++i) {
      const svc::QuerySpec& p = w.probes[i];
      // As the service does before every db query.
      gdsm::simd::warm_query_profile(
          p.query.data(), p.query.size(),
          gdsm::simd::ScoreParams{p.scheme.match, p.scheme.mismatch,
                                  p.scheme.gap, p.scheme.gap_open});
      const Traffic t0 = traffic(cluster);
      db::DbQueryResult r;
      q_s[i] = trace.timed("db::db_query", qid(i), [&] {
        r = db::db_query(cluster, sdb, shards, p.query, p.scheme,
                         p.min_score);
      });
      // db_query's documented split: more forwarded candidates than
      // direct_align_max go to the cluster, fewer are aligned in place.
      if (scans[i].forwarded.size() > sdb.config().direct_align_max) {
        tally.add(cluster.stats().total_node(), t0, traffic(cluster));
        ++cluster_path;
      }
      ++gate.attempted;
      if (r.hits != expected[i].hits) ++gate.failed;
      confirmed += static_cast<double>(r.cascade.dp_confirmed);
    }
    for (std::size_t i = 0; i < np; ++i) {
      const svc::QuerySpec& p = w.probes[i];
      std::vector<gdsm::Sequence> frags;
      for (const std::uint32_t id : scans[i].forwarded) {
        frags.push_back(sdb.fragment_seq(id));
        cells += static_cast<double>(p.query.size() * frags.back().size());
      }
      const gdsm::simd::StripedCounters k0 = gdsm::simd::striped_counters();
      int sink = 0;
      const double d_s = trace.timed("sw_best_score_linear", qid(i), [&] {
        for (const gdsm::Sequence& f : frags) {
          sink += gdsm::sw_best_score_linear(p.query, f, p.scheme).score;
        }
      });
      const gdsm::simd::StripedCounters k1 = gdsm::simd::striped_counters();
      if (sink == -1) std::puts("");  // keeps the kernel calls observable
      sc_sum.cells8 += k1.cells8 - k0.cells8;
      sc_sum.cells16 += k1.cells16 - k0.cells16;
      sc_sum.overflow_reruns += k1.overflow_reruns - k0.overflow_reruns;
      sc_sum.profile_hits += k1.profile_hits - k0.profile_hits;
      sc_sum.profile_builds += k1.profile_builds - k0.profile_builds;
      dp_ms.push_back(d_s * 1e3);
      dp_s += d_s;
    }
    for (std::size_t i = 0; i < np; ++i) {
      const db::SubjectDb::ScanResult& sc = scans[i];
      filter_ms.push_back(f_s[i] * 1e3);
      scan_ms.push_back(s_s[i] * 1e3);
      cascade_ms.push_back((s_s[i] - f_s[i]) * 1e3);
      query_ms.push_back(q_s[i] * 1e3);
      dispatch_ms.push_back((q_s[i] - s_s[i]) * 1e3);
      overhead_ms.push_back((run_s[i] - q_s[i]) * 1e3);
      scanned += static_cast<double>(sc.scanned);
      rejected += static_cast<double>(sc.rejected);
      forwarded += static_cast<double>(sc.forwarded.size());
      resolved += static_cast<double>(sc.resolved.size());
      seeds += static_cast<double>(sc.cascade.seeds);
      extensions += static_cast<double>(sc.cascade.extensions);
    }
  }

  const double n = static_cast<double>(kRounds * np);
  m["svc.overhead_ms_p50"] = quantile(overhead_ms, 0.5);
  m["db.filter_ms_p50"] = quantile(filter_ms, 0.5);
  m["db.scan_ms_p50"] = quantile(scan_ms, 0.5);
  m["db.cascade_ms_p50"] = quantile(cascade_ms, 0.5);
  m["db.query_ms_p50"] = quantile(query_ms, 0.5);
  m["db.dispatch_ms_p50"] = quantile(dispatch_ms, 0.5);
  m["db.filtration_ratio"] = ratio(rejected, scanned);
  m["db.forwarded_per_query"] = forwarded / n;
  m["db.cluster_path_share"] = cluster_path / n;
  m["db.cascade_resolve_ratio"] = ratio(resolved, resolved + forwarded);
  m["db.dp_hit_ratio"] = ratio(confirmed, forwarded);
  m["db.seeds_per_query"] = seeds / n;
  m["db.extensions_per_query"] = extensions / n;
  m["simd.dp_ms_p50"] = quantile(dp_ms, 0.5);
  m["simd.gcups"] = ratio(cells, dp_s) / 1e9;
  m["simd.cells_per_query"] = cells / n;
  m["simd.cells16_share"] =
      ratio(static_cast<double>(sc_sum.cells16),
            static_cast<double>(sc_sum.cells8 + sc_sum.cells16));
  m["simd.overflow_reruns_per_query"] =
      static_cast<double>(sc_sum.overflow_reruns) / n;
  m["simd.profile_hit_ratio"] =
      ratio(static_cast<double>(sc_sum.profile_hits),
            static_cast<double>(sc_sum.profile_hits + sc_sum.profile_builds));
  tally.put(m, n);
  for (const char* name : kCoreMetrics) m[name] = 0;
  return m;
}

Metrics replay_pair(const Workload& w, svc::AlignService& service,
                    const std::vector<Expected>& expected, Trace& trace,
                    GateTally& gate) {
  Metrics m;
  dsm::Cluster cluster(w.nodes, private_cluster_config(w.nodes));
  const std::size_t bytes = w.subject.size() * sizeof(gdsm::Base);
  const dsm::GlobalAddr addr = cluster.alloc_striped(bytes);
  cluster.host_write(addr, w.subject.data(), bytes);
  cluster.retain_range(addr, bytes);

  // Same decomposition and residency as the service's kBlocked dispatch.
  const svc::ServiceConfig defaults;
  gdsm::core::BlockedConfig bc;
  bc.nprocs = w.nodes;
  bc.mult_w = defaults.mult_w;
  bc.mult_h = defaults.mult_h;
  bc.cluster = &cluster;
  bc.resident_t_addr = addr;
  bc.resident_t_size = w.subject.size();
  // Warm-up: engine start and the subject's first faults stay untimed.
  (void)gdsm::core::blocked_align(w.probes[0].query, w.subject, bc);

  // Layer by layer over every probe, as in replay_db.
  const std::size_t np = w.probes.size();
  const auto qid = [&](std::size_t i) { return kReplayQueryBase + i; };
  std::vector<double> run_s(np), blocked_ms(np), serial_ms(np),
      overhead_ms(np);
  DsmTally tally;
  for (std::size_t i = 0; i < np; ++i) {
    run_s[i] = replay_service(service, w, i, expected[i], trace, qid(i), gate);
  }
  for (std::size_t i = 0; i < np; ++i) {
    const svc::QuerySpec& p = w.probes[i];
    bc.scheme = p.scheme;
    bc.params = p.params;
    const Traffic t0 = traffic(cluster);
    gdsm::core::StrategyResult r;
    const double b_s = trace.timed("core::blocked_align", qid(i), [&] {
      r = gdsm::core::blocked_align(p.query, w.subject, bc);
    });
    tally.add(r.dsm_stats.total_node(), t0, traffic(cluster));
    ++gate.attempted;
    if (r.candidates != expected[i].candidates) ++gate.failed;
    blocked_ms[i] = b_s * 1e3;
    overhead_ms[i] = (run_s[i] - b_s) * 1e3;
  }
  for (std::size_t i = 0; i < np; ++i) {
    const svc::QuerySpec& p = w.probes[i];
    std::vector<gdsm::Candidate> serial;
    serial_ms[i] = 1e3 * trace.timed("heuristic_scan", qid(i), [&] {
      serial = gdsm::heuristic_scan(p.query, w.subject, p.scheme, p.params);
    });
  }

  const double n = static_cast<double>(w.probes.size());
  m["svc.overhead_ms_p50"] = quantile(overhead_ms, 0.5);
  m["core.blocked_ms_p50"] = quantile(blocked_ms, 0.5);
  m["core.serial_ms_p50"] = quantile(serial_ms, 0.5);
  m["core.speedup"] = ratio(m["core.serial_ms_p50"], m["core.blocked_ms_p50"]);
  m["core.efficiency"] = m["core.speedup"] / w.nodes;
  tally.put(m, n);
  for (const char* name : kDbMetrics) m[name] = 0;
  return m;
}

}  // namespace

Metrics replay_layers(const Workload& w, svc::AlignService& service,
                      const std::vector<Expected>& expected, Trace& trace,
                      const std::string& scratch_dir, GateTally& gate) {
  return w.is_db ? replay_db(w, service, expected, trace, scratch_dir, gate)
                 : replay_pair(w, service, expected, trace, gate);
}

}  // namespace perfbench
