// Workload generation, service shapes and the serial oracles.
//
// Sizes follow README.md "Workloads": no db is larger than 2 Mbp (bigger
// ones spill a core's 2 MiB L2 and stop repeating run to run), and the
// computing threads (cluster nodes + service workers) never exceed four.
#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "sw/heuristic_scan.h"
#include "util/genome.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using gdsm::Rng;
using gdsm::Sequence;
namespace svc = gdsm::svc;

constexpr std::size_t kProbeLen = 150;
constexpr std::size_t kPairProbeLen = 250;

/// A window of one db sequence, mutated, or random DNA: even probes are
/// homologs that must hit, odd probes are unrelated traffic.
Sequence db_probe(const std::vector<Sequence>& seqs, std::size_t i,
                  double subst, double indel, Rng& rng) {
  if (i % 2 == 1) return gdsm::random_dna(kProbeLen, rng);
  const Sequence& src = seqs[rng.below(seqs.size())];
  const std::size_t begin = rng.below(src.size() - kProbeLen);
  return gdsm::mutate(src.slice(begin, begin + kProbeLen), subst, indel, rng);
}

Workload db_scan(std::uint64_t seed) {
  Workload w;
  w.name = "db_scan";
  w.nodes = 2;
  w.workers = 2;
  w.closed_qps = 500;
  w.open_rate_qps = 60;
  w.warm = 20;
  w.burst = 250;
  w.open_queries = 105;
  Rng rng(seed);
  for (int k = 0; k < 4; ++k) {
    w.db_seqs.push_back(
        gdsm::random_dna(250'000, rng, "db" + std::to_string(k)));
  }
  for (std::size_t i = 0; i < 64; ++i) {
    svc::QuerySpec spec;
    spec.database = "db";
    spec.min_score = 120;
    spec.query = db_probe(w.db_seqs, i, 0.02, 0.0, rng);
    w.probes.push_back(std::move(spec));
  }
  return w;
}

Workload db_sensitive(std::uint64_t seed) {
  Workload w;
  w.name = "db_sensitive";
  w.nodes = 2;
  w.workers = 2;
  w.closed_qps = 145;
  w.open_rate_qps = 30;
  w.warm = 10;
  w.burst = 140;
  w.open_queries = 100;
  Rng rng(seed);
  for (int k = 0; k < 2; ++k) {
    w.db_seqs.push_back(
        gdsm::random_dna(128'000, rng, "db" + std::to_string(k)));
  }
  gdsm::ScoreScheme affine;
  affine.gap_open = -3;
  for (std::size_t i = 0; i < 64; ++i) {
    svc::QuerySpec spec;
    spec.database = "db";
    // Below the no-seed bound of a 150-bp probe, so the q-gram filter can
    // reject almost nothing and every fragment reaches the cascade.
    spec.min_score = 80;
    spec.query = db_probe(w.db_seqs, i, 0.12, 0.03, rng);
    if ((i / 2) % 2 == 1) spec.scheme = affine;
    w.probes.push_back(std::move(spec));
  }
  return w;
}

Workload pair_blocked(std::uint64_t seed) {
  Workload w;
  w.name = "pair_blocked";
  w.is_db = false;
  w.nodes = 3;
  w.workers = 1;
  w.closed_qps = 140;
  w.open_rate_qps = 24;
  w.setups = 16;
  w.warm = 5;
  w.burst = 100;
  w.open_queries = 100;
  Rng rng(seed);
  w.subject = gdsm::random_dna(1'000, rng, "subject");
  for (std::size_t i = 0; i < 16; ++i) {
    const std::size_t begin = rng.below(w.subject.size() - kPairProbeLen);
    svc::QuerySpec spec;
    spec.subject = "subject";
    spec.strategy = svc::StrategyKind::kBlocked;
    spec.query = gdsm::mutate(
        w.subject.slice(begin, begin + kPairProbeLen), 0.05, 0.01, rng);
    w.probes.push_back(std::move(spec));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "db_scan") {
    w = db_scan(seed);
  } else if (name == "db_sensitive") {
    w = db_sensitive(seed);
  } else if (name == "pair_blocked") {
    w = pair_blocked(seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (std::size_t i = 0; i < w.probes.size(); ++i) {
    w.probes[i].query.set_name("probe" + std::to_string(i));
  }
  return w;
}

svc::ServiceConfig service_config(const Workload& w) {
  svc::ServiceConfig cfg;
  cfg.nprocs = w.nodes;
  cfg.workers = w.workers;
  cfg.queue_capacity = 256;
  return cfg;
}

void load_inputs(svc::AlignService& svc, const Workload& w) {
  if (w.is_db) {
    svc.load_db("db", w.db_seqs, w.db_cfg);
  } else {
    svc.load_subject(w.subject);
  }
}

Oracle compute_oracle(const Workload& w, std::size_t probes) {
  Oracle out;
  out.answers.resize(std::min(probes, w.probes.size()));
  gdsm::db::SubjectDb db;
  if (w.is_db) db = gdsm::db::SubjectDb(w.db_seqs, w.db_cfg);
  out.db_fragments = db.fragments().size();
  // The oracle runs before any timed phase, with the service idle, so it
  // may use every core.
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next++) < out.answers.size();) {
      const svc::QuerySpec& p = w.probes[i];
      if (w.is_db) {
        out.answers[i].hits =
            gdsm::db::brute_force_hits(db, p.query, p.scheme, p.min_score);
      } else {
        out.answers[i].candidates =
            gdsm::heuristic_scan(p.query, w.subject, p.scheme, p.params);
      }
    }
  };
  std::vector<std::future<void>> jobs;
  for (int t = 0; t < 4; ++t) {
    jobs.push_back(std::async(std::launch::async, work));
  }
  for (auto& j : jobs) j.get();
  return out;
}

bool answer_matches(const Workload& w, const Expected& e,
                    const svc::QueryResult& r) {
  return w.is_db ? r.db_hits == e.hits : r.candidates == e.candidates;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace perfbench
