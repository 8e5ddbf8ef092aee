#include "testing/db_oracle.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "db/db_align.h"
#include "dsm/cluster.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm::testing {
namespace {

/// The deterministic database of a case: n_sequences random sequences.
std::vector<Sequence> make_database(const DbOracleCase& c, Rng& rng) {
  std::vector<Sequence> seqs;
  seqs.reserve(c.n_sequences);
  for (std::size_t i = 0; i < c.n_sequences; ++i) {
    seqs.push_back(random_dna(c.seq_len, rng, "db" + std::to_string(i)));
  }
  return seqs;
}

/// The query mix: odd indices are pure random probes (filtration should
/// reject almost everything), even indices are mutated copies of database
/// windows (filtration must keep the homologous fragment).
std::vector<Sequence> make_queries(const DbOracleCase& c,
                                   const std::vector<Sequence>& seqs,
                                   Rng& rng) {
  std::vector<Sequence> queries;
  queries.reserve(c.n_queries);
  for (std::size_t k = 0; k < c.n_queries; ++k) {
    const std::string name = "q" + std::to_string(k);
    if (k % 2 == 1 || seqs.empty()) {
      queries.push_back(random_dna(c.query_len, rng, name));
      continue;
    }
    const Sequence& src = seqs[rng.below(seqs.size())];
    const std::size_t len = std::min(c.query_len, src.size());
    const std::size_t begin =
        src.size() > len ? rng.below(src.size() - len + 1) : 0;
    Sequence probe = mutate(src.slice(begin, begin + len), 0.05, 0.01, rng);
    probe.set_name(name);
    queries.push_back(std::move(probe));
  }
  return queries;
}

std::string diff_hits(const std::vector<db::DbHit>& expected,
                      const std::vector<db::DbHit>& got) {
  std::ostringstream os;
  os << "expected " << expected.size() << " hits, got " << got.size();
  const std::size_t n = std::min(expected.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] == got[i]) continue;
    const db::DbHit& e = expected[i];
    const db::DbHit& g = got[i];
    os << "; first mismatch at [" << i << "]: expected (frag=" << e.fragment
       << " score=" << e.score << " end=" << e.end_i << "," << e.end_j
       << "), got (frag=" << g.fragment << " score=" << g.score
       << " end=" << g.end_i << "," << g.end_j << ")";
    break;
  }
  return os.str();
}

}  // namespace

std::string DbOracleCase::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed << " db=" << n_sequences << "x" << seq_len
     << " queries=" << n_queries << "x" << query_len << " procs=" << nprocs
     << " min=" << min_score << " gap=" << gap_model_name(scheme.gap_model());
  if (scheme.affine()) {
    os << "(" << scheme.gap_open << "," << scheme.gap << ")";
  }
  os << " faults=" << faults.to_string();
  return os.str();
}

std::string DbOracleVerdict::summary() const {
  std::ostringstream os;
  os << queries << " queries, " << total_hits << " hits, "
     << fragments_rejected << "/" << fragments_scanned << " rejected: ";
  if (ok) {
    os << "OK";
  } else {
    os << mismatched_queries << " divergent (" << detail << ")";
  }
  return os.str();
}

DbOracleVerdict run_db_differential(const DbOracleCase& c) {
  DbOracleVerdict v;
  Rng rng(c.seed);
  const std::vector<Sequence> seqs = make_database(c, rng);
  const std::vector<Sequence> queries = make_queries(c, seqs, rng);
  const db::SubjectDb db(seqs, c.db_cfg);

  dsm::DsmConfig dsm_cfg;
  dsm_cfg.retry = c.retry;
  dsm_cfg.faults = c.faults;
  dsm::Cluster cluster(c.nprocs, dsm_cfg);
  const db::DbShards shards(cluster, db);

  for (std::size_t k = 0; k < queries.size(); ++k) {
    const std::vector<db::DbHit> expected =
        db::brute_force_hits(db, queries[k], c.scheme, c.min_score);
    const db::DbQueryResult got =
        db::db_query(cluster, db, shards, queries[k], c.scheme, c.min_score);
    ++v.queries;
    v.total_hits += expected.size();
    v.fragments_scanned += got.fragments_scanned;
    v.fragments_rejected += got.fragments_rejected;
    if (got.hits != expected) {
      v.ok = false;
      ++v.mismatched_queries;
      if (v.detail.empty()) {
        v.detail = "query " + std::to_string(k) + ": " +
                   diff_hits(expected, got.hits);
      }
    }
  }
  return v;
}

DbOracleCase minimize_db(DbOracleCase c) {
  if (run_db_differential(c).ok) return c;
  // Greedy shrink, one dimension at a time, re-checking after each cut.
  const auto still_fails = [](const DbOracleCase& t) {
    return !run_db_differential(t).ok;
  };
  for (bool shrunk = true; shrunk;) {
    shrunk = false;
    DbOracleCase t = c;
    if (t.n_sequences > 1) {
      t.n_sequences /= 2;
      if (still_fails(t)) { c = t; shrunk = true; continue; }
    }
    t = c;
    if (t.seq_len > 64) {
      t.seq_len /= 2;
      if (still_fails(t)) { c = t; shrunk = true; continue; }
    }
    t = c;
    if (t.n_queries > 1) {
      t.n_queries = (t.n_queries + 1) / 2;
      if (still_fails(t)) { c = t; shrunk = true; continue; }
    }
    t = c;
    if (t.query_len > 32) {
      t.query_len /= 2;
      if (still_fails(t)) { c = t; shrunk = true; continue; }
    }
    t = c;
    if (t.nprocs > 1) {
      t.nprocs /= 2;
      if (still_fails(t)) { c = t; shrunk = true; continue; }
    }
  }
  return c;
}

}  // namespace gdsm::testing
