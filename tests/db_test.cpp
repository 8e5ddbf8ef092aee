// Database-serving tests: fragment partitioning, exact filtration, the
// sharded scan against its serial all-pairs oracle (>= 1000 fuzzed
// query/database cases across gap models and an injected fault plan), and
// the service path (load_db admission, shard reads, verify mode, error
// reporting).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "db/db_align.h"
#include "db/subject_db.h"
#include "dsm/cluster.h"
#include "svc/service.h"
#include "svc/stats.h"
#include "sw/linear_score.h"
#include "testing/db_oracle.h"
#include "testing/oracle.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm {
namespace {

std::vector<Sequence> make_db_sequences(std::size_t n, std::size_t len,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < n; ++i) {
    seqs.push_back(random_dna(len, rng, "chr" + std::to_string(i)));
  }
  return seqs;
}

Sequence make_probe(const Sequence& src, std::size_t begin, std::size_t len,
                    std::uint64_t seed) {
  Rng rng(seed);
  Sequence probe = mutate(src.slice(begin, begin + len), 0.05, 0.01, rng);
  probe.set_name("probe");
  return probe;
}

Sequence make_random_probe(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  return random_dna(len, rng, "probe");
}

// ----------------------------------------------------------- SubjectDb --

TEST(SubjectDb, FragmentsTileEverySequenceWithOverlap) {
  const auto seqs = make_db_sequences(3, 700, 101);
  db::DbConfig cfg;
  cfg.fragment_len = 256;
  cfg.overlap = 24;
  const db::SubjectDb db(seqs, cfg);
  ASSERT_FALSE(db.fragments().empty());
  EXPECT_EQ(db.total_bases(), 3u * 700u);

  std::vector<std::uint32_t> last_end(seqs.size(), 0);
  std::vector<std::uint32_t> last_begin(seqs.size(), 0);
  std::set<std::uint32_t> ids;
  for (const db::Fragment& f : db.fragments()) {
    ASSERT_LT(f.seq_index, seqs.size());
    EXPECT_TRUE(ids.insert(f.id).second) << "duplicate fragment id";
    EXPECT_LT(f.begin, f.end);
    EXPECT_LE(f.end, seqs[f.seq_index].size());
    EXPECT_LE(f.end - f.begin, cfg.fragment_len);
    if (last_end[f.seq_index] > 0) {
      // Consecutive windows of one sequence share `overlap` bases, so an
      // alignment crossing the cut survives in one of the two.
      EXPECT_EQ(f.begin, last_begin[f.seq_index] + cfg.fragment_len -
                             cfg.overlap);
    } else {
      EXPECT_EQ(f.begin, 0u);
    }
    last_end[f.seq_index] = f.end;
    last_begin[f.seq_index] = f.begin;
    // fragment_seq materializes exactly the window.
    const Sequence fs = db.fragment_seq(f.id);
    EXPECT_EQ(fs.size(), f.end - f.begin);
    EXPECT_EQ(fs, seqs[f.seq_index].slice(f.begin, f.end));
  }
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(last_end[i], seqs[i].size()) << "sequence " << i << " not tiled";
  }
}

TEST(SubjectDb, FilterRejectsOnlyProvablyHopelessFragments) {
  const auto seqs = make_db_sequences(4, 500, 102);
  const db::SubjectDb db(seqs, {});
  Rng rng(103);
  const Sequence query = random_dna(100, rng, "q");
  // Well above what chance q-gram collisions can justify for a 100-base
  // probe (the no-seed ceiling is ~60; sparse accidental seeds add ~20).
  const int min_score = 90;

  for (const ScoreScheme sc :
       {ScoreScheme{}, ScoreScheme{1, -1, -1, -3}}) {
    const db::SubjectDb::Filtration f = db.filter(query, sc, min_score);
    EXPECT_EQ(f.scanned, db.fragments().size());
    EXPECT_EQ(f.rejected + f.survivors.size(), f.scanned);
    EXPECT_GT(f.rejected, 0u) << "random probe should reject fragments";
    const std::set<std::uint32_t> kept(f.survivors.begin(), f.survivors.end());
    for (const db::Fragment& frag : db.fragments()) {
      if (kept.count(frag.id)) continue;
      // Exactness: a rejected fragment must truly score below min_score.
      const int truth =
          sw_best_score_linear(query, db.fragment_seq(frag.id), sc).score;
      EXPECT_LT(truth, min_score) << "fragment " << frag.id << " lost a hit";
    }
  }
}

// ------------------------------------------------- differential oracle --

// The acceptance sweep: >= 1000 fuzzed (query, database) comparisons of
// db_query against brute_force_hits, rotating gap model and report
// threshold so filtration is exercised both when it bites and when
// it passes everything through.
TEST(DbOracle, FuzzedQueriesMatchBruteForce) {
  std::size_t compared = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    testing::DbOracleCase c;
    c.seed = seed;
    c.n_sequences = 3;
    c.seq_len = 400;
    c.n_queries = 25;
    c.query_len = 100;
    c.nprocs = (seed % 2 == 0) ? 4 : 3;
    if (seed % 2 == 0) {
      c.scheme.gap_open = -3;
      c.scheme.gap = -1;
    }
    // Rotate the threshold across the filtration regimes: permissive (all
    // fragments survive), mid, and aggressive (random probes mostly
    // rejected, homologous probes must still come through).
    c.min_score = (seed % 3 == 0) ? 25 : (seed % 3 == 1 ? 45 : 80);
    const testing::DbOracleVerdict v = run_db_differential(c);
    ASSERT_TRUE(v.ok) << c.to_string() << " -> " << v.summary();
    EXPECT_EQ(v.queries, c.n_queries);
    compared += v.queries;
    rejected += v.fragments_rejected;
  }
  EXPECT_GE(compared, 1000u);
  EXPECT_GT(rejected, 0u);  // the aggressive-threshold cases filtered
}

TEST(DbOracle, SurvivesInjectedFaults) {
  // The representative plan of the acceptance matrix: everything at once
  // (drop + reorder + delay + a partition window), with the retry layer
  // turned on so dropped messages are recovered.
  testing::DbOracleCase c;
  c.seed = 904;
  c.n_queries = 6;
  c.retry.timeout_us = 2000;
  c.retry.max_retries = 64;
  c.faults = testing::standard_fault_plans(904).back();
  ASSERT_TRUE(c.faults.enabled());
  const testing::DbOracleVerdict v = run_db_differential(c);
  EXPECT_TRUE(v.ok) << c.to_string() << " -> " << v.summary();
}

TEST(DbOracle, MinimizeKeepsPassingCasesUntouched) {
  testing::DbOracleCase c;
  c.seed = 7;
  const testing::DbOracleCase m = testing::minimize_db(c);
  EXPECT_EQ(m.to_string(), c.to_string());
}

TEST(DbOracle, ReproLineCarriesTheCase) {
  testing::DbOracleCase c;
  c.seed = 42;
  c.scheme.gap_open = -3;
  c.faults = testing::standard_fault_plans(42)[0];
  const std::string repro = c.to_string();
  EXPECT_NE(repro.find("seed=42"), std::string::npos);
  EXPECT_NE(repro.find("gap=affine"), std::string::npos);
  EXPECT_NE(repro.find("faults="), std::string::npos);
}

// ------------------------------------------------------------- service --

TEST(DbService, ServesDatabaseQueriesExactly) {
  const auto seqs = make_db_sequences(3, 600, 201);
  const db::SubjectDb reference_db(seqs, {});

  svc::ServiceConfig cfg;
  cfg.nprocs = 4;
  cfg.verify = true;  // in-service brute-force oracle must agree too
  svc::AlignService service(cfg);
  service.load_db("nt", seqs);
  EXPECT_TRUE(service.has_db("nt"));
  EXPECT_FALSE(service.has_db("missing"));

  for (std::uint64_t k = 0; k < 4; ++k) {
    const Sequence probe =
        k % 2 == 0 ? make_probe(seqs[k % seqs.size()], 150, 120, 300 + k)
                   : make_random_probe(120, 300 + k);
    svc::QuerySpec spec;
    spec.database = "nt";
    spec.query = probe;
    spec.min_score = 40;
    const auto adm = service.submit(std::move(spec));
    ASSERT_TRUE(adm.admitted());
    const svc::QueryOutcome& out = adm.ticket->wait();
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.result.strategy, svc::StrategyKind::kDbScan);
    const auto expected =
        db::brute_force_hits(reference_db, probe, ScoreScheme{}, 40);
    EXPECT_EQ(out.result.db_hits, expected);
    EXPECT_EQ(out.result.db_fragments_scanned, reference_db.fragments().size());
    if (k % 2 == 0) {
      EXPECT_FALSE(out.result.db_hits.empty());
    }
  }

  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.db_queries, 4u);
  EXPECT_GT(stats.db_fragments_scanned, 0u);
}

TEST(DbService, ShardReadsNeverFault) {
  // A fragment is read only by its owner, straight from its home copy, so
  // no shard page is ever fetched or cached: a repeated query faults
  // exactly as often as the first (only the per-query scratch pages
  // fault), and a database query is never reported warm.
  const auto seqs = make_db_sequences(2, 800, 202);
  svc::ServiceConfig cfg;
  cfg.nprocs = 2;
  svc::AlignService service(cfg);
  db::DbConfig db_cfg;
  db_cfg.direct_align_max = 0;  // every survivor takes the cluster path
  service.load_db("nt", seqs, db_cfg);
  const Sequence probe = make_probe(seqs[0], 100, 150, 203);

  const auto run_one = [&] {
    svc::QuerySpec spec;
    spec.database = "nt";
    spec.query = probe;
    spec.min_score = 40;
    const auto adm = service.submit(std::move(spec));
    const svc::QueryOutcome& out = adm.ticket->wait();
    EXPECT_TRUE(out.ok) << out.error;
    return out.result;
  };
  const svc::QueryResult first = run_one();
  const svc::QueryResult second = run_one();
  ASSERT_GT(first.db_fragments_aligned, 0u);  // the cluster job ran
  EXPECT_EQ(first.read_faults, second.read_faults);
  EXPECT_FALSE(first.warm);
  EXPECT_FALSE(second.warm);
}

TEST(DbService, RejectsBadDatabaseQueries) {
  const auto seqs = make_db_sequences(1, 400, 204);
  svc::ServiceConfig cfg;
  cfg.nprocs = 2;
  svc::AlignService service(cfg);
  service.load_db("nt", seqs);
  EXPECT_THROW(service.load_db("nt", seqs), std::invalid_argument);

  Rng rng(205);
  const Sequence probe = random_dna(80, rng, "probe");

  svc::QuerySpec unknown;
  unknown.database = "nope";
  unknown.query = probe;
  unknown.min_score = 10;
  const auto out1 = service.submit(std::move(unknown)).ticket->wait();
  EXPECT_FALSE(out1.ok);
  EXPECT_NE(out1.error.find("unknown database"), std::string::npos);

  svc::QuerySpec no_threshold;
  no_threshold.database = "nt";
  no_threshold.query = probe;
  const auto out2 = service.submit(std::move(no_threshold)).ticket->wait();
  EXPECT_FALSE(out2.ok);
  EXPECT_NE(out2.error.find("min_score"), std::string::npos);

  svc::QuerySpec wrong_strategy;
  wrong_strategy.database = "nt";
  wrong_strategy.query = probe;
  wrong_strategy.min_score = 10;
  wrong_strategy.strategy = svc::StrategyKind::kExact;
  const auto out3 = service.submit(std::move(wrong_strategy)).ticket->wait();
  EXPECT_FALSE(out3.ok);
  EXPECT_NE(out3.error.find("db_scan"), std::string::npos);
}

}  // namespace
}  // namespace gdsm
