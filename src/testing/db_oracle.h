// The database differential oracle.
//
// db_query (src/db/db_align.h) claims exactness: filtration plus the
// shard-parallel scan returns hit-for-hit what the serial all-pairs
// reference brute_force_hits returns, for either gap model, on either DSM
// backend and under any injected fault plan.  The oracle fuzzes that
// claim: it generates a seeded database and query mix (random probes plus
// mutated copies of database windows, so both filtration outcomes are
// exercised), runs every query through both paths on a live cluster, and
// reports the first divergence.  tests/db_test.cpp asserts the verdict;
// tools/fuzz_align --db searches the (seed, plan) space and minimizes
// failures.
#pragma once

#include <cstdint>
#include <string>

#include "db/subject_db.h"
#include "dsm/config.h"
#include "net/fault.h"
#include "sw/scoring.h"

namespace gdsm::testing {

/// One oracle input.  Everything is deterministic in the fields, so a
/// failing case IS its own reproduction recipe.
struct DbOracleCase {
  std::uint64_t seed = 1;
  std::size_t n_sequences = 4;   ///< database sequences
  std::size_t seq_len = 600;     ///< bases per database sequence
  std::size_t n_queries = 5;
  std::size_t query_len = 120;
  int nprocs = 4;
  db::DbConfig db_cfg{};
  ScoreScheme scheme{};
  int min_score = 30;
  dsm::RetryPolicy retry{};
  net::FaultPlan faults{};

  /// "seed=N db=SxL queries=QxM procs=P min=K gap=<model> faults=<plan>"
  /// (the repro line).
  std::string to_string() const;
};

struct DbOracleVerdict {
  bool ok = true;
  std::size_t queries = 0;             ///< queries compared
  std::size_t mismatched_queries = 0;  ///< queries whose hit sets diverged
  std::size_t total_hits = 0;          ///< brute-force hits, all queries
  std::size_t fragments_scanned = 0;   ///< db_query counters, all queries
  std::size_t fragments_rejected = 0;
  std::string detail;  ///< first divergence, human-readable; empty when ok

  /// One line: "N queries, H hits, R/S rejected: OK" / the divergence.
  std::string summary() const;
};

/// Builds the deterministic database + query mix of `c`, stands up a
/// cluster with the case's retry/fault configuration, and compares
/// db_query against brute_force_hits on every query.
DbOracleVerdict run_db_differential(const DbOracleCase& c);

/// Greedily shrinks a failing case (fewer/shorter sequences, fewer/shorter
/// queries, fewer processors — the fault plan is preserved, it is part of
/// the repro) while it keeps failing.  Returns `c` unchanged if it does
/// not fail.
DbOracleCase minimize_db(DbOracleCase c);

}  // namespace gdsm::testing
