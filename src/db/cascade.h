// The seed-and-extend cascade: certified host-side resolution of database
// candidates between the q-gram filtration bound and full strategy DP.
//
// For a stage-1 survivor (exact seeded-run bound U >= min_score) the
// cascade chains the fragment's seed occurrences on diagonals
// (blast::chain_seed_runs) and X-drop-extends the longest runs ungapped
// (blast::extend_ungapped_xdrop with an unbounded drop, so the extension
// is the maximal-scoring segment on the seed's diagonal).  The best
// extension score `ext` is the score of a real alignment — a certified
// lower bound on the true score.  Whenever ext > B0 (the query's no-seed
// bound) it anchors an exact, banded resolution of the whole candidate:
//
//   - Every alignment scoring >= ext (> B0) contains a match run of
//     length >= q — alignments without one are capped at B0 — and so
//     passes through one of the gathered seed diagonals.
//   - An alignment scoring >= ext has at most
//     g_max = (match * min(m, n) - ext) / (-gap) gap columns, so it never
//     drifts more than g_max diagonals from that seed.
//   - Run the DP restricted to the union of +-g_max bands around the seed
//     diagonals and call its maximum R.  The extension segment lies
//     in-band, so R >= ext.  Any full-matrix alignment scoring above R
//     scores >= ext and is therefore entirely in-band — the restricted DP
//     would have found it.  Hence the full-matrix maximum IS R, the two
//     matrices agree on every score-R cell, and picking the first of them
//     under the reference kernel's tie-break reproduces the kernel's
//     answer exactly (db_query stays hit-for-hit identical to
//     brute_force_hits).  docs/SERVICE.md "Cascade" has the derivation.
//
// A resolution is exact whatever R turns out to be: R >= min_score is a
// certified hit with canonical coordinates, R < min_score a certified
// reject — either way the candidate skips full DP entirely.  Candidates
// whose extensions stay <= B0 (or whose bands would cover too much of the
// matrix to be worth a scalar pass) are forwarded — the cascade never
// drops anything full DP would have kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "blast/words.h"
#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm::db {

/// Funnel counters of the cascade, accumulated per query and process-wide
/// by the db meter (schema v10 `db.cascade`, docs/METRICS.md).
struct CascadeCounters {
  std::uint64_t seeds = 0;       ///< seed occurrences gathered for survivors
  std::uint64_t chains = 0;      ///< diagonal runs after two-hit joining
  std::uint64_t extensions = 0;  ///< X-drop extensions executed
  std::uint64_t dp_skipped_by_bound = 0;  ///< candidates certified, no DP
  std::uint64_t dp_confirmed = 0;  ///< forwarded candidates DP kept >= min

  CascadeCounters& operator+=(const CascadeCounters& o) {
    seeds += o.seeds;
    chains += o.chains;
    extensions += o.extensions;
    dp_skipped_by_bound += o.dp_skipped_by_bound;
    dp_confirmed += o.dp_confirmed;
    return *this;
  }
};

/// Reusable per-thread buffers: a scan loop passes the same scratch to
/// every candidate so the hot path stops allocating once warm.
struct CascadeScratch {
  std::vector<blast::SeedPair> pairs;  ///< input: this candidate's seeds
  std::vector<blast::SeedPair> sort_scratch;
  std::vector<blast::SeedRun> runs;
  std::vector<std::pair<std::int64_t, std::int64_t>> bands;
  std::vector<int> h;  ///< restricted-DP H row
  std::vector<int> f;  ///< restricted-DP F row (affine)
};

struct CascadeOutcome {
  bool resolved = false;  ///< certificate held: score/end_* are exact
  int score = 0;
  std::uint32_t end_i = 0;  ///< 1-based end in the query, kernel tie-break
  std::uint32_t end_j = 0;  ///< 1-based end in the fragment
  std::uint32_t chains = 0;
  std::uint32_t extensions = 0;
};

/// Attempts to certify one stage-1 survivor.  `scratch.pairs` holds the
/// candidate's seed occurrences (q_pos = query window start, s_pos =
/// position in the fragment); `exact_bound` is the candidate's seeded-run
/// bound U and `no_seed_bound` the query's B0.  Never resolves under a
/// degenerate scheme (match <= 0, mismatch >= 0, or gap >= 0) — the
/// certificate's arithmetic needs real penalties.
CascadeOutcome cascade_try_resolve(const Sequence& query, const Base* frag,
                                   std::size_t frag_len,
                                   const ScoreScheme& scheme, int exact_bound,
                                   int no_seed_bound, std::size_t q,
                                   CascadeScratch& scratch);

}  // namespace gdsm::db
