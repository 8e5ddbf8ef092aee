// The multi-sequence subject database and its filtration front-end.
//
// Production traffic is a query against a *database*, not one resident
// subject: a SubjectDb holds many FASTA sequences partitioned into
// fixed-size overlapping fragments, plus a positional q-gram index
// (qgram_index.h) over the fragments.  A db query runs two stages
// (docs/SERVICE.md "Database serving"):
//
//   1. q-gram bound — every fragment is screened with an admissible score
//      upper bound computed from which query q-grams occur in it; a
//      fragment whose bound falls below the report threshold provably
//      cannot contain a reportable hit and is discarded without alignment
//      (zero missed hits by construction).  "Which q-grams occur" is a
//      per-query seed bitmap, one bit per (fragment, query window), set
//      with one OR per posting of the query's windows.  A constant-time
//      prefilter (min(match * m, B0 + |S| * (match + p)), |S| the row's
//      popcount — see filter()) skips the bound DP entirely for fragments
//      it already condemns; the rest get the DP, batched 8 per AVX2
//      vector or one by one, both reading the bitmap rows.
//   2. full DP — every survivor is scored by the inter-sequence batch
//      kernel, 32 fragments per tile (simd/batch.h), on the cluster or
//      host-side when the survivors are too few to amortize a cluster
//      dispatch (db_align.h).
//
// The stage-1 bound (docs/SERVICE.md has the derivation): any run of >= q
// consecutive match columns in a local alignment is an exact q-length
// occurrence of a query window in the fragment, so every q-window inside
// the run must be a *seed*.  A small DP over query positions — state =
// current match-run length capped at q-1 — maximizes +match per match
// column, -min(-mismatch, -gap) per error column, with runs allowed past
// length q-1 only across seeded windows.  The DP dominates every real
// alignment column-for-column, so bound >= true Smith-Waterman score
// always (the property tests assert this on adversarial pairs).
//
// The index can be persisted (save_index) and mmap-ed back (open_index) so
// a warm load skips the cold build; the file is versioned and checksummed
// against the sequences (qgram_index.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/qgram_index.h"
#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm::db {

/// Counters of the deleted seed-and-extend stage, kept only because the
/// serving benchmark (perfbench/) still reads them: `seeds` and
/// `extensions` are always 0.  `dp_confirmed` counts the forwarded
/// candidates whose full DP reached min_score.
struct CascadeCounters {
  std::uint64_t seeds = 0;
  std::uint64_t extensions = 0;
  std::uint64_t dp_confirmed = 0;
};

struct DbConfig {
  /// Fragment partition width, in bases.  Fragments are the filtration and
  /// scheduling granule: hits are reported per fragment.
  std::size_t fragment_len = 256;
  /// Adjacent fragments of one sequence overlap by this many bases, so an
  /// alignment spanning a cut point survives intact in one of its
  /// neighbours.
  std::size_t overlap = 24;
  /// q-gram length of the filtration index (clamped to [2, 15]).  q trades
  /// seed sparsity against the no-seed bound B0 (runs capped at q-1 grow
  /// B0 with q): at q = 5 / 150 bp queries B0 sits just under the default
  /// service thresholds, which is what lets filtration reject at all.
  std::size_t q = 5;
  /// Forwarded candidates per query at or below which db_query aligns them
  /// host-side with the same dispatched kernel instead of paying a cluster
  /// dispatch (two barriers plus engine-thread wakeups dominate a handful
  /// of fragments of SIMD DP).  0 always dispatches.
  std::size_t direct_align_max = 8;
  /// When non-empty, the service's load path persists / reuses the q-gram
  /// index at this path (AlignService::load_db).
  std::string index_path;
};

/// One database fragment: a window of one subject sequence.
struct Fragment {
  std::uint32_t id = 0;         ///< dense [0, n_fragments)
  std::uint32_t seq_index = 0;  ///< index into SubjectDb::sequences()
  std::uint32_t begin = 0;      ///< 0-based window [begin, end) in the sequence
  std::uint32_t end = 0;
};

class SubjectDb {
 public:
  SubjectDb() = default;  ///< empty database (no sequences, no fragments)

  /// Partitions `seqs` into fragments and builds the q-gram index (cold
  /// build).  Empty sequences contribute no fragments.
  explicit SubjectDb(std::vector<Sequence> seqs, DbConfig cfg = {});

  /// Like the constructor, but the index is mmap-ed from a file previously
  /// written by save_index instead of rebuilt.  Throws std::runtime_error
  /// when the file is missing, malformed, built over different geometry,
  /// or checksummed against different sequences — callers fall back to the
  /// cold constructor.
  static SubjectDb open_index(std::vector<Sequence> seqs,
                              const std::string& path, DbConfig cfg = {});

  /// Persists the q-gram index for open_index.  Throws on I/O failure.
  void save_index(const std::string& path) const;

  const DbConfig& config() const noexcept { return cfg_; }
  const std::vector<Sequence>& sequences() const noexcept { return seqs_; }
  const std::vector<Fragment>& fragments() const noexcept { return fragments_; }
  std::size_t total_bases() const noexcept { return total_bases_; }
  const QGramIndex& index() const noexcept { return index_; }

  /// Materializes fragment `id` as a sequence named "<seq-name>#<id>".
  Sequence fragment_seq(std::uint32_t id) const;

  struct Filtration {
    std::vector<std::uint32_t> survivors;  ///< fragment ids, ascending
    std::size_t scanned = 0;               ///< == fragments().size()
    std::size_t rejected = 0;
  };

  /// Stage 1: keeps exactly those fragments whose admissible score
  /// bound reaches `min_score`.  Exact: a rejected fragment cannot score
  /// >= min_score under `scheme` (linear or affine).
  Filtration filter(const Sequence& query, const ScoreScheme& scheme,
                    int min_score) const;

  struct ScanResult {
    std::vector<std::uint32_t> forwarded;  ///< fragment ids for full DP, asc
    std::vector<std::uint32_t> resolved;   ///< always empty (perfbench reads it)
    std::size_t scanned = 0;
    std::size_t rejected = 0;
    CascadeCounters cascade;  ///< always 0 (perfbench reads it)
  };

  /// filter() in the shape the serving benchmark reads: `forwarded` is
  /// exactly filter()'s survivor set.
  ScanResult scan(const Sequence& query, const ScoreScheme& scheme,
                  int min_score) const;

  /// The admissible bound for one (query, fragment) pair — the quantity
  /// filter() thresholds, exposed for the oracle and tests.
  int score_bound(const Sequence& query, std::uint32_t fragment,
                  const ScoreScheme& scheme) const;

 private:
  void build_fragments();
  QGramIndex::Geometry geometry() const;

  DbConfig cfg_;
  std::vector<Sequence> seqs_;
  std::vector<Fragment> fragments_;
  std::size_t total_bases_ = 0;
  QGramIndex index_;
};

/// The seeded-run DP bound itself.  `seed` has one flag per query window
/// start (size m - q + 1, or empty meaning "no window is seeded"): true
/// when the query q-gram starting there occurs in the candidate fragment.
/// Returns an upper bound on the best local alignment score any fragment
/// consistent with those seed flags can reach against the query.
int seeded_run_bound(std::size_t m, const std::vector<char>& seed,
                     const ScoreScheme& scheme, std::size_t q);

/// Two-sequence convenience: bound on the local alignment score of `a`
/// versus `b`, seeding from an ad-hoc q-gram index of `b`.  Admissible for
/// both gap models: qgram_score_bound(a, b, scheme, q) >= the true
/// Smith-Waterman (or Gotoh) score of a vs b.  This is the property-test
/// surface.
int qgram_score_bound(const Sequence& a, const Sequence& b,
                      const ScoreScheme& scheme, std::size_t q);

}  // namespace gdsm::db
