// Mini-BlastN: a classical seed-and-extend nucleotide search engine.
//
// Stands in for the NCBI BlastN binary the paper compares against in
// Table 2.  The pipeline is the textbook one: exact word hits from a k-mer
// index of the subject, diagonal-deduplicated, extended ungapped with an
// X-drop rule, then refined by a gapped local alignment in a window around
// the ungapped high-scoring pair.  Like the real program it uses its own
// scoring regime, so its coordinates are expected to be *close to but not
// exactly* those of the exhaustive DP strategies — which is precisely the
// observation Table 2 makes.
#pragma once

#include <cstddef>
#include <vector>

#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm::blast {

struct BlastParams {
  int word_size = 11;      ///< classic BLASTN default seed length
  int match = 1;           ///< reward
  int mismatch = -3;       ///< penalty (BLASTN 2.x default regime)
  int gap = -5;            ///< linear gap penalty
  int xdrop_ungapped = 16; ///< stop extension when score falls this far below max
  int min_ungapped_score = 20;  ///< HSPs below this are not gapped-extended
  int min_score = 28;      ///< report threshold after gapped extension
  std::size_t window_pad = 64;  ///< gapped-extension window margin
  std::size_t max_hits = 128;
};

struct BlastHit {
  std::size_t s_begin = 0;  ///< 1-based inclusive, like the paper's Table 2
  std::size_t s_end = 0;
  std::size_t t_begin = 0;
  std::size_t t_end = 0;
  int score = 0;
  double bit_score = 0;  ///< Karlin–Altschul normalized score
  double evalue = 0;     ///< expected chance hits of this score in m x n
};

/// All gapped hits between s and t, best score first, greedily
/// non-overlapping, at most max_hits.
std::vector<BlastHit> blastn(const Sequence& s, const Sequence& t,
                             const BlastParams& params = {});

/// An ungapped diagonal segment produced by X-drop extension (0-based,
/// half-open coordinates into the two raw base arrays).
struct UngappedSegment {
  std::size_t s_begin = 0, s_end = 0;
  std::size_t t_begin = 0, t_end = 0;
  int score = 0;
};

/// Ungapped X-drop extension of an exact seed match s[sp, sp+seed_len) ==
/// t[tp, tp+seed_len) along its diagonal: extend right then left, keeping
/// the first maximal-scoring reach in each direction, abandoning a
/// direction once the running score falls more than `xdrop` below the best.
/// Operates on raw base arrays and allocates nothing.  With `xdrop` >=
/// match * min(s_len, t_len) the result is the maximal-scoring segment on
/// the diagonal that contains the seed.
UngappedSegment extend_ungapped_xdrop(const Base* s, std::size_t s_len,
                                      const Base* t, std::size_t t_len,
                                      std::size_t sp, std::size_t tp,
                                      std::size_t seed_len, int match,
                                      int mismatch, int xdrop);

}  // namespace gdsm::blast
