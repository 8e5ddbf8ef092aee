#include "sw/heuristic_scan.h"

#include <algorithm>
#include <cassert>

#include "simd/dispatch.h"

namespace gdsm {

#if GDSM_SIMD_AVX2
namespace avx2 {
// The -mavx2 sweep behind process_block (heuristic_block_avx2.cpp).
void heuristic_block(const ScoreScheme& scheme, const HeuristicParams& params,
                     std::span<const Base> s_rows, std::uint32_t row_begin,
                     std::span<const Base> t_cols, std::uint32_t col_begin,
                     const CellInfo& corner, std::span<CellInfo> row,
                     std::span<CellInfo> edge, CandidateSink& sink);
}  // namespace avx2
#endif

CellInfo HeuristicKernel::update_cell(Base s_char, Base t_char, std::uint32_t row,
                                      std::uint32_t col, const CellInfo& diag,
                                      const CellInfo& up, const CellInfo& left,
                                      CandidateSink& sink) const {
  const int sub = scheme_.substitution(s_char, t_char);
  const bool affine = scheme_.affine();
  const int from_diag = diag.score + sub;
  // Under the affine model the Up/Left arrivals are the Gotoh gap states:
  // open a fresh run from the neighbour's score or extend its running one.
  // Linear is the open == 0 degenerate (H >= E/F makes the fresh branch win
  // or tie, so the values — and therefore the tie-breaks — are unchanged).
  const int from_up =
      affine ? std::max(up.score + scheme_.gap_open + scheme_.gap,
                        up.f + scheme_.gap)
             : up.score + scheme_.gap;
  const int from_left =
      affine ? std::max(left.score + scheme_.gap_open + scheme_.gap,
                        left.e + scheme_.gap)
             : left.score + scheme_.gap;
  const int best = std::max({0, from_diag, from_up, from_left});

  if (best == 0) {
    // Eq. (1) floor: no alignment ends here; the cell restarts empty.  The
    // gap states restart too (E, F <= H = 0 here, so nothing positive is
    // ever discarded).
    return CellInfo{};
  }

  // Select the origin entry.  Among predecessors achieving `best`, the one
  // with the largest 2*matches + 2*mismatches + gaps weight wins; remaining
  // ties prefer horizontal, then vertical, then diagonal (Section 4.1).
  enum { kLeft, kUp, kDiag };
  int origin = -1;
  std::int64_t origin_weight = -1;
  auto consider = [&](int which, int value, const CellInfo& cell) {
    if (value != best) return;
    const std::int64_t w = cell.weight;
    if (w > origin_weight) {
      origin = which;
      origin_weight = w;
    }
  };
  consider(kLeft, from_left, left);
  consider(kUp, from_up, up);
  consider(kDiag, from_diag, diag);
  assert(origin >= 0);

  CellInfo cur = origin == kLeft ? left : origin == kUp ? up : diag;
  cur.score = best;
  if (affine) {
    cur.e = from_left;  // this cell's Gotoh gap states, read by (i, j+1)
    cur.f = from_up;    // and (i+1, j) regardless of the origin chosen
  } else {
    cur.e = kCellNegInf;
    cur.f = kCellNegInf;
  }
  // A match or mismatch column weighs 2, a gap column 1.
  cur.weight += origin == kDiag ? 2 : 1;

  // Running extrema of the inherited path.
  if (cur.score > cur.max_score) {
    cur.max_score = cur.score;
    cur.max_i = row;
    cur.max_j = col;
  }
  if (cur.score < cur.min_score) {
    cur.min_score = cur.score;
    if (!cur.flag) {
      // While no candidate is open we are watching for a RISE of
      // open_threshold; a new minimum restarts that window, otherwise a
      // stale maximum could open a candidate on a *decline* and yield
      // end coordinates that precede the start.
      cur.max_score = cur.score;
      cur.max_i = row;
      cur.max_j = col;
    }
  }

  // Close: score dropped close_drop below the running maximum.
  if (cur.flag && cur.score <= cur.max_score - params_.close_drop) {
    sink.close(cur);
    cur.flag = 0;
    // Restart the extremum window so the same path can later reopen; the
    // weight (the paper's counters) is intentionally NOT reset (Section 4.1).
    cur.max_score = cur.min_score = cur.score;
    cur.max_i = row;
    cur.max_j = col;
  }

  // Open: score rose open_threshold above the running minimum.
  if (!cur.flag && cur.max_score >= cur.min_score + params_.open_threshold) {
    cur.flag = 1;
    cur.begin_i = row;
    cur.begin_j = col;
  }
  return cur;
}

void HeuristicKernel::process_row_segment(Base s_char, std::uint32_t row,
                                          std::span<const Base> t_cols,
                                          std::uint32_t col_begin,
                                          std::span<const CellInfo> prev,
                                          const CellInfo& diag_left,
                                          const CellInfo& left,
                                          std::span<CellInfo> out,
                                          CandidateSink& sink) const {
  assert(t_cols.size() == prev.size());
  assert(t_cols.size() == out.size());
  assert(out.data() != prev.data());
  const CellInfo* diag = &diag_left;
  const CellInfo* west = &left;
  for (std::size_t k = 0; k < t_cols.size(); ++k) {
    out[k] = update_cell(s_char, t_cols[k], row,
                         col_begin + static_cast<std::uint32_t>(k), *diag,
                         prev[k], *west, sink);
    diag = &prev[k];
    west = &out[k];
  }
}

void HeuristicKernel::process_block(std::span<const Base> s_rows,
                                    std::uint32_t row_begin,
                                    std::span<const Base> t_cols,
                                    std::uint32_t col_begin,
                                    const CellInfo& corner,
                                    std::span<CellInfo> row,
                                    std::span<CellInfo> edge,
                                    CandidateSink& sink) const {
#if GDSM_SIMD_AVX2
  if (simd::active_backend() != simd::Backend::kScalar) {
    avx2::heuristic_block(scheme_, params_, s_rows, row_begin, t_cols,
                          col_begin, corner, row, edge, sink);
    return;
  }
#endif
  process_block_scalar(s_rows, row_begin, t_cols, col_begin, corner, row,
                       edge, sink);
}

void HeuristicKernel::process_block_scalar(std::span<const Base> s_rows,
                                           std::uint32_t row_begin,
                                           std::span<const Base> t_cols,
                                           std::uint32_t col_begin,
                                           const CellInfo& corner,
                                           std::span<CellInfo> row,
                                           std::span<CellInfo> edge,
                                           CandidateSink& sink) const {
  assert(row.size() == t_cols.size());
  assert(edge.size() == s_rows.size());
  if (row.empty()) return;
  // Two linear arrays, exactly as in Section 4.1.
  std::vector<CellInfo> reading(row.begin(), row.end());
  std::vector<CellInfo> writing(row.size());
  CellInfo diag = corner;
  for (std::size_t r = 0; r < s_rows.size(); ++r) {
    const CellInfo left = edge[r];
    process_row_segment(s_rows[r], row_begin + static_cast<std::uint32_t>(r),
                        t_cols, col_begin, reading, diag, left, writing, sink);
    diag = left;
    edge[r] = writing.back();
    std::swap(reading, writing);
  }
  std::copy(reading.begin(), reading.end(), row.begin());
}

namespace {

std::vector<Candidate> scan(const Sequence& s, const Sequence& t,
                            const ScoreScheme& scheme,
                            const HeuristicParams& params, bool reference) {
  const HeuristicKernel kernel(scheme, params);
  CandidateSink sink(params);
  std::vector<CellInfo> row(t.size());
  std::vector<CellInfo> edge(s.size());
  if (reference) {
    kernel.process_block_scalar(s.bases(), 1, t.bases(), 1, CellInfo{}, row,
                                edge, sink);
  } else {
    kernel.process_block(s.bases(), 1, t.bases(), 1, CellInfo{}, row, edge,
                         sink);
  }
  // Candidates still open at the bottom of the matrix.
  for (const CellInfo& cell : row) sink.flush_open(cell);

  std::vector<Candidate> queue = std::move(sink.queue());
  finalize_candidates(queue);
  return queue;
}

}  // namespace

std::vector<Candidate> heuristic_scan(const Sequence& s, const Sequence& t,
                                      const ScoreScheme& scheme,
                                      const HeuristicParams& params) {
  return scan(s, t, scheme, params, /*reference=*/false);
}

std::vector<Candidate> heuristic_scan_reference(const Sequence& s,
                                                const Sequence& t,
                                                const ScoreScheme& scheme,
                                                const HeuristicParams& params) {
  return scan(s, t, scheme, params, /*reference=*/true);
}

}  // namespace gdsm
