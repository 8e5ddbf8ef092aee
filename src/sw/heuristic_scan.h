// The heuristic linear-space Smith–Waterman variant of Section 4.1
// (Martins et al.'s candidate-alignment tracking).
//
// Instead of retaining the O(n^2) similarity array, every DP cell carries a
// small record (current/max/min score, candidate coordinates, a tie-break
// weight, an "open candidate" flag).  Candidate alignments are *opened* when
// the score rises `open_threshold` above the running minimum and *closed*
// (pushed to the queue) when it falls `close_drop` below the running
// maximum.  When several predecessors tie for the cell score, the origin
// with the largest weight 2*matches + 2*mismatches + gaps wins; remaining
// ties prefer the horizontal, then vertical, then diagonal arrow (keeping
// gap runs together, per the paper).
//
// Two kernels compute the same cells.  The scalar row-segment kernel
// (update_cell / process_row_segment) is the reference; the block kernel
// (process_block) computes a whole H x W block from its top row and left
// edge, and on AVX2 hosts runs 8 rows per vector along anti-diagonals
// (docs/KERNELS.md "Heuristic block kernel").  Both are shared by the serial
// scan and the parallel heuristic strategies: a parallel worker owns a
// block or column range and feeds the kernel the border cells received from
// its neighbours, which is exactly the information the paper passes between
// processors.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sw/alignment.h"
#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm {

/// Tunable thresholds of the Section 4.1 heuristics.
struct HeuristicParams {
  int open_threshold = 6;   ///< rise above the running minimum that opens a candidate
  int close_drop = 4;       ///< fall below the running maximum that closes it
  int min_report_score = 10;///< candidates below this score are discarded
};

/// "minus infinity" for the affine gap-state fields of CellInfo: boundary
/// cells carry it so no gap run continues across the matrix edge.  Deep
/// enough to never win, shallow enough that one extension cannot underflow.
inline constexpr std::int32_t kCellNegInf = INT32_MIN / 4;

/// Per-cell record of the heuristic scan.  This is the value transmitted
/// between processors at partition borders, so it is kept trivially
/// copyable and fixed-size (44 bytes).
///
/// The affine gap model (scheme.gap_open != 0) adds the two Gotoh gap-state
/// values `e` (gap run consuming t-characters, fed from the left) and `f`
/// (gap run consuming s-characters, fed from above).  Under the linear model
/// both stay at kCellNegInf everywhere.
///
/// The paper's match, mismatch and gap counters are only ever read as the
/// tie-break weight 2*matches + 2*mismatches + gaps, so the record carries
/// that one value: a diagonal step adds 2, a gap step adds 1.  It is at most
/// 2 * (m + n) and is compared as a signed 32-bit value by the vector kernel.
struct CellInfo {
  std::int32_t score = 0;      ///< sim(s[1..i], t[1..j])
  std::int32_t max_score = 0;  ///< running maximum along the inherited path
  std::int32_t min_score = 0;  ///< running minimum along the inherited path
  std::int32_t e = kCellNegInf;///< Gotoh E state (horizontal run), affine only
  std::int32_t f = kCellNegInf;///< Gotoh F state (vertical run), affine only
  std::uint32_t begin_i = 0;   ///< candidate start row (1-based), valid when open
  std::uint32_t begin_j = 0;   ///< candidate start column (1-based)
  std::uint32_t max_i = 0;     ///< cell where max_score was reached
  std::uint32_t max_j = 0;
  std::uint32_t weight = 0;    ///< tie-break weight (never reset; see paper)
  std::uint8_t flag = 0;       ///< 1 while a candidate alignment is open

  friend bool operator==(const CellInfo&, const CellInfo&) = default;
};

static_assert(std::is_trivially_copyable_v<CellInfo>,
              "CellInfo crosses DSM borders as raw bytes");
static_assert(sizeof(CellInfo) == 44, "ten 32-bit fields and the flag");

/// Streaming sink for closed candidates.
class CandidateSink {
 public:
  explicit CandidateSink(const HeuristicParams& params) : params_(params) {}

  /// Closes the candidate recorded in `cell` if it clears the report bar.
  void close(const CellInfo& cell) {
    if (cell.max_score >= params_.min_report_score) {
      queue_.push_back(Candidate{cell.max_score, cell.begin_i, cell.max_i,
                                 cell.begin_j, cell.max_j});
    }
  }

  /// Flushes a still-open candidate at the end of the scan.
  void flush_open(const CellInfo& cell) {
    if (cell.flag) close(cell);
  }

  std::vector<Candidate>& queue() { return queue_; }
  const std::vector<Candidate>& queue() const { return queue_; }

 private:
  HeuristicParams params_;
  std::vector<Candidate> queue_;
};

/// The heuristic kernels.  Stateless apart from their parameters, so one
/// instance can be shared by all workers.
class HeuristicKernel {
 public:
  HeuristicKernel(const ScoreScheme& scheme, const HeuristicParams& params)
      : scheme_(scheme), params_(params) {}

  const HeuristicParams& params() const noexcept { return params_; }
  const ScoreScheme& scheme() const noexcept { return scheme_; }

  /// Computes the block of rows row_begin .. row_begin+H-1 and columns
  /// col_begin .. col_begin+W-1 (1-based) of the similarity array, where
  /// H = s_rows.size() and W = t_cols.size().
  ///
  ///  - `row` holds the W cells of row row_begin-1 over the block's columns
  ///    and receives the block's bottom row;
  ///  - `corner` is cell (row_begin-1, col_begin-1);
  ///  - `edge` holds the H cells of column col_begin-1 over the block's rows
  ///    and receives the block's right edge (column col_begin+W-1);
  ///  - closed candidates stream into `sink`, in an order that depends on
  ///    the backend (finalize_candidates makes the queue order-free).
  ///
  /// Runs the AVX2 block sweep when the dispatch (simd/dispatch.h) has an
  /// AVX2 backend active, process_block_scalar otherwise.  Input flags
  /// must be 0 or 1.
  void process_block(std::span<const Base> s_rows, std::uint32_t row_begin,
                     std::span<const Base> t_cols, std::uint32_t col_begin,
                     const CellInfo& corner, std::span<CellInfo> row,
                     std::span<CellInfo> edge, CandidateSink& sink) const;

  /// process_block on the scalar row-segment kernel, whatever the dispatch
  /// says: the reference the vector sweep is tested against.
  void process_block_scalar(std::span<const Base> s_rows,
                            std::uint32_t row_begin,
                            std::span<const Base> t_cols,
                            std::uint32_t col_begin, const CellInfo& corner,
                            std::span<CellInfo> row, std::span<CellInfo> edge,
                            CandidateSink& sink) const;

  /// Computes cells (row, col_begin .. col_begin+len-1), 1-based matrix
  /// coordinates, of the similarity array.
  ///
  ///  - `prev` holds the previous row over the same columns;
  ///  - `diag_left` is cell (row-1, col_begin-1);
  ///  - `left` is cell (row, col_begin-1) — at a partition border these two
  ///    are the values received from the left neighbour;
  ///  - `out` receives the new row segment (may alias `prev` only if the
  ///    caller copies, so it must NOT alias here);
  ///  - closed candidates stream into `sink`.
  void process_row_segment(Base s_char, std::uint32_t row,
                           std::span<const Base> t_cols, std::uint32_t col_begin,
                           std::span<const CellInfo> prev, const CellInfo& diag_left,
                           const CellInfo& left, std::span<CellInfo> out,
                           CandidateSink& sink) const;

  /// Single-cell update, exposed for exhaustive unit testing.
  CellInfo update_cell(Base s_char, Base t_char, std::uint32_t row,
                       std::uint32_t col, const CellInfo& diag, const CellInfo& up,
                       const CellInfo& left, CandidateSink& sink) const;

 private:
  ScoreScheme scheme_;
  HeuristicParams params_;
};

/// Serial phase 1: scans the whole matrix as one process_block call
/// (O(m + n) cell records) and returns the finalized candidate queue (sorted
/// by subsequence size, repeats removed).  This is what the parallel
/// strategies must reproduce exactly.
std::vector<Candidate> heuristic_scan(const Sequence& s, const Sequence& t,
                                      const ScoreScheme& scheme = {},
                                      const HeuristicParams& params = {});

/// heuristic_scan on the scalar kernel whatever the dispatch says.  The
/// oracles compare against this, so a fault shared by the vector serial
/// scan and the vector parallel strategies still shows as a divergence.
std::vector<Candidate> heuristic_scan_reference(
    const Sequence& s, const Sequence& t, const ScoreScheme& scheme = {},
    const HeuristicParams& params = {});

}  // namespace gdsm
