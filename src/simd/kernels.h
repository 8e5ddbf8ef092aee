// Score-only DP block kernels, one signature per backend.
//
// Everything score-shaped in this repository — the Section 6 best-local-score
// scan, the Section 5 threshold hit-scan, the band×chunk blocks of the
// pre-process strategy, the block grid of the message-passing exact method,
// and the Needleman–Wunsch last-row pass behind Hirschberg splits — is the
// same recurrence swept over a rectangular block with boundary rows.  This
// header defines that block contract once (DiagBlock) and declares the
// per-backend implementations; callers go through simd/dispatch.h, which
// picks a backend at runtime (CPUID, overridable with GDSM_KERNEL=).
//
// Orientation.  A block is a grid over two dimensions: `a` (the lane
// dimension, vector lanes run along it) and `b` (the sweep dimension).  Cell
// (a, b) holds the local-alignment recurrence
//
//   v(a, b) = max(0, v(a-1, b-1) + sub(a_seq[a], b_seq[b]),
//                    v(a-1, b)   + gap,
//                    v(a, b-1)   + gap)
//
// with boundary values v(a, -1) = bound_a[a], v(-1, b) = bound_b[b] and
// v(-1, -1) = corner (null bound pointers mean all-zero, the fresh-matrix
// case).  Callers map their own (row, column) orientation onto (a, b);
// the tie-break contract below is stated in (b, a) so any caller that scans
// row-major can make the kernel reproduce its scalar tie-breaks exactly by
// putting rows on `b`.
//
// The AVX2 backend sweeps anti-diagonals in strips of kLanes cells along
// `a` (the parasail "diag" scheme adapted to blocked boundaries): lane l of
// step d holds v(a0 + l, d - l).  It uses saturating 16-bit lanes when a
// proven upper bound on any reachable cell value fits, and falls back to
// 32-bit lanes otherwise — see docs/KERNELS.md for the routing rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/alphabet.h"

namespace gdsm::simd {

/// Substitution/gap costs.  sub(x, y) = (x == y && x != kBaseN) ? match
/// : mismatch, matching ScoreScheme::substitution.  gap_open != 0 selects
/// the Gotoh affine recurrence (docs/ALGORITHMS.md): a gap run of length k
/// then costs gap_open + k * gap, and the sweep carries the E/F gap-state
/// rows alongside H.  gap_open == 0 is the linear model and is guaranteed
/// bit-identical to the historical single-matrix sweep.
struct ScoreParams {
  int match = 1;
  int mismatch = -1;
  int gap = -2;
  int gap_open = 0;  ///< once-per-run surcharge; 0 = linear
};

/// "minus infinity" for affine gap-state boundaries: deep enough that no
/// gap may continue across the edge, shallow enough that adding penalties
/// cannot underflow 32-bit lanes.  The 16-bit paths saturate it to -32768,
/// which behaves identically (it can never beat a real open branch).
inline constexpr std::int32_t kNegInf = INT32_MIN / 4;

/// One rectangular DP block with boundary conditions.  All pointers are
/// borrowed; output pointers may be null when the caller does not need that
/// edge.
///
/// The affine extension mirrors the H edges with gap-state edges: E is the
/// gap state that consumes b-characters (its recurrence reads (a, b-1), so
/// its boundary pairs bound_a and its edge output pairs out_last_b), F the
/// one consuming a-characters (reads (a-1, b); pairs bound_b / out_last_a).
/// Null affine boundary pointers mean kNegInf — no gap run crosses that
/// edge — and the corner carries H only (E/F have no diagonal dependency).
/// All four are ignored by the linear recurrence.
struct DiagBlock {
  const Base* a_seq = nullptr;  ///< lane-dimension characters, a_len of them
  std::size_t a_len = 0;
  const Base* b_seq = nullptr;  ///< sweep-dimension characters, b_len of them
  std::size_t b_len = 0;
  const std::int32_t* bound_a = nullptr;  ///< v(a, -1), a_len entries (null = 0)
  const std::int32_t* bound_b = nullptr;  ///< v(-1, b), b_len entries (null = 0)
  std::int32_t corner = 0;                ///< v(-1, -1)
  std::int32_t* out_last_b = nullptr;  ///< out: v(a, b_len-1), a_len entries
  std::int32_t* out_last_a = nullptr;  ///< out: v(a_len-1, b), b_len entries
  // Affine (gap_open != 0) boundary feeds and edge outputs.
  const std::int32_t* bound_e = nullptr;  ///< E(a, -1), a_len (null = kNegInf)
  const std::int32_t* bound_f = nullptr;  ///< F(-1, b), b_len (null = kNegInf)
  std::int32_t* out_last_b_e = nullptr;  ///< out: E(a, b_len-1), a_len entries
  std::int32_t* out_last_a_f = nullptr;  ///< out: F(a_len-1, b), b_len entries
};

/// Best positive cell of a block.  score == 0 means no cell was positive and
/// (a, b) are meaningless.  On score ties the cell with the lexicographically
/// smallest (b, a) wins — i.e. the first maximum in a row-major scan of a
/// caller that maps its rows onto `b`.
struct BestCell {
  std::int32_t score = 0;
  std::size_t a = 0;  ///< 0-based lane-dimension index
  std::size_t b = 0;  ///< 0-based sweep-dimension index
};

/// Receives one cell with v >= threshold as (a, b, v), 0-based.  Emission
/// order is unspecified (the vector backends emit strip-by-strip); callers
/// that need an order must collect and sort.
using HitSink = std::function<void(std::size_t, std::size_t, std::int32_t)>;

// Per-backend entry points.  Identical observable behaviour — the
// differential suite in tests/simd_kernel_test.cpp holds the AVX2 backend
// to the scalar reference, including tie-breaks.
//
//   block_best   best positive cell (plus the optional edge outputs)
//   block_count  per-a-index counts of cells with v >= threshold
//                (count_by_a[a] is *incremented*, callers zero it)
//   block_hits   stream every cell with v >= threshold to the sink
//   nw_last_row  global-alignment (Needleman–Wunsch, no clamp) values
//                v(a, b_len-1) of a_seq[0..a] vs all of b_seq, with the
//                standard linear-gap boundaries; out_by_a gets a_len entries
//
// The block kernels honour sp.gap_open: a nonzero open routes to the affine
// sweep internally, same entry point.  nw_last_row is linear-only; its
// affine counterpart is a separate kernel because it outputs two rows:
//
//   nw_last_row_affine  global affine H(a, b_len-1) into out_h and the
//                b-gap state E(a, b_len-1) into out_e (may be null).
//                `tb_open` is the gap-open cost charged to a b-gap run that
//                starts at b == 0 — callers pass sp.gap_open normally, or 0
//                when a gap is already open across that boundary (the
//                Myers–Miller boundary-discount; see docs/ALGORITHMS.md).
namespace scalar {
BestCell block_best(const DiagBlock& blk, const ScoreParams& sp);
void block_count(const DiagBlock& blk, const ScoreParams& sp,
                 std::int32_t threshold, std::uint64_t* count_by_a);
void block_hits(const DiagBlock& blk, const ScoreParams& sp,
                std::int32_t threshold, const HitSink& sink);
void nw_last_row(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                 std::size_t b_len, const ScoreParams& sp,
                 std::int32_t* out_by_a);
void nw_last_row_affine(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                        std::size_t b_len, const ScoreParams& sp,
                        std::int32_t tb_open, std::int32_t* out_h,
                        std::int32_t* out_e);
}  // namespace scalar

#if GDSM_SIMD_AVX2
namespace avx2 {
BestCell block_best(const DiagBlock& blk, const ScoreParams& sp);
void block_count(const DiagBlock& blk, const ScoreParams& sp,
                 std::int32_t threshold, std::uint64_t* count_by_a);
void block_hits(const DiagBlock& blk, const ScoreParams& sp,
                std::int32_t threshold, const HitSink& sink);
void nw_last_row(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                 std::size_t b_len, const ScoreParams& sp,
                 std::int32_t* out_by_a);
void nw_last_row_affine(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                        std::size_t b_len, const ScoreParams& sp,
                        std::int32_t tb_open, std::int32_t* out_h,
                        std::int32_t* out_e);
}  // namespace avx2
#endif

}  // namespace gdsm::simd
