// Inter-sequence score-only kernel: one query against a tile of up to
// kBatchLanes database fragments, one fragment per vector lane.
//
// The striped kernel (striped.h) vectorizes *within* one query x fragment
// matrix, so every call pays a profile lookup, a lazy-F loop and a short
// column per fragment.  A database scan has the opposite shape: many short
// fragments against the same query.  Here every lane runs the whole DP of
// its own fragment, so lanes never exchange values and the recurrence is
// the plain one (no lazy F).  The tile is swept column by column along the
// fragments; the H (and affine E) state of the current column lives in m
// vectors, one per query position (docs/KERNELS.md "Inter-sequence batch
// kernel").
//
//   - Lanes are unsigned and saturating with the striped kernel's bias
//     (max(0, -match, -mismatch)), so subs(adds(H, sub + bias), bias) is
//     max(0, H + sub) and the local-alignment clamp is free.
//   - Lanes are 8 bits wide, and only a *proven* bound lets a tile in: no
//     cell exceeds match * min(m, n_max), so the widest intermediate is
//     that plus match + bias, and it must fit in 255.  Otherwise the
//     caller scores per fragment with the striped kernel.  No saturation
//     can happen, so there are no reruns.
//   - Ragged tiles are padded with kBaseN columns (and empty lanes are all
//     padding).  A padded cell is some predecessor minus a positive penalty,
//     or 0, so it never raises its lane's maximum; real cells never depend
//     on padded ones (padding only follows a fragment).
//
// Scores only: callers that need the end cell rerun the rare lanes that
// reach their threshold through sw_best_score_linear.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

namespace gdsm::simd {

/// Fragments per tile: the 8-bit lane count of a 256-bit vector.
inline constexpr std::size_t kBatchLanes = 32;

/// Whether the proven bound of a query of length m against fragments of at
/// most n_max bases fits 8-bit lanes.  False, so the caller scores
/// fragments one by one, also for a degenerate scheme (match <= 0,
/// mismatch >= 0, gap >= 0 or gap_open > 0).
bool batch_fits(std::size_t m, std::size_t n_max, const ScoreParams& sp);

/// Best local score of q[0, m) against each of frags[k][0, lens[k]), for
/// k < count <= kBatchLanes, into out[k].  Returns false, leaving out
/// untouched, when the batch path does not apply: the active backend is
/// scalar or lacks AVX2, q holds a byte outside the alphabet, or
/// batch_fits(m, max lens) is false.  Throws std::invalid_argument when
/// count > kBatchLanes.  Metered as kernel_stats().batch.
bool batch_best_scores(const Base* q, std::size_t m, const Base* const* frags,
                       const std::size_t* lens, std::size_t count,
                       const ScoreParams& sp, std::int32_t* out);

}  // namespace gdsm::simd
