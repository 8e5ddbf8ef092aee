// Striped (Farrar-layout) query-profile kernel for the score-only hot
// paths.
//
// The anti-diagonal backends (kernels.h) recompute substitution scores from
// the two characters of every cell.  striped-avx2 instead precomputes
// a per-query *profile* — for every alphabet character, the substitution
// scores of the whole query laid out in Farrar's striped vector order — and
// sweeps subject characters one column at a time.  Query position
// i = lane * seg_len + s lives in lane `lane` of segment vector `s`, so the
// vertical gap (F) dependency crosses lanes only at segment wrap, which the
// "lazy F" corrective loop repairs after each column.  docs/KERNELS.md
// ("Striped query-profile kernels") walks through the layout, the lane
// masks and the escalation ladder.
//
// Precision ladder (adaptive, per block):
//   8-bit   unsigned saturating lanes, profile biased by max(0, -match,
//           -mismatch).  Saturation at 255 is detected from the sweep's
//           running maximum; an overflowing block transparently re-runs at
//           16 bits and the 8-bit result is discarded.
//   16-bit  unsigned saturating lanes, same biased layout, entered only
//           when a proven value bound shows no lane can reach 65535 —
//           PR 4's routing rule applied to the unsigned domain.
//   32-bit  anything wider delegates to the anti-diagonal AVX2 backend,
//           whose own 16/32-bit routing is already release-gated.
//
// Only fresh score-only blocks take the striped path (no boundary feeds, no
// edge outputs — exactly the sw_best_score_linear / db_align shard-scan
// shape); everything else delegates to the anti-diagonal AVX2 backend, so
// striped-avx2 is always safe to force process-wide via GDSM_KERNEL=.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "simd/kernels.h"

namespace gdsm::simd {

/// Striped-path activity since process start.  All deterministic for a
/// deterministic workload; flows into the schema-v9 `kernel.striped`
/// report section (docs/METRICS.md).
struct StripedCounters {
  std::uint64_t sweeps8 = 0;    ///< 8-bit striped sweeps run
  std::uint64_t sweeps16 = 0;   ///< 16-bit striped sweeps run
  std::uint64_t cells8 = 0;     ///< DP cells swept at 8-bit precision
  std::uint64_t cells16 = 0;    ///< DP cells swept at 16-bit precision
  std::uint64_t overflow_reruns = 0;  ///< 8-bit saturation -> 16-bit re-runs
  std::uint64_t fallback32 = 0;  ///< blocks beyond 16-bit bounds, delegated
  std::uint64_t delegated = 0;   ///< non-fresh/ineligible blocks, delegated
  std::uint64_t profile_builds = 0;  ///< query profiles built (cache misses)
  std::uint64_t profile_hits = 0;    ///< query profiles served from cache
};

StripedCounters striped_counters();

/// Pre-builds (or refreshes the cache slot of) the striped profile for
/// `q[0..len)` under `sp`, keyed by (query bytes, params).  A no-op unless
/// striped-avx2 is active.  A caller about to run many block_best calls on
/// one query (the serving benchmark's per-fragment replay) builds the
/// profile once up front instead of inside the first call.
void warm_query_profile(const Base* q, std::size_t len, const ScoreParams& sp);

/// Drops every cached profile (tests; isolates cache-counter assertions).
void clear_query_profile_cache();

namespace detail {

/// Lanes per 256-bit vector at 8 and 16 bits: the striped-avx2 engine
/// geometry (StripedAvx8 / StripedAvx16 in engine_avx2.h), which fixes the
/// segment length of every cached profile.
inline constexpr int kStripedLanes8 = 32;
inline constexpr int kStripedLanes16 = 16;

/// One query's precomputed striped profiles, both precisions, immutable
/// after build and shared via the cache.  `prof8`/`prof16` are
/// [char][segment][lane] arrays (kAlphabetSize * seg * lanes entries);
/// padding lanes (query index >= m) hold the biased worst value 0 so they
/// can never raise a running maximum past a real cell.
struct QueryProfile {
  std::size_t m = 0;
  int bias = 0;        ///< max(0, -match, -mismatch); both widths share it
  bool fit8 = false;   ///< params representable in biased 8-bit lanes
  bool fit16 = false;  ///< params representable in biased 16-bit lanes
  std::size_t seg8 = 0, seg16 = 0;
  std::vector<std::uint8_t> prof8;
  std::vector<std::uint16_t> prof16;
};

/// Cache lookup (LRU, process-wide): builds on miss, counts
/// profile_builds/profile_hits.  Returns nullptr when the query is empty or
/// contains out-of-alphabet characters (callers must then delegate).
std::shared_ptr<const QueryProfile> striped_profile(const Base* q,
                                                    std::size_t m,
                                                    const ScoreParams& sp);

// Counter bumps used by the sweep wrappers (atomics live in striped.cpp).
void note_sweep8(std::uint64_t cells);
void note_sweep16(std::uint64_t cells);
void note_overflow_rerun();
void note_fallback32();
void note_delegated();

}  // namespace detail

// The striped entry point.  Only block_best has a striped form — the other
// kernels of the dispatch table (counts, hit scans, NW last-row passes) need
// boundary feeds or per-cell emission and stay on the anti-diagonal AVX2
// backend.  It is a total implementation of the kernels.h block_best
// contract: ineligible blocks delegate internally.
#if GDSM_SIMD_AVX2
namespace striped_avx2 {
BestCell block_best(const DiagBlock& blk, const ScoreParams& sp);
}
#endif

}  // namespace gdsm::simd
