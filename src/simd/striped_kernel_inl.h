// The shared striped (Farrar) local-alignment sweep, templated over a lane
// engine, plus the per-block precision ladder that instantiates it at 8 and
// 16 bits.  Included only by kernel_avx2.cpp (compiled with -mavx2);
// everything here is inline/templated.
//
// Engine contract (all lanes unsigned, saturating):
//   V        vector register type
//   Word     lane type (uint8_t or uint16_t)
//   kLanes   lanes per vector
//   zero(), set1(int), loadu(const void*), storeu(void*, V)
//   adds/subs  saturating add/subtract (subs clamps at 0 — this IS the
//              local-alignment clamp in the biased domain)
//   maxv       lane-wise maximum
//   shift1     lanes up by one (lane l <- lane l-1, lane 0 <- 0)
//   any_gt     true when any lane of a exceeds the same lane of b
//   any_ne     true when any lane pair differs
//   hmax       horizontal maximum as an int
//
// Correctness notes (docs/KERNELS.md has the full derivation):
//  * The profile is biased by max(0, -match, -mismatch), so
//    subs(adds(H, prof), bias) computes max(0, H + score) exactly while all
//    lanes stay unsigned.  E and F live unbiased and >= 0; a clamped-to-zero
//    gap state can never beat H (H >= 0 always), so the clamp is exact.
//  * First-saturation argument: the first cell (in dependency order) whose
//    true value exceeds cap = word_max - bias has all-exact inputs, so its
//    add saturates and it computes exactly cap.  Hence the sweep's running
//    maximum reaches cap if and only if some true value reached cap, which
//    makes `computed_max >= cap` a sound and complete overflow test.
//  * The lazy-F loop also refreshes E (E = max(E, H' - gap_oe)) whenever it
//    raises an H, so the stored E row is the exact Gotoh E even when a
//    vertical gap crosses a lane boundary — without this, an F-derived H
//    followed by an immediately adjacent horizontal gap could score low.
//  * Best-cell tracking reproduces the (b, a)-lexicographic tie-break: a
//    lane-wise running maximum detects columns that improve any lane (a
//    strict global improvement always improves its own lane's maximum), and
//    only those columns are rescanned scalar-wise in ascending query order
//    with strict-improvement updates.  Padding lanes are skipped by index.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/striped.h"
#include "util/alphabet.h"

namespace gdsm::simd::detail {

struct StripedScratch {
  std::vector<std::uint8_t> h_store, h_load, e;
};

inline StripedScratch& striped_scratch() {
  thread_local StripedScratch scratch;
  return scratch;
}

/// The striped path serves exactly the fresh score-only block shape: no
/// boundary feeds, no edge outputs, zero corner.  Anything else keeps the
/// anti-diagonal backend's blocked-boundary semantics.
inline bool striped_fresh(const DiagBlock& blk) {
  return blk.a_len > 0 && blk.b_len > 0 && blk.bound_a == nullptr &&
         blk.bound_b == nullptr && blk.corner == 0 &&
         blk.out_last_b == nullptr && blk.out_last_a == nullptr &&
         blk.bound_e == nullptr && blk.bound_f == nullptr &&
         blk.out_last_b_e == nullptr && blk.out_last_a_f == nullptr;
}

/// The profile is indexed by character value; out-of-alphabet bytes (which
/// the comparison-based anti-diagonal kernels tolerate) must delegate.
inline bool striped_chars_ok(const Base* seq, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (seq[i] >= kAlphabetSize) return false;
  }
  return true;
}

/// Largest per-step score gain: no path can climb faster than this per
/// consumed diagonal, and gaps never climb (the fit gates require <= 0).
inline std::int64_t striped_step_gain(const ScoreParams& sp) {
  return std::max({sp.match, sp.mismatch, 0});
}

/// Saturation-free guarantee for the 16-bit rung: every add stays below
/// 65535 when the best reachable true value plus one biased profile entry
/// does.  (The 8-bit rung needs no such gate — it detects saturation.)
inline bool striped_bound16_ok(const ScoreParams& sp, std::size_t m,
                               std::size_t n, int bias) {
  const std::int64_t reach =
      striped_step_gain(sp) * static_cast<std::int64_t>(std::min(m, n));
  return reach + striped_step_gain(sp) + bias <= 65000;
}

struct StripedSweepOut {
  BestCell best;
  int computed_max = 0;  ///< unbiased running maximum over every lane
};

template <class E>
inline StripedSweepOut striped_local_sweep(const Base* b_seq, std::size_t n,
                                           std::size_t m,
                                           const typename E::Word* prof_base,
                                           std::size_t seg_len, int bias,
                                           int gap_oe, int gap_e) {
  using V = typename E::V;
  using Word = typename E::Word;
  constexpr int kL = E::kLanes;
  constexpr std::size_t kVecBytes = sizeof(Word) * static_cast<std::size_t>(kL);
  const std::size_t row_bytes = seg_len * kVecBytes;

  StripedScratch& scr = striped_scratch();
  scr.h_store.assign(row_bytes, 0);
  scr.h_load.assign(row_bytes, 0);
  scr.e.assign(row_bytes, 0);
  std::uint8_t* hs = scr.h_store.data();
  std::uint8_t* hl = scr.h_load.data();
  std::uint8_t* eb = scr.e.data();

  const V vBias = E::set1(bias);
  const V vGapOE = E::set1(gap_oe);
  const V vGapE = E::set1(gap_e);
  V vMaxAll = E::zero();
  StripedSweepOut out;

  for (std::size_t j = 0; j < n; ++j) {
    const typename E::Word* prof =
        prof_base + static_cast<std::size_t>(b_seq[j]) * seg_len *
                        static_cast<std::size_t>(kL);
    std::swap(hs, hl);
    // H entering segment 0 is the previous column's last segment, lanes up
    // one (query position l*seg_len - 1); lane 0 gets the H(-1, j-1) = 0
    // boundary from the shift.
    V vH = E::shift1(E::loadu(hl + (seg_len - 1) * kVecBytes));
    V vF = E::zero();
    // The running lane maximum folds in every stored H, here and in the
    // lazy-F corrections below: corrections only ever raise a cell, so the
    // fold over all stores equals the fold over the final column — no
    // separate read-back pass needed.
    const V vPrev = vMaxAll;
    for (std::size_t s = 0; s < seg_len; ++s) {
      vH = E::subs(E::adds(vH, E::loadu(prof + s * kL)), vBias);
      V vE = E::loadu(eb + s * kVecBytes);
      vH = E::maxv(vH, vE);
      vH = E::maxv(vH, vF);
      E::storeu(hs + s * kVecBytes, vH);
      vMaxAll = E::maxv(vMaxAll, vH);
      const V vHo = E::subs(vH, vGapOE);
      vE = E::maxv(E::subs(vE, vGapE), vHo);
      E::storeu(eb + s * kVecBytes, vE);
      vF = E::maxv(E::subs(vF, vGapE), vHo);
      vH = E::loadu(hl + s * kVecBytes);
    }
    // Lazy F: carry the column's vertical-gap state across lane boundaries.
    // Each pass shifts vF up a lane; the loop exits as soon as no lane can
    // improve (vF <= max(H - gap_oe, 0), the unsigned subs supplying the
    // clamp), and is hard-bounded by kLanes passes — after that every
    // original lane value has been shifted out and replaced by the zero
    // boundary.
    vF = E::shift1(vF);
    std::size_t s = 0;
    int passes = 0;
    vH = E::loadu(hs);
    while (E::any_gt(vF, E::subs(vH, vGapOE))) {
      vH = E::maxv(vH, vF);
      E::storeu(hs + s * kVecBytes, vH);
      vMaxAll = E::maxv(vMaxAll, vH);
      const V vHo = E::subs(vH, vGapOE);
      E::storeu(eb + s * kVecBytes,
                E::maxv(E::loadu(eb + s * kVecBytes), vHo));
      vF = E::subs(vF, vGapE);
      if (++s == seg_len) {
        s = 0;
        vF = E::shift1(vF);
        if (++passes == kL) break;
      }
      vH = E::loadu(hs + s * kVecBytes);
    }
    // Tie-break-exact best tracking.  A cell can become the new best only
    // when the horizontal maximum itself grows, so the column is rescanned
    // only then, and only for cells *equal* to the new maximum: lane-major
    // order (i = lane * seg_len + s) walks query positions ascending, so
    // the first such cell is the (b, a)-lexicographic winner.  Padded
    // positions (i >= m) are never accepted; they can at most tie a real
    // cell from an earlier column, which already holds the tie-break.
    if (E::any_ne(vMaxAll, vPrev)) {
      const int g = E::hmax(vMaxAll);
      if (g > out.best.score) {
        for (std::size_t lane = 0; lane < static_cast<std::size_t>(kL);
             ++lane) {
          const std::size_t base = lane * seg_len;
          if (base >= m) break;
          const std::size_t lim = std::min(seg_len, m - base);
          std::size_t t = 0;
          for (; t < lim; ++t) {
            Word w;
            std::memcpy(&w, hs + t * kVecBytes + lane * sizeof(Word),
                        sizeof(Word));
            if (static_cast<std::int32_t>(w) == g) {
              out.best.score = g;
              out.best.a = base + t;
              out.best.b = j;
              break;
            }
          }
          if (t < lim) break;
        }
      }
    }
  }
  out.computed_max = E::hmax(vMaxAll);
  return out;
}

/// The adaptive ladder for one fresh block: 8-bit sweep with overflow
/// detection, 16-bit re-run under the proven bound, anti-diagonal delegation
/// beyond that (whose own 16/32-bit routing takes over).  `wide` is the
/// anti-diagonal avx2 block_best.
template <class E8, class E16>
inline BestCell striped_block_best_impl(
    const DiagBlock& blk, const ScoreParams& sp,
    BestCell (*wide)(const DiagBlock&, const ScoreParams&)) {
  if (!striped_fresh(blk) || !striped_chars_ok(blk.b_seq, blk.b_len)) {
    note_delegated();
    return wide(blk, sp);
  }
  const std::size_t m = blk.a_len;
  const std::size_t n = blk.b_len;
  static_assert(E8::kLanes == kStripedLanes8 &&
                    E16::kLanes == kStripedLanes16,
                "cached profiles are laid out for the striped-avx2 geometry");
  const std::shared_ptr<const QueryProfile> prof =
      striped_profile(blk.a_seq, m, sp);
  if (prof == nullptr || (!prof->fit8 && !prof->fit16)) {
    note_delegated();
    return wide(blk, sp);
  }
  const int bias = prof->bias;
  const int gap_e = -sp.gap;
  const int gap_oe = -(sp.gap_open + sp.gap);
  if (prof->fit8) {
    const StripedSweepOut r = striped_local_sweep<E8>(
        blk.b_seq, n, m, prof->prof8.data(), prof->seg8, bias, gap_oe, gap_e);
    note_sweep8(static_cast<std::uint64_t>(m) * n);
    if (r.computed_max < 255 - bias) return r.best;
    note_overflow_rerun();
  }
  if (prof->fit16 && striped_bound16_ok(sp, m, n, bias)) {
    const StripedSweepOut r =
        striped_local_sweep<E16>(blk.b_seq, n, m, prof->prof16.data(),
                                 prof->seg16, bias, gap_oe, gap_e);
    note_sweep16(static_cast<std::uint64_t>(m) * n);
    return r.best;
  }
  note_fallback32();
  return wide(blk, sp);
}

}  // namespace gdsm::simd::detail
