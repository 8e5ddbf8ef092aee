// Anti-diagonal strip sweep, templated over a lane engine.
//
// Included only by the backend translation unit compiled with the matching
// ISA flags (kernel_avx2.cpp) — never from generic code.  The engine types
// (engine_avx2.h) supply the vector width, lane type and the dozen primitive
// ops; everything about the sweep itself lives here, written once against
// that engine contract.
//
// Strip scheme (the parasail "diag" layout adapted to blocked boundaries):
// lanes run along `a` in strips of L = E::kLanes; within a strip, step d
// computes the anti-diagonal where lane l holds cell (a0 + l, d - l).  Three
// phases per strip:
//
//   ramp    d in [0, L)          lane l joins at d == l; its v(a, -1) /
//                                v(a-1, -1) inputs are blended in from the
//                                strip's bound_a values with a lane==d mask
//   steady  d in [L, B)          every lane in range, no masks on the
//                                recurrence, one blend-free inner loop
//   tail    d in [B, B+aeff-1)   lane l leaves after d == B-1+l
//
// Between strips the boundary column Hb (Hb[0] = corner, Hb[1+b] = v(-1,b))
// is updated *in place*: at step d the strip's trailing lane L-1 holds
// v(a0+L-1, d-L+1), which is exactly the next strip's v(-1, b) — and the
// write lands L-1 slots behind every future read, so no second buffer is
// needed.  The last strip routes the same values to out_last_a instead.
//
// Masks come from sliding windows over three static 2L-entry tables (all
// ones / single one / all zeros patterns); loading L lanes at offset L-1-d
// produces the lane==d or lane<=d masks without any per-step table build.
//
// Out-of-range lanes are never masked *inside* the recurrence: a lane's
// neighbours read its value only at steps where that value is in range (see
// the phase table above), so garbage cannot propagate.  Masks are applied
// only where results leave the registers: best/count/hit tracking and the
// edge captures.
//
// Best-cell tracking keeps per-lane running maxima in the vector (strict
// greater-than, so each lane records the *first* step its maximum appeared)
// plus a per-lane step stamp.  16-bit step stamps wrap, so the sweep is cut
// into segments of E::kSegSteps steps, flushed to 32/64-bit scalars between
// segments; the same cadence bounds the 16-bit hit counters of count mode.
// Cross-lane ties are resolved at flush time by lexicographic (b, a), which
// reproduces a row-major scalar scan with rows on b — see kernels.h.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/kernels.h"

namespace gdsm::simd::detail {

inline constexpr int kMaxLanes = 16;     // padding unit; >= every engine's kLanes
inline constexpr Base kSentinel = 0xFF;  // padding char; matches only other
                                         // padding, which is always masked out

// Reusable per-thread scratch: padded copies of the inputs so every vector
// load is in-bounds, plus the in-place boundary columns (H always; F and the
// padded E boundary only for affine sweeps).
struct Scratch {
  std::vector<Base> a_pad;
  std::vector<Base> b_rev;
  std::vector<std::int32_t> hb;
  std::vector<std::int32_t> ba_pad;
  std::vector<std::int32_t> hb_f;
  std::vector<std::int32_t> be_pad;
};

inline Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

struct Prepped {
  const Base* a = nullptr;           // a_seq padded with kMaxLanes sentinels
  const Base* brev = nullptr;        // brev[B-1-b] = b_seq[b]; padded both ends
  std::int32_t* hb = nullptr;        // boundary column, size B+1
  const std::int32_t* ba = nullptr;  // bound_a padded with kMaxLanes zeros
  std::int32_t bound_min = 0;        // min over corner/bound_a/bound_b and 0
  std::int32_t bound_max = 0;        // max over the same (affine: E/F too,
                                     // kNegInf sentinels excluded)
  // Affine extras (prep(blk, /*affine=*/true) only):
  std::int32_t* hb_f = nullptr;      // F boundary column, size B+1
  const std::int32_t* be = nullptr;  // bound_e padded with kMaxLanes kNegInf
};

inline Prepped prep(const DiagBlock& blk, bool affine = false) {
  Scratch& s = scratch();
  const std::size_t A = blk.a_len;
  const std::size_t B = blk.b_len;
  Prepped p;

  s.a_pad.assign(A + kMaxLanes, kSentinel);
  std::copy(blk.a_seq, blk.a_seq + A, s.a_pad.begin());
  p.a = s.a_pad.data();

  s.b_rev.assign(B + 2 * kMaxLanes, kSentinel);
  for (std::size_t b = 0; b < B; ++b)
    s.b_rev[kMaxLanes + (B - 1 - b)] = blk.b_seq[b];
  p.brev = s.b_rev.data() + kMaxLanes;

  s.hb.resize(B + 1);
  s.hb[0] = blk.corner;
  if (blk.bound_b != nullptr)
    std::copy(blk.bound_b, blk.bound_b + B, s.hb.begin() + 1);
  else
    std::fill(s.hb.begin() + 1, s.hb.end(), 0);
  p.hb = s.hb.data();

  p.bound_min = std::min<std::int32_t>(0, blk.corner);
  p.bound_max = std::max<std::int32_t>(0, blk.corner);
  if (blk.bound_a != nullptr) {
    s.ba_pad.assign(A + kMaxLanes, 0);
    std::copy(blk.bound_a, blk.bound_a + A, s.ba_pad.begin());
    p.ba = s.ba_pad.data();
    for (std::size_t a = 0; a < A; ++a) {
      p.bound_min = std::min(p.bound_min, blk.bound_a[a]);
      p.bound_max = std::max(p.bound_max, blk.bound_a[a]);
    }
  }
  if (blk.bound_b != nullptr) {
    for (std::size_t b = 0; b < B; ++b) {
      p.bound_min = std::min(p.bound_min, blk.bound_b[b]);
      p.bound_max = std::max(p.bound_max, blk.bound_b[b]);
    }
  }

  if (affine) {
    // Gap-state boundaries.  kNegInf sentinels ("no run crosses this edge")
    // are excluded from the bound window: in 16-bit mode they saturate to
    // -32768, which any real open branch beats, so they never constrain the
    // routing decision.
    const auto widen = [&](std::int32_t v) {
      if (v <= kNegInf / 2) return;
      p.bound_min = std::min(p.bound_min, v);
      p.bound_max = std::max(p.bound_max, v);
    };
    s.hb_f.resize(B + 1);
    s.hb_f[0] = kNegInf;  // F has no diagonal dependency; never read
    if (blk.bound_f != nullptr) {
      std::copy(blk.bound_f, blk.bound_f + B, s.hb_f.begin() + 1);
      for (std::size_t b = 0; b < B; ++b) widen(blk.bound_f[b]);
    } else {
      std::fill(s.hb_f.begin() + 1, s.hb_f.end(), kNegInf);
    }
    p.hb_f = s.hb_f.data();
    s.be_pad.assign(A + kMaxLanes, kNegInf);
    if (blk.bound_e != nullptr) {
      std::copy(blk.bound_e, blk.bound_e + A, s.be_pad.begin());
      for (std::size_t a = 0; a < A; ++a) widen(blk.bound_e[a]);
    }
    p.be = s.be_pad.data();
  }
  return p;
}

enum class Mode { kBest, kCount, kHits };

template <class E, Mode M>
void local_sweep(const DiagBlock& blk, const Prepped& pp, const ScoreParams& sp,
                 std::int32_t threshold, BestCell* best_out,
                 std::uint64_t* count_by_a, const HitSink* sink) {
  using V = typename E::V;
  using Lane = typename E::Lane;
  constexpr int L = E::kLanes;
  const std::size_t A = blk.a_len;
  const std::size_t B = blk.b_len;
  assert(A >= 1 && B >= static_cast<std::size_t>(2 * L));

  struct Tables {
    alignas(64) Lane valid[2 * L];  // lane<=d mask window
    alignas(64) Lane eq[2 * L];     // lane==d mask window
    alignas(64) Lane tail[2 * L];   // lane>=d-B+1 mask window
    Tables() {
      for (int i = 0; i < 2 * L; ++i) {
        valid[i] = i < L ? Lane(-1) : Lane(0);
        eq[i] = i == L - 1 ? Lane(-1) : Lane(0);
        tail[i] = i < L ? Lane(0) : Lane(-1);
      }
    }
  };
  static const Tables tbl;

  const V vGap = E::bcast(sp.gap);
  const V vMatch = E::bcast(sp.match);
  const V vMis = E::bcast(sp.mismatch);
  const V vN = E::bcast(kBaseN);
  const V vZero = E::zero();
  const V vOne = E::bcast(1);
  const V vThrM1 = E::bcast(threshold - 1);  // v >= thr  <=>  v > thr-1

  BestCell best;
  std::int32_t* hb = pp.hb;
  alignas(64) Lane tmp[L];
  alignas(64) Lane tmp_score[L];
  alignas(64) Lane tmp_step[L];

  for (std::size_t a0 = 0; a0 < A; a0 += L) {
    const std::size_t aeff = std::min<std::size_t>(L, A - a0);
    const bool last_strip = a0 + L >= A;
    const V vChA = E::load_chars(pp.a + a0);
    const V vAn = E::cmpeq(vChA, vN);  // a-char is N: never a match
    const std::int32_t corner_strip =
        a0 == 0 ? blk.corner : (pp.ba != nullptr ? pp.ba[a0 - 1] : 0);
    hb[0] = corner_strip;
    const V vHaUp = pp.ba != nullptr ? E::load_bound(pp.ba + a0) : vZero;
    const V vHaDiag = E::shift_in(vHaUp, corner_strip);
    const V vActive = E::loadu(tbl.valid + (L - static_cast<int>(aeff)));
    std::int32_t* edge_dst = last_strip ? blk.out_last_a : hb + 1;
    const std::size_t edge_lane = (last_strip ? aeff : L) - 1;

    V vHp = vZero, vHpp = vZero;
    V vBest = vZero, vStepBest = vZero;
    V vCnt = vZero;
    V vStep = vZero;
    std::size_t seg_base = 0;
    std::int32_t lane_best[L] = {};
    std::size_t lane_best_d[L] = {};

    // Drain the vector accumulators into exact scalar ones; called at every
    // segment boundary and once after the strip's last step.
    auto flush = [&](std::size_t next_d) {
      if constexpr (M == Mode::kBest) {
        E::storeu(tmp_score, vBest);
        E::storeu(tmp_step, vStepBest);
        for (std::size_t l = 0; l < aeff; ++l) {
          if (static_cast<std::int32_t>(tmp_score[l]) > lane_best[l]) {
            lane_best[l] = tmp_score[l];
            lane_best_d[l] = seg_base + static_cast<std::size_t>(tmp_step[l]);
          }
        }
        vStepBest = vZero;
      } else if constexpr (M == Mode::kCount) {
        E::storeu(tmp_score, vCnt);
        for (std::size_t l = 0; l < aeff; ++l)
          count_by_a[a0 + l] += static_cast<std::uint64_t>(tmp_score[l]);
        vCnt = vZero;
      }
      vStep = vZero;
      seg_base = next_d;
    };

    auto step = [&](std::size_t d, V vEqMask, bool blend_boundary, V vMask) {
      const V vChB =
          E::load_chars(pp.brev + static_cast<std::ptrdiff_t>(B - 1) -
                        static_cast<std::ptrdiff_t>(d));
      const V vSub = E::blend(vMis, vMatch, E::andnot(vAn, E::cmpeq(vChA, vChB)));
      const std::int32_t hb_diag = d <= B ? hb[d] : 0;
      const std::int32_t hb_vert = d + 1 <= B ? hb[d + 1] : 0;
      V vDiag = E::shift_in(vHpp, hb_diag);
      V vHoriz = vHp;
      const V vVert = E::shift_in(vHp, hb_vert);
      if (blend_boundary) {
        vDiag = E::blend(vDiag, vHaDiag, vEqMask);
        vHoriz = E::blend(vHoriz, vHaUp, vEqMask);
      }
      V vH = E::max(E::add(vDiag, vSub), E::add(E::max(vVert, vHoriz), vGap));
      vH = E::max(vH, vZero);
      E::storeu(tmp, vH);
      if (edge_dst != nullptr && d >= edge_lane && d - edge_lane < B)
        edge_dst[d - edge_lane] = tmp[edge_lane];
      if (blk.out_last_b != nullptr && d + 1 >= B && d + 1 - B < aeff)
        blk.out_last_b[a0 + (d + 1 - B)] = tmp[d + 1 - B];
      if constexpr (M == Mode::kBest) {
        const V vCand = E::and_(vH, vMask);
        vStepBest = E::blend(vStepBest, vStep, E::cmpgt(vCand, vBest));
        vBest = E::max(vBest, vCand);
      } else if constexpr (M == Mode::kCount) {
        vCnt = E::sub(vCnt, E::and_(E::cmpgt(vH, vThrM1), vMask));
      } else {
        const unsigned mm = static_cast<unsigned>(
            E::movemask(E::and_(E::cmpgt(vH, vThrM1), vMask)));
        if (mm != 0) {
          for (int l = 0; l < L; ++l)
            if (mm & (1u << (l * E::kMaskBitsPerLane)))
              (*sink)(a0 + l, d - l, tmp[l]);
        }
      }
      vStep = E::add(vStep, vOne);
      vHpp = vHp;
      vHp = vH;
    };

    for (std::size_t d = 0; d < static_cast<std::size_t>(L); ++d) {
      const int off = L - 1 - static_cast<int>(d);
      step(d, E::loadu(tbl.eq + off), true,
           E::and_(E::loadu(tbl.valid + off), vActive));
    }
    std::size_t d = L;
    while (d < B) {
      const std::size_t seg_end =
          std::min(B, seg_base + static_cast<std::size_t>(E::kSegSteps));
      for (; d < seg_end; ++d) step(d, vZero, false, vActive);
      if (d < B) flush(d);
    }
    for (; d < B + aeff - 1; ++d) {
      const int off = L - 1 - static_cast<int>(d - B);
      step(d, vZero, false, E::and_(E::loadu(tbl.tail + off), vActive));
    }
    flush(d);

    if constexpr (M == Mode::kBest) {
      for (std::size_t l = 0; l < aeff; ++l) {
        if (lane_best[l] <= 0) continue;
        const std::size_t bc = lane_best_d[l] - l;
        const std::size_t ac = a0 + l;
        if (lane_best[l] > best.score ||
            (lane_best[l] == best.score &&
             (bc < best.b || (bc == best.b && ac < best.a))))
          best = BestCell{lane_best[l], ac, bc};
      }
    }
  }
  if constexpr (M == Mode::kBest) *best_out = best;
}

// Clamp a boundary scalar before it enters a lane: 16-bit lanes represent
// kNegInf as the saturation floor -32768 (still below every real value, and
// saturating adds keep it there), 32-bit lanes pass values through.
template <class E>
inline std::int32_t lane_clip(std::int32_t x) {
  if constexpr (sizeof(typename E::Lane) == 2)
    return std::max<std::int32_t>(x, INT16_MIN);
  else
    return x;
}

// Gotoh affine anti-diagonal sweep: identical strip scheme, phase structure
// and best/count/hit tracking as local_sweep, with two extra register rows.
// Both gap-state recurrences read only the *previous* anti-diagonal —
//
//   E(a, b) = max(H(a, b-1) + open + ext, E(a, b-1) + ext)   (same lane)
//   F(a, b) = max(H(a-1, b) + open + ext, F(a-1, b) + ext)   (lane below)
//
// — so E carries in-lane (like vHoriz) and F through shift_in with its own
// in-place boundary column hb_f (like vVert/hb).  H is floored at zero;
// E/F are not (kernels.h).  Ramp steps additionally blend the bound_e
// values into E's gap-state input with the same lane==d mask.
template <class E, Mode M>
void affine_local_sweep(const DiagBlock& blk, const Prepped& pp,
                        const ScoreParams& sp, std::int32_t threshold,
                        BestCell* best_out, std::uint64_t* count_by_a,
                        const HitSink* sink) {
  using V = typename E::V;
  using Lane = typename E::Lane;
  constexpr int L = E::kLanes;
  const std::size_t A = blk.a_len;
  const std::size_t B = blk.b_len;
  assert(A >= 1 && B >= static_cast<std::size_t>(2 * L));

  struct Tables {
    alignas(64) Lane valid[2 * L];
    alignas(64) Lane eq[2 * L];
    alignas(64) Lane tail[2 * L];
    Tables() {
      for (int i = 0; i < 2 * L; ++i) {
        valid[i] = i < L ? Lane(-1) : Lane(0);
        eq[i] = i == L - 1 ? Lane(-1) : Lane(0);
        tail[i] = i < L ? Lane(0) : Lane(-1);
      }
    }
  };
  static const Tables tbl;

  const V vExt = E::bcast(sp.gap);
  const V vOpenExt = E::bcast(sp.gap_open + sp.gap);
  const V vMatch = E::bcast(sp.match);
  const V vMis = E::bcast(sp.mismatch);
  const V vN = E::bcast(kBaseN);
  const V vZero = E::zero();
  const V vOne = E::bcast(1);
  const V vThrM1 = E::bcast(threshold - 1);
  const V vNegInf = E::bcast(lane_clip<E>(kNegInf));

  BestCell best;
  std::int32_t* hb = pp.hb;
  std::int32_t* hbf = pp.hb_f;
  alignas(64) Lane tmp[L];
  alignas(64) Lane tmp_e[L];
  alignas(64) Lane tmp_f[L];
  alignas(64) Lane tmp_score[L];
  alignas(64) Lane tmp_step[L];

  for (std::size_t a0 = 0; a0 < A; a0 += L) {
    const std::size_t aeff = std::min<std::size_t>(L, A - a0);
    const bool last_strip = a0 + L >= A;
    const V vChA = E::load_chars(pp.a + a0);
    const V vAn = E::cmpeq(vChA, vN);
    const std::int32_t corner_strip =
        a0 == 0 ? blk.corner : (pp.ba != nullptr ? pp.ba[a0 - 1] : 0);
    hb[0] = corner_strip;
    const V vHaUp = pp.ba != nullptr ? E::load_bound(pp.ba + a0) : vZero;
    const V vHaDiag = E::shift_in(vHaUp, corner_strip);
    const V vEaUp = E::load_bound(pp.be + a0);
    const V vActive = E::loadu(tbl.valid + (L - static_cast<int>(aeff)));
    std::int32_t* edge_dst = last_strip ? blk.out_last_a : hb + 1;
    std::int32_t* edge_f_dst = last_strip ? blk.out_last_a_f : hbf + 1;
    const std::size_t edge_lane = (last_strip ? aeff : L) - 1;

    V vHp = vZero, vHpp = vZero;
    V vEp = vNegInf, vFp = vNegInf;
    V vBest = vZero, vStepBest = vZero;
    V vCnt = vZero;
    V vStep = vZero;
    std::size_t seg_base = 0;
    std::int32_t lane_best[L] = {};
    std::size_t lane_best_d[L] = {};

    auto flush = [&](std::size_t next_d) {
      if constexpr (M == Mode::kBest) {
        E::storeu(tmp_score, vBest);
        E::storeu(tmp_step, vStepBest);
        for (std::size_t l = 0; l < aeff; ++l) {
          if (static_cast<std::int32_t>(tmp_score[l]) > lane_best[l]) {
            lane_best[l] = tmp_score[l];
            lane_best_d[l] = seg_base + static_cast<std::size_t>(tmp_step[l]);
          }
        }
        vStepBest = vZero;
      } else if constexpr (M == Mode::kCount) {
        E::storeu(tmp_score, vCnt);
        for (std::size_t l = 0; l < aeff; ++l)
          count_by_a[a0 + l] += static_cast<std::uint64_t>(tmp_score[l]);
        vCnt = vZero;
      }
      vStep = vZero;
      seg_base = next_d;
    };

    auto step = [&](std::size_t d, V vEqMask, bool blend_boundary, V vMask) {
      const V vChB =
          E::load_chars(pp.brev + static_cast<std::ptrdiff_t>(B - 1) -
                        static_cast<std::ptrdiff_t>(d));
      const V vSub = E::blend(vMis, vMatch, E::andnot(vAn, E::cmpeq(vChA, vChB)));
      const std::int32_t hb_diag = d <= B ? hb[d] : 0;
      const std::int32_t hb_vert = d + 1 <= B ? hb[d + 1] : 0;
      const std::int32_t hbf_vert =
          lane_clip<E>(d + 1 <= B ? hbf[d + 1] : kNegInf);
      V vDiag = E::shift_in(vHpp, hb_diag);
      V vHoriz = vHp;
      V vEHoriz = vEp;
      const V vVert = E::shift_in(vHp, hb_vert);
      const V vFVert = E::shift_in(vFp, hbf_vert);
      if (blend_boundary) {
        vDiag = E::blend(vDiag, vHaDiag, vEqMask);
        vHoriz = E::blend(vHoriz, vHaUp, vEqMask);
        vEHoriz = E::blend(vEHoriz, vEaUp, vEqMask);
      }
      const V vE = E::max(E::add(vHoriz, vOpenExt), E::add(vEHoriz, vExt));
      const V vF = E::max(E::add(vVert, vOpenExt), E::add(vFVert, vExt));
      V vH = E::max(E::add(vDiag, vSub), E::max(vE, vF));
      vH = E::max(vH, vZero);
      E::storeu(tmp, vH);
      E::storeu(tmp_f, vF);
      if (edge_dst != nullptr && d >= edge_lane && d - edge_lane < B)
        edge_dst[d - edge_lane] = tmp[edge_lane];
      if (edge_f_dst != nullptr && d >= edge_lane && d - edge_lane < B)
        edge_f_dst[d - edge_lane] = tmp_f[edge_lane];
      if (blk.out_last_b != nullptr && d + 1 >= B && d + 1 - B < aeff)
        blk.out_last_b[a0 + (d + 1 - B)] = tmp[d + 1 - B];
      if (blk.out_last_b_e != nullptr && d + 1 >= B && d + 1 - B < aeff) {
        E::storeu(tmp_e, vE);
        blk.out_last_b_e[a0 + (d + 1 - B)] = tmp_e[d + 1 - B];
      }
      if constexpr (M == Mode::kBest) {
        const V vCand = E::and_(vH, vMask);
        vStepBest = E::blend(vStepBest, vStep, E::cmpgt(vCand, vBest));
        vBest = E::max(vBest, vCand);
      } else if constexpr (M == Mode::kCount) {
        vCnt = E::sub(vCnt, E::and_(E::cmpgt(vH, vThrM1), vMask));
      } else {
        const unsigned mm = static_cast<unsigned>(
            E::movemask(E::and_(E::cmpgt(vH, vThrM1), vMask)));
        if (mm != 0) {
          for (int l = 0; l < L; ++l)
            if (mm & (1u << (l * E::kMaskBitsPerLane)))
              (*sink)(a0 + l, d - l, tmp[l]);
        }
      }
      vStep = E::add(vStep, vOne);
      vHpp = vHp;
      vHp = vH;
      vEp = vE;
      vFp = vF;
    };

    for (std::size_t d = 0; d < static_cast<std::size_t>(L); ++d) {
      const int off = L - 1 - static_cast<int>(d);
      step(d, E::loadu(tbl.eq + off), true,
           E::and_(E::loadu(tbl.valid + off), vActive));
    }
    std::size_t d = L;
    while (d < B) {
      const std::size_t seg_end =
          std::min(B, seg_base + static_cast<std::size_t>(E::kSegSteps));
      for (; d < seg_end; ++d) step(d, vZero, false, vActive);
      if (d < B) flush(d);
    }
    for (; d < B + aeff - 1; ++d) {
      const int off = L - 1 - static_cast<int>(d - B);
      step(d, vZero, false, E::and_(E::loadu(tbl.tail + off), vActive));
    }
    flush(d);

    if constexpr (M == Mode::kBest) {
      for (std::size_t l = 0; l < aeff; ++l) {
        if (lane_best[l] <= 0) continue;
        const std::size_t bc = lane_best_d[l] - l;
        const std::size_t ac = a0 + l;
        if (lane_best[l] > best.score ||
            (lane_best[l] == best.score &&
             (bc < best.b || (bc == best.b && ac < best.a))))
          best = BestCell{lane_best[l], ac, bc};
      }
    }
  }
  if constexpr (M == Mode::kBest) *best_out = best;
}

// Needleman–Wunsch last-row sweep: same strip scheme, 32-bit lanes only (no
// clamp, scores go far negative), boundaries are the (i+1)*gap ramps so the
// blend vectors are generated instead of loaded.
template <class E>
void nw_sweep(const Base* a_seq, std::size_t A, const Base* b_seq,
              std::size_t B, const ScoreParams& sp, std::int32_t* out_by_a) {
  using V = typename E::V;
  using Lane = typename E::Lane;
  static_assert(sizeof(Lane) == 4, "NW sweep runs on 32-bit lanes");
  constexpr int L = E::kLanes;
  assert(A >= 1 && B >= static_cast<std::size_t>(2 * L));

  struct Tables {
    alignas(64) Lane eq[2 * L];
    Tables() {
      for (int i = 0; i < 2 * L; ++i) eq[i] = i == L - 1 ? Lane(-1) : Lane(0);
    }
  };
  static const Tables tbl;

  Scratch& s = scratch();
  s.a_pad.assign(A + kMaxLanes, kSentinel);
  std::copy(a_seq, a_seq + A, s.a_pad.begin());
  s.b_rev.assign(B + 2 * kMaxLanes, kSentinel);
  for (std::size_t b = 0; b < B; ++b) s.b_rev[kMaxLanes + (B - 1 - b)] = b_seq[b];
  const Base* apad = s.a_pad.data();
  const Base* brev = s.b_rev.data() + kMaxLanes;
  s.hb.resize(B + 1);
  for (std::size_t b = 0; b <= B; ++b)
    s.hb[b] = static_cast<std::int32_t>(b) * sp.gap;  // hb[0]=corner, hb[1+b]=v(-1,b)
  std::int32_t* hb = s.hb.data();

  const V vGap = E::bcast(sp.gap);
  const V vMatch = E::bcast(sp.match);
  const V vMis = E::bcast(sp.mismatch);
  const V vN = E::bcast(kBaseN);
  const V vZero = E::zero();
  alignas(64) Lane tmp[L];
  alignas(64) Lane ramp[L];

  for (std::size_t a0 = 0; a0 < A; a0 += L) {
    const std::size_t aeff = std::min<std::size_t>(L, A - a0);
    const bool last_strip = a0 + L >= A;
    const V vChA = E::load_chars(apad + a0);
    const V vAn = E::cmpeq(vChA, vN);
    const std::int32_t corner_strip = static_cast<std::int32_t>(a0) * sp.gap;
    hb[0] = corner_strip;
    for (int l = 0; l < L; ++l)
      ramp[l] = static_cast<Lane>(a0 + l + 1) * sp.gap;  // v(a0+l, -1)
    const V vHaUp = E::loadu(ramp);
    const V vHaDiag = E::shift_in(vHaUp, corner_strip);
    std::int32_t* edge_dst = last_strip ? nullptr : hb + 1;
    const std::size_t edge_lane = L - 1;

    V vHp = vZero, vHpp = vZero;
    auto step = [&](std::size_t d, V vEqMask, bool blend_boundary) {
      const V vChB =
          E::load_chars(brev + static_cast<std::ptrdiff_t>(B - 1) -
                        static_cast<std::ptrdiff_t>(d));
      const V vSub = E::blend(vMis, vMatch, E::andnot(vAn, E::cmpeq(vChA, vChB)));
      const std::int32_t hb_diag = d <= B ? hb[d] : 0;
      const std::int32_t hb_vert = d + 1 <= B ? hb[d + 1] : 0;
      V vDiag = E::shift_in(vHpp, hb_diag);
      V vHoriz = vHp;
      const V vVert = E::shift_in(vHp, hb_vert);
      if (blend_boundary) {
        vDiag = E::blend(vDiag, vHaDiag, vEqMask);
        vHoriz = E::blend(vHoriz, vHaUp, vEqMask);
      }
      const V vH = E::max(E::add(vDiag, vSub), E::add(E::max(vVert, vHoriz), vGap));
      E::storeu(tmp, vH);
      if (edge_dst != nullptr && d >= edge_lane && d - edge_lane < B)
        edge_dst[d - edge_lane] = tmp[edge_lane];
      if (d + 1 >= B && d + 1 - B < aeff) out_by_a[a0 + (d + 1 - B)] = tmp[d + 1 - B];
      vHpp = vHp;
      vHp = vH;
    };

    for (std::size_t d = 0; d < static_cast<std::size_t>(L); ++d)
      step(d, E::loadu(tbl.eq + (L - 1 - static_cast<int>(d))), true);
    for (std::size_t d = L; d < B + aeff - 1; ++d) step(d, vZero, false);
  }
}

// Affine (Gotoh) Needleman–Wunsch last-row sweep, 32-bit lanes only.  Emits
// both the H row and the b-gap state row E the Myers–Miller join needs.  The
// tb_open boundary discount is folded into the boundaries: the b-side border
// ramp H(-1, b) = tb + (b+1)*ext, and E(a, -1) = H(a, -1) + tb, which makes
// the standard E recurrence produce max(H(a,-1)+open+ext, H(a,-1)+tb+ext) =
// H(a,-1)+tb+ext at b == 0 (tb >= open always: tb is 0 or gap_open).
template <class E>
void nw_affine_sweep(const Base* a_seq, std::size_t A, const Base* b_seq,
                     std::size_t B, const ScoreParams& sp, std::int32_t tb,
                     std::int32_t* out_h, std::int32_t* out_e) {
  using V = typename E::V;
  using Lane = typename E::Lane;
  static_assert(sizeof(Lane) == 4, "affine NW sweep runs on 32-bit lanes");
  constexpr int L = E::kLanes;
  assert(A >= 1 && B >= static_cast<std::size_t>(2 * L));
  const std::int32_t ext = sp.gap;
  const std::int32_t open = sp.gap_open;

  struct Tables {
    alignas(64) Lane eq[2 * L];
    Tables() {
      for (int i = 0; i < 2 * L; ++i) eq[i] = i == L - 1 ? Lane(-1) : Lane(0);
    }
  };
  static const Tables tbl;

  Scratch& s = scratch();
  s.a_pad.assign(A + kMaxLanes, kSentinel);
  std::copy(a_seq, a_seq + A, s.a_pad.begin());
  s.b_rev.assign(B + 2 * kMaxLanes, kSentinel);
  for (std::size_t b = 0; b < B; ++b) s.b_rev[kMaxLanes + (B - 1 - b)] = b_seq[b];
  const Base* apad = s.a_pad.data();
  const Base* brev = s.b_rev.data() + kMaxLanes;
  s.hb.resize(B + 1);
  s.hb[0] = 0;  // corner
  for (std::size_t b = 1; b <= B; ++b)
    s.hb[b] = tb + static_cast<std::int32_t>(b) * ext;  // H(-1, b-1) ramp
  s.hb_f.assign(B + 1, kNegInf);  // F(-1, b): no a-gap crosses the border
  std::int32_t* hb = s.hb.data();
  std::int32_t* hbf = s.hb_f.data();

  const V vExt = E::bcast(ext);
  const V vOpenExt = E::bcast(open + ext);
  const V vMatch = E::bcast(sp.match);
  const V vMis = E::bcast(sp.mismatch);
  const V vN = E::bcast(kBaseN);
  const V vZero = E::zero();
  const V vNegInf = E::bcast(kNegInf);
  alignas(64) Lane tmp[L];
  alignas(64) Lane tmp_e[L];
  alignas(64) Lane tmp_f[L];
  alignas(64) Lane ramp[L];
  alignas(64) Lane eramp[L];

  for (std::size_t a0 = 0; a0 < A; a0 += L) {
    const std::size_t aeff = std::min<std::size_t>(L, A - a0);
    const bool last_strip = a0 + L >= A;
    const V vChA = E::load_chars(apad + a0);
    const V vAn = E::cmpeq(vChA, vN);
    const std::int32_t corner_strip =
        a0 == 0 ? 0 : open + static_cast<std::int32_t>(a0) * ext;
    hb[0] = corner_strip;
    for (int l = 0; l < L; ++l) {
      ramp[l] = open + static_cast<Lane>(a0 + l + 1) * ext;  // H(a0+l, -1)
      eramp[l] = ramp[l] + tb;                               // E(a0+l, -1)
    }
    const V vHaUp = E::loadu(ramp);
    const V vHaDiag = E::shift_in(vHaUp, corner_strip);
    const V vEaUp = E::loadu(eramp);
    std::int32_t* edge_dst = last_strip ? nullptr : hb + 1;
    std::int32_t* edge_f_dst = last_strip ? nullptr : hbf + 1;
    const std::size_t edge_lane = L - 1;

    V vHp = vZero, vHpp = vZero;
    V vEp = vNegInf, vFp = vNegInf;
    auto step = [&](std::size_t d, V vEqMask, bool blend_boundary) {
      const V vChB =
          E::load_chars(brev + static_cast<std::ptrdiff_t>(B - 1) -
                        static_cast<std::ptrdiff_t>(d));
      const V vSub = E::blend(vMis, vMatch, E::andnot(vAn, E::cmpeq(vChA, vChB)));
      const std::int32_t hb_diag = d <= B ? hb[d] : 0;
      const std::int32_t hb_vert = d + 1 <= B ? hb[d + 1] : 0;
      const std::int32_t hbf_vert = d + 1 <= B ? hbf[d + 1] : kNegInf;
      V vDiag = E::shift_in(vHpp, hb_diag);
      V vHoriz = vHp;
      V vEHoriz = vEp;
      const V vVert = E::shift_in(vHp, hb_vert);
      const V vFVert = E::shift_in(vFp, hbf_vert);
      if (blend_boundary) {
        vDiag = E::blend(vDiag, vHaDiag, vEqMask);
        vHoriz = E::blend(vHoriz, vHaUp, vEqMask);
        vEHoriz = E::blend(vEHoriz, vEaUp, vEqMask);
      }
      const V vE = E::max(E::add(vHoriz, vOpenExt), E::add(vEHoriz, vExt));
      const V vF = E::max(E::add(vVert, vOpenExt), E::add(vFVert, vExt));
      const V vH = E::max(E::add(vDiag, vSub), E::max(vE, vF));
      E::storeu(tmp, vH);
      E::storeu(tmp_f, vF);
      if (edge_dst != nullptr && d >= edge_lane && d - edge_lane < B) {
        edge_dst[d - edge_lane] = tmp[edge_lane];
        edge_f_dst[d - edge_lane] = tmp_f[edge_lane];
      }
      if (d + 1 >= B && d + 1 - B < aeff) {
        out_h[a0 + (d + 1 - B)] = tmp[d + 1 - B];
        if (out_e != nullptr) {
          E::storeu(tmp_e, vE);
          out_e[a0 + (d + 1 - B)] = tmp_e[d + 1 - B];
        }
      }
      vHpp = vHp;
      vHp = vH;
      vEp = vE;
      vFp = vF;
    };

    for (std::size_t d = 0; d < static_cast<std::size_t>(L); ++d)
      step(d, E::loadu(tbl.eq + (L - 1 - static_cast<int>(d))), true);
    for (std::size_t d = L; d < B + aeff - 1; ++d) step(d, vZero, false);
  }
}

// ---------------------------------------------------------------------------
// Width routing + fallback: the per-backend public entry points funnel here.
// E16 does the work in saturating 16-bit lanes when a proven upper bound on
// every reachable cell fits comfortably; otherwise E32 runs.  Blocks too
// small for the strip scheme (B < 2 lanes) fall back to the scalar
// reference — same contract either way.

inline std::int32_t value_bound(const Prepped& pp, const DiagBlock& blk,
                                const ScoreParams& sp) {
  const std::int64_t diag_steps =
      static_cast<std::int64_t>(std::min(blk.a_len, blk.b_len));
  const std::int64_t hi = static_cast<std::int64_t>(pp.bound_max) +
                          std::max(0, sp.match) * diag_steps;
  return hi > INT32_MAX ? INT32_MAX : static_cast<std::int32_t>(hi);
}

inline bool params_fit16(const ScoreParams& sp) {
  constexpr int kLim = 30000;
  // The affine sweep broadcasts gap_open + gap as one constant, so the sum
  // must stay a representable (non-wrapping) 16-bit immediate too.
  return sp.match <= kLim && sp.match >= -kLim && sp.mismatch <= kLim &&
         sp.mismatch >= -kLim && sp.gap <= kLim && sp.gap >= -kLim &&
         sp.gap_open <= kLim && sp.gap_open >= -kLim &&
         sp.gap_open + sp.gap >= -kLim;
}

template <class E16, class E32, Mode M>
void run_local(const DiagBlock& blk, const ScoreParams& sp,
               std::int32_t threshold, BestCell* best_out,
               std::uint64_t* count_by_a, const HitSink* sink) {
  const bool tiny =
      blk.a_len == 0 || blk.b_len < static_cast<std::size_t>(2 * E32::kLanes);
  const bool scalar_thr = (M != Mode::kBest) && threshold <= 0;
  if (tiny || scalar_thr) {
    if constexpr (M == Mode::kBest)
      *best_out = scalar::block_best(blk, sp);
    else if constexpr (M == Mode::kCount)
      scalar::block_count(blk, sp, threshold, count_by_a);
    else
      scalar::block_hits(blk, sp, threshold, *sink);
    return;
  }
  const bool affine = sp.gap_open != 0;
  const Prepped pp = prep(blk, affine);
  constexpr std::int32_t kLim16 = 30000;
  const bool fit16 = params_fit16(sp) && pp.bound_min >= -kLim16 &&
                     value_bound(pp, blk, sp) <= kLim16 &&
                     (M == Mode::kBest || threshold <= kLim16) &&
                     blk.b_len >= static_cast<std::size_t>(2 * E16::kLanes);
  if (affine) {
    if (fit16)
      affine_local_sweep<E16, M>(blk, pp, sp, threshold, best_out, count_by_a,
                                 sink);
    else
      affine_local_sweep<E32, M>(blk, pp, sp, threshold, best_out, count_by_a,
                                 sink);
  } else if (fit16) {
    local_sweep<E16, M>(blk, pp, sp, threshold, best_out, count_by_a, sink);
  } else {
    local_sweep<E32, M>(blk, pp, sp, threshold, best_out, count_by_a, sink);
  }
}

template <class E32>
void run_nw(const Base* a_seq, std::size_t a_len, const Base* b_seq,
            std::size_t b_len, const ScoreParams& sp, std::int32_t* out_by_a) {
  if (a_len == 0) return;
  if (b_len < static_cast<std::size_t>(2 * E32::kLanes)) {
    scalar::nw_last_row(a_seq, a_len, b_seq, b_len, sp, out_by_a);
    return;
  }
  nw_sweep<E32>(a_seq, a_len, b_seq, b_len, sp, out_by_a);
}

template <class E32>
void run_nw_affine(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                   std::size_t b_len, const ScoreParams& sp, std::int32_t tb,
                   std::int32_t* out_h, std::int32_t* out_e) {
  if (a_len == 0) return;
  if (b_len < static_cast<std::size_t>(2 * E32::kLanes)) {
    scalar::nw_last_row_affine(a_seq, a_len, b_seq, b_len, sp, tb, out_h,
                               out_e);
    return;
  }
  nw_affine_sweep<E32>(a_seq, a_len, b_seq, b_len, sp, tb, out_h, out_e);
}

}  // namespace gdsm::simd::detail
