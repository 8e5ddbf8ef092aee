// AVX2 sweep of the heuristic block kernel (HeuristicKernel::process_block).
// This file is compiled with -mavx2 (see CMakeLists.txt); process_block
// calls in here only while an AVX2 backend is active.
//
// Layout (docs/KERNELS.md "Heuristic block kernel"):
//   - The block's top row and left edge are copied into structure-of-arrays
//     buffers, one int32 array per CellInfo field (the flag as a 0 / -1
//     mask).  The row buffer is updated in place and holds the bottom row
//     at the end; the right edge is written straight to the caller's span.
//   - Lanes run along the block's rows in strips of 8.  Within a strip, step
//     d computes the anti-diagonal where lane l holds cell (r0 + l, d - l),
//     the ramp/steady/tail scheme of simd/diag_kernel_inl.h: lane l joins at
//     d == l with its left and diagonal inputs blended in from the left
//     edge, and leaves after d == W - 1 + l, handing its cell to the edge.
//   - The left input of a lane is its own previous cell; the up input is
//     the previous diagonal rotated one lane down, lane 0 taking the row
//     buffer; the diagonal input is the previous step's up input.  The
//     rotation brings the strip's last row (lane aeff-1) into lane 0, which
//     is where the outgoing bottom-row cell is read and stored: always
//     behind every later read of the row buffer, so no second row is needed.
//   - The fields the recurrence reads (score, weight, max, min, flag and the
//     gap states) stay in registers.  The candidate coordinates, which it
//     only copies, live in a small per-step ring in memory, packed as
//     (i << 16) | j when every coordinate of the block fits 16 bits.
//   - The origin choice, zero restart, running max/min and open/close are
//     compare-and-blend.  Lanes that close a candidate above the report bar
//     are found with a movemask and pushed one by one, with their values
//     before the reset, out of line.
//
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sw/heuristic_scan.h"

namespace gdsm::avx2 {
namespace {

using V = __m256i;
constexpr std::size_t kLanes = 8;

enum Field : int {
  kScore, kMax, kMin, kE, kF, kBeginI, kBeginJ, kMaxI, kMaxJ, kWeight, kFlag,
  kFields
};

/// Buffers above this many int32 are released after the call, so a
/// whole-matrix scan of a long subject does not pin memory in the thread.
constexpr std::size_t kKeepInts = std::size_t{64} << 10;  // 256 KiB

struct Scratch {
  std::vector<std::int32_t> soa;
  std::vector<Base> t_rev;
};

V bcast(std::int32_t x) { return _mm256_set1_epi32(x); }
V add(V a, V b) { return _mm256_add_epi32(a, b); }
V vmax(V a, V b) { return _mm256_max_epi32(a, b); }
V gt(V a, V b) { return _mm256_cmpgt_epi32(a, b); }
V eq(V a, V b) { return _mm256_cmpeq_epi32(a, b); }
V or_(V a, V b) { return _mm256_or_si256(a, b); }
V and_(V a, V b) { return _mm256_and_si256(a, b); }
V andnot(V m, V a) { return _mm256_andnot_si256(m, a); }  // ~m & a
// m ? b : a on full-lane masks, as and/andnot/or: three single-uop ops
// where vpblendvb takes three uops and a longer latency on recent cores.
V mix(V a, V b, V m) { return or_(andnot(m, a), and_(m, b)); }
std::int32_t lane(V v, int l) {
  return _mm256_cvtsi256_si32(_mm256_permutevar8x32_epi32(v, bcast(l)));
}
V load(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const V*>(p));
}

/// Coordinates packed as (i << 16) | j when every coordinate of a block
/// fits 16 bits, which halves the passive fields (see heuristic_block).
std::int32_t pack(std::uint32_t i, std::uint32_t j) {
  return static_cast<std::int32_t>((i << 16) | j);
}
std::uint32_t hi16(std::int32_t x) { return static_cast<std::uint32_t>(x) >> 16; }
std::uint32_t lo16(std::int32_t x) { return static_cast<std::uint32_t>(x) & 0xFFFFu; }

void put(std::int32_t* const* soa, std::size_t i, const CellInfo& c,
         bool packed) {
  soa[kScore][i] = c.score;
  soa[kMax][i] = c.max_score;
  soa[kMin][i] = c.min_score;
  soa[kE][i] = c.e;
  soa[kF][i] = c.f;
  if (packed) {
    soa[kBeginI][i] = pack(c.begin_i, c.begin_j);
    soa[kMaxI][i] = pack(c.max_i, c.max_j);
  } else {
    soa[kBeginI][i] = static_cast<std::int32_t>(c.begin_i);
    soa[kBeginJ][i] = static_cast<std::int32_t>(c.begin_j);
    soa[kMaxI][i] = static_cast<std::int32_t>(c.max_i);
    soa[kMaxJ][i] = static_cast<std::int32_t>(c.max_j);
  }
  soa[kWeight][i] = static_cast<std::int32_t>(c.weight);
  soa[kFlag][i] = c.flag != 0 ? -1 : 0;
}

CellInfo get(const std::int32_t* const* soa, std::size_t i, bool affine,
             bool packed) {
  CellInfo c;
  c.score = soa[kScore][i];
  c.max_score = soa[kMax][i];
  c.min_score = soa[kMin][i];
  c.e = affine && c.score != 0 ? soa[kE][i] : kCellNegInf;
  c.f = affine && c.score != 0 ? soa[kF][i] : kCellNegInf;
  if (packed) {
    c.begin_i = hi16(soa[kBeginI][i]);
    c.begin_j = lo16(soa[kBeginI][i]);
    c.max_i = hi16(soa[kMaxI][i]);
    c.max_j = lo16(soa[kMaxI][i]);
  } else {
    c.begin_i = static_cast<std::uint32_t>(soa[kBeginI][i]);
    c.begin_j = static_cast<std::uint32_t>(soa[kBeginJ][i]);
    c.max_i = static_cast<std::uint32_t>(soa[kMaxI][i]);
    c.max_j = static_cast<std::uint32_t>(soa[kMaxJ][i]);
  }
  c.weight = static_cast<std::uint32_t>(soa[kWeight][i]);
  c.flag = static_cast<std::uint8_t>(soa[kFlag][i] & 1);
  return c;
}

/// Pushes the candidates of the lanes in `bits`, out of line so the sweep's
/// register allocation does not pay for the rare call.
[[gnu::noinline, gnu::cold]] void emit_closed(CandidateSink& sink, int bits,
                                              V max, V bi, V bj, V mi, V mj) {
  do {
    const int l = __builtin_ctz(static_cast<unsigned>(bits));
    bits &= bits - 1;
    CellInfo cell;
    cell.max_score = lane(max, l);
    cell.begin_i = static_cast<std::uint32_t>(lane(bi, l));
    cell.begin_j = static_cast<std::uint32_t>(lane(bj, l));
    cell.max_i = static_cast<std::uint32_t>(lane(mi, l));
    cell.max_j = static_cast<std::uint32_t>(lane(mj, l));
    sink.close(cell);
  } while (bits != 0);
}

struct Block {
  const ScoreScheme* scheme;
  const HeuristicParams* params;
  const Base* s;             // the block's rows
  std::size_t H;
  std::uint32_t row_begin;
  const Base* t_rev;         // t_rev[kLanes + k] = t[W - 1 - k], 0-padded
  std::size_t W;
  std::uint32_t col_begin;
  bool packed;               // coordinates as (i << 16) | j
  std::int32_t* row[kFields];        // W + kLanes per field
  const std::int32_t* col[kFields];  // corner, left edge; H + 1 + kLanes
  CellInfo* edge;
  CandidateSink* sink;
};

/// The fields the recurrence never reads: picked from the origin and
/// overwritten with the cell's coordinates.  They stay in memory.  Packed,
/// begin and max are one field each (kBeginI, kMaxI).
constexpr int kPassive[4] = {kBeginI, kBeginJ, kMaxI, kMaxJ};
constexpr int kPackedPassive[2] = {kBeginI, kMaxI};

/// Rows r0 .. r0+aeff-1 of the block, all W columns.
template <bool kAffine, bool kPacked>
void strip(const Block& b, std::size_t r0) {
  constexpr int kNumPassive = kPacked ? 2 : 4;
  const int aeff = static_cast<int>(std::min(kLanes, b.H - r0));
  const std::size_t W = b.W;
  const ScoreScheme& sc = *b.scheme;

  const V vZero = _mm256_setzero_si256();
  const V vOne = bcast(1);
  const V vNegInf = bcast(kCellNegInf);
  const V vGap = bcast(sc.gap);
  const V vGapOE = bcast(sc.gap_open + sc.gap);
  const V vMis = bcast(sc.mismatch);
  const V vMatchUp = bcast(sc.match - sc.mismatch);
  const V vCloseDrop = bcast(b.params->close_drop);
  const V vOpenM1 = bcast(b.params->open_threshold - 1);
  const V vReportM1 = bcast(b.params->min_report_score - 1);
  const V vLane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  // Lane 0 <- lane aeff-1 (the outgoing bottom-row cell), lane l <- l-1.
  const V vRot = _mm256_setr_epi32(aeff - 1, 0, 1, 2, 3, 4, 5, 6);
  const V vColLo = bcast(static_cast<std::int32_t>(b.col_begin) - 1);
  const V vColHi = bcast(static_cast<std::int32_t>(b.col_begin + W));
  const int lane_bits = (1 << aeff) - 1;

  // s characters per lane; N becomes -1 so it never equals a t character
  // (N never matches, not even itself).
  alignas(32) std::int32_t s_lane[kLanes];
  for (int l = 0; l < static_cast<int>(kLanes); ++l) {
    s_lane[l] = l < aeff && b.s[r0 + l] != kBaseN ? b.s[r0 + l] : -1;
  }
  const V vS = load(s_lane);
  const V vRow = add(bcast(static_cast<std::int32_t>(b.row_begin + r0)), vLane);
  const V vRowHi = _mm256_slli_epi32(vRow, 16);
  V vCol = _mm256_sub_epi32(bcast(static_cast<std::int32_t>(b.col_begin)), vLane);

  // Left-edge inputs: lane l joins with left = edge row r0+l and diagonal =
  // edge row r0+l-1 (the corner for the block's first row).
  V el[kFields], ed[kFields];
  for (int f = 0; f < kFields; ++f) {
    el[f] = load(b.col[f] + r0 + 1);
    ed[f] = load(b.col[f] + r0);
  }

  // Per-step memory, four slots in rotation: u holds the step's up inputs
  // (the next step's diagonal inputs), p the passive fields of the step's
  // cells (the next step's left inputs) and pk their picked values before
  // the coordinate update, which the cold emission path reads.
  struct alignas(32) Slot {
    V u[kFields];
    V p[4];
    V pk[4];
  };
  Slot ring[4];
  for (Slot& slot : ring) {
    for (V& v : slot.u) v = vZero;
    for (V& v : slot.p) v = vZero;
  }
  // The recurrence's fields of the previous diagonal (the left inputs).
  V p_score = vZero, p_w = vZero, p_max = vZero, p_min = vZero,
    p_flag = vZero, p_e = vNegInf, p_f = vNegInf;

  // Stores the outgoing bottom-row cell (lane aeff-1 of p) at column c when
  // `out` and returns p rotated one lane down with lane 0 from the row
  // buffer at column d.
  auto up = [&](V p, int f, std::size_t d, bool out, std::size_t c) {
    const V r = _mm256_permutevar8x32_epi32(p, vRot);
    if (out) b.row[f][c] = _mm256_cvtsi256_si32(r);
    return _mm256_blend_epi32(r, bcast(b.row[f][d]), 1);
  };

  // The cell of lane l: the recurrence's fields from the registers, the
  // passive ones from `slot`.
  auto cell_at = [&](const Slot& slot, int l) {
    CellInfo c;
    c.score = lane(p_score, l);
    c.max_score = lane(p_max, l);
    c.min_score = lane(p_min, l);
    c.e = kAffine && c.score != 0 ? lane(p_e, l) : kCellNegInf;
    c.f = kAffine && c.score != 0 ? lane(p_f, l) : kCellNegInf;
    if constexpr (kPacked) {
      c.begin_i = hi16(lane(slot.p[0], l));
      c.begin_j = lo16(lane(slot.p[0], l));
      c.max_i = hi16(lane(slot.p[1], l));
      c.max_j = lo16(lane(slot.p[1], l));
    } else {
      c.begin_i = static_cast<std::uint32_t>(lane(slot.p[0], l));
      c.begin_j = static_cast<std::uint32_t>(lane(slot.p[1], l));
      c.max_i = static_cast<std::uint32_t>(lane(slot.p[2], l));
      c.max_j = static_cast<std::uint32_t>(lane(slot.p[3], l));
    }
    c.weight = static_cast<std::uint32_t>(lane(p_w, l));
    c.flag = static_cast<std::uint8_t>(lane(p_flag, l) & 1);
    return c;
  };

  auto step = [&](std::size_t d, auto edge_tag) __attribute__((always_inline)) {
    constexpr bool kEdge = decltype(edge_tag)::value;
    Slot& cur = ring[d & 3];
    const Slot& prv = ring[(d - 1) & 3];
    const bool out = !kEdge || d >= static_cast<std::size_t>(aeff);
    const std::size_t c_out = d - static_cast<std::size_t>(aeff);
    // Ramp: lane d joins, its left and diagonal inputs from the edge.
    const bool ramp = kEdge && d < static_cast<std::size_t>(aeff);
    const V m_ramp = eq(vLane, bcast(static_cast<std::int32_t>(d)));
    auto left_in = [&](V p, int f) { return ramp ? mix(p, el[f], m_ramp) : p; };
    auto diag_in = [&](int f) {
      return ramp ? mix(prv.u[f], ed[f], m_ramp) : prv.u[f];
    };
    auto up_in = [&](V p, int f) {
      const V u = up(p, f, d, out, c_out);
      cur.u[f] = u;
      return u;
    };

    // Lane l pairs s[r0 + l] with t[d - l].
    const V vT = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(b.t_rev + kLanes + (W - 1) - d)));
    const V sub = add(vMis, and_(eq(vS, vT), vMatchUp));

    const V u_score = up_in(p_score, kScore);
    const V u_w = up_in(p_w, kWeight);
    const V u_max = up_in(p_max, kMax);
    const V u_min = up_in(p_min, kMin);
    const V u_flag = up_in(p_flag, kFlag);
    V u_f = vNegInf;
    if constexpr (kAffine) {
      u_f = up_in(p_f, kF);
      if (out) {
        b.row[kE][c_out] =
            _mm256_cvtsi256_si32(_mm256_permutevar8x32_epi32(p_e, vRot));
      }
    }
    const V l_score = left_in(p_score, kScore);
    const V l_w = left_in(p_w, kWeight);

    // Score and gap states, as in update_cell.
    const V from_diag = add(diag_in(kScore), sub);
    V from_up, from_left;
    if constexpr (kAffine) {
      from_up = vmax(add(u_score, vGapOE), add(u_f, vGap));
      from_left = vmax(add(l_score, vGapOE), add(left_in(p_e, kE), vGap));
    } else {
      from_up = add(u_score, vGap);
      from_left = add(l_score, vGap);
    }
    const V best = vmax(vmax(from_diag, vZero), vmax(from_up, from_left));
    const V zero = eq(best, vZero);

    // Origin: best score, then the larger weight, then left > up > diag.
    // A predecessor that does not reach `best` competes with weight -1;
    // weights are non-negative, so a tied one always beats it.
    const V ow_left = or_(l_w, gt(best, from_left));
    const V ow_up = or_(u_w, gt(best, from_up));
    const V sel_up = gt(ow_up, ow_left);
    const V sel_diag = and_(eq(from_diag, best),
                            gt(diag_in(kWeight), vmax(ow_left, ow_up)));
    // Exclusive masks, all clear on a zero cell: a pick is also the zero
    // restart (CellInfo{} fields are 0).
    const V m_diag = andnot(zero, sel_diag);
    const V diag_or_zero = or_(sel_diag, zero);
    const V m_up = andnot(diag_or_zero, sel_up);
    const V not_left = or_(diag_or_zero, sel_up);
    auto pick = [&](V l, V u, V dg) {
      return or_(or_(andnot(not_left, l), and_(u, m_up)), and_(dg, m_diag));
    };
    // A diagonal step weighs 2, a gap step 1 (m_diag is -1 where taken).
    p_w = add(pick(l_w, u_w, diag_in(kWeight)),
              _mm256_sub_epi32(andnot(zero, vOne), m_diag));
    V max = pick(left_in(p_max, kMax), u_max, diag_in(kMax));
    V min = pick(left_in(p_min, kMin), u_min, diag_in(kMin));
    V flag = pick(left_in(p_flag, kFlag), u_flag, diag_in(kFlag));

    // Running extrema; a new minimum restarts the window while closed.  On a
    // zero cell every record field is 0 here, so nothing below fires.
    const V set_max = or_(gt(best, max), andnot(flag, gt(min, best)));
    min = _mm256_min_epi32(min, best);
    max = mix(max, best, set_max);
    const V max_at_close = max;
    // Close: the score fell close_drop below the running maximum.  Only
    // closes that clear the report bar reach the sink (the rest would be
    // dropped there), so the cold path runs once per reported candidate.
    const V close = andnot(gt(best, _mm256_sub_epi32(max, vCloseDrop)), flag);
    V emit = and_(close, gt(max, vReportM1));
    if constexpr (kEdge) {
      emit = and_(emit, and_(gt(vCol, vColLo), gt(vColHi, vCol)));
    }
    const int bits = _mm256_movemask_ps(_mm256_castsi256_ps(emit)) & lane_bits;
    flag = andnot(close, flag);
    const V at_cell = or_(set_max, close);
    max = mix(max, best, close);
    min = mix(min, best, close);
    // Open: the score rose open_threshold above the running minimum.
    const V open = andnot(or_(flag, zero), gt(max, add(min, vOpenM1)));
    p_score = best;
    p_max = max;
    p_min = min;
    p_flag = or_(flag, open);
    if constexpr (kAffine) {
      // A zero cell's gap states restart at kCellNegInf.  Inside the sweep
      // they are only pushed that far down (they stay below any open
      // branch, so no run continues); get/cell_at write the exact value.
      const V restart = and_(zero, vNegInf);
      p_e = add(from_left, restart);
      p_f = add(from_up, restart);
    }

    // Passive fields: begin (i, j) takes the cell on open, max (i, j) on a
    // new maximum or a close.
    const V vRC = or_(vRowHi, vCol);  // the cell, packed
    for (int k = 0; k < kNumPassive; ++k) {
      const int f = kPacked ? kPackedPassive[k] : kPassive[k];
      const V picked =
          pick(left_in(prv.p[k], f), up_in(prv.p[k], f), diag_in(f));
      cur.pk[k] = picked;
      const V cell = kPacked ? vRC : k % 2 == 0 ? vRow : vCol;
      cur.p[k] = mix(picked, cell, k < kNumPassive / 2 ? open : at_cell);
    }
    if (bits != 0) [[unlikely]] {
      if constexpr (kPacked) {
        const V lo = bcast(0xFFFF);
        const V m = mix(cur.pk[1], vRC, set_max);
        emit_closed(*b.sink, bits, max_at_close,
                    _mm256_srli_epi32(cur.pk[0], 16), and_(cur.pk[0], lo),
                    _mm256_srli_epi32(m, 16), and_(m, lo));
      } else {
        emit_closed(*b.sink, bits, max_at_close, cur.pk[0], cur.pk[1],
                    mix(cur.pk[2], vRow, set_max),
                    mix(cur.pk[3], vCol, set_max));
      }
    }

    if constexpr (kEdge) {
      // Right edge: lane d-(W-1) reached the block's last column.
      if (d + 1 >= W && d + 1 - W < static_cast<std::size_t>(aeff)) {
        const int l = static_cast<int>(d + 1 - W);
        b.edge[r0 + static_cast<std::size_t>(l)] = cell_at(cur, l);
      }
    }
    vCol = add(vCol, vOne);
  };

  // Ramp [0, lo), steady [lo, hi) with every row of the strip in range and
  // no edge traffic, tail [hi, steps).  A narrow block has no steady part.
  const std::size_t steps = W + static_cast<std::size_t>(aeff) - 1;
  const std::size_t lo = std::min(static_cast<std::size_t>(aeff), steps);
  const std::size_t hi = std::max(lo, std::min(W - 1, steps));
  std::size_t d = 0;
  for (; d < lo; ++d) step(d, std::true_type{});
  for (; d < hi; ++d) step(d, std::false_type{});
  for (; d < steps; ++d) step(d, std::true_type{});
  // The last bottom-row cell, (r0 + aeff - 1, W - 1).
  put(b.row, W - 1, cell_at(ring[(steps - 1) & 3], aeff - 1), kPacked);
}

}  // namespace

void heuristic_block(const ScoreScheme& scheme, const HeuristicParams& params,
                     std::span<const Base> s_rows, std::uint32_t row_begin,
                     std::span<const Base> t_cols, std::uint32_t col_begin,
                     const CellInfo& corner, std::span<CellInfo> row,
                     std::span<CellInfo> edge, CandidateSink& sink) {
  const std::size_t H = s_rows.size();
  const std::size_t W = t_cols.size();
  if (H == 0 || W == 0) return;

  thread_local Scratch scr;
  const std::size_t row_stride = W + kLanes;
  const std::size_t col_stride = H + 1 + kLanes;
  scr.soa.assign(kFields * (row_stride + col_stride), 0);
  scr.t_rev.assign(W + 2 * kLanes, Base{0});
  for (std::size_t k = 0; k < W; ++k) scr.t_rev[kLanes + k] = t_cols[W - 1 - k];

  Block b;
  b.scheme = &scheme;
  b.params = &params;
  b.s = s_rows.data();
  b.H = H;
  b.row_begin = row_begin;
  b.t_rev = scr.t_rev.data();
  b.W = W;
  b.col_begin = col_begin;
  std::int32_t* col[kFields];
  for (int f = 0; f < kFields; ++f) {
    b.row[f] = scr.soa.data() + static_cast<std::size_t>(f) * row_stride;
    col[f] = scr.soa.data() + kFields * row_stride +
             static_cast<std::size_t>(f) * col_stride;
    b.col[f] = col[f];
  }
  b.edge = edge.data();
  b.sink = &sink;

  // Every coordinate the block can carry is an input's or one of its own
  // cells'; when all fit 16 bits, (i, j) pairs travel as one field.
  constexpr std::uint32_t kMax16 = 0xFFFF;
  auto fits = [&](const CellInfo& c) {
    return std::max({c.begin_i, c.begin_j, c.max_i, c.max_j}) <= kMax16;
  };
  b.packed = row_begin + H - 1 <= kMax16 && col_begin + W - 1 <= kMax16 &&
             fits(corner) && std::all_of(row.begin(), row.end(), fits) &&
             std::all_of(edge.begin(), edge.end(), fits);

  for (std::size_t c = 0; c < W; ++c) put(b.row, c, row[c], b.packed);
  put(col, 0, corner, b.packed);
  for (std::size_t r = 0; r < H; ++r) put(col, r + 1, edge[r], b.packed);

  const bool affine = scheme.affine();
  for (std::size_t r0 = 0; r0 < H; r0 += kLanes) {
    if (affine) {
      b.packed ? strip<true, true>(b, r0) : strip<true, false>(b, r0);
    } else {
      b.packed ? strip<false, true>(b, r0) : strip<false, false>(b, r0);
    }
  }
  for (std::size_t c = 0; c < W; ++c) row[c] = get(b.row, c, affine, b.packed);

  if (scr.soa.capacity() > kKeepInts) std::vector<std::int32_t>().swap(scr.soa);
  if (scr.t_rev.capacity() > kKeepInts) std::vector<Base>().swap(scr.t_rev);
}

}  // namespace gdsm::avx2

#endif  // x86
