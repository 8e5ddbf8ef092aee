// Scalar reference backend.  The behavioural contract every vector backend
// is held to (tests/simd_kernel_test.cpp): same scores, same edges, same
// tie-breaks.  Sweeps b-major so the strict `v > best` update yields the
// first maximum in (b, a) lexicographic order.
#include "simd/kernels.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace gdsm::simd::scalar {
namespace {

inline std::int32_t sub_score(Base x, Base y, const ScoreParams& sp) {
  return (x == y && x != kBaseN) ? sp.match : sp.mismatch;
}

// Degenerate blocks: an empty dimension still defines the requested edges
// (they are just the boundary values), including the affine gap-state edges.
inline bool handle_empty(const DiagBlock& blk) {
  if (blk.a_len != 0 && blk.b_len != 0) return false;
  if (blk.a_len == 0 && blk.out_last_a != nullptr) {
    for (std::size_t b = 0; b < blk.b_len; ++b)
      blk.out_last_a[b] = blk.bound_b ? blk.bound_b[b] : 0;
  }
  if (blk.a_len == 0 && blk.out_last_a_f != nullptr) {
    for (std::size_t b = 0; b < blk.b_len; ++b)
      blk.out_last_a_f[b] = blk.bound_f ? blk.bound_f[b] : kNegInf;
  }
  if (blk.b_len == 0 && blk.out_last_b != nullptr) {
    for (std::size_t a = 0; a < blk.a_len; ++a)
      blk.out_last_b[a] = blk.bound_a ? blk.bound_a[a] : 0;
  }
  if (blk.b_len == 0 && blk.out_last_b_e != nullptr) {
    for (std::size_t a = 0; a < blk.a_len; ++a)
      blk.out_last_b_e[a] = blk.bound_e ? blk.bound_e[a] : kNegInf;
  }
  return true;
}

// Shared b-major sweep; Visit sees every cell as (a, b, v).
template <class Visit>
void sweep(const DiagBlock& blk, const ScoreParams& sp, Visit&& visit) {
  const std::size_t A = blk.a_len;
  const std::size_t B = blk.b_len;
  std::vector<std::int32_t> prev(A);  // column b-1
  std::vector<std::int32_t> cur(A);   // column b
  for (std::size_t b = 0; b < B; ++b) {
    const Base cb = blk.b_seq[b];
    const std::int32_t left_bound = blk.bound_b ? blk.bound_b[b] : 0;
    for (std::size_t a = 0; a < A; ++a) {
      const std::int32_t up =
          b ? prev[a] : (blk.bound_a ? blk.bound_a[a] : 0);  // v(a, b-1)
      const std::int32_t diag =
          a ? (b ? prev[a - 1] : (blk.bound_a ? blk.bound_a[a - 1] : 0))
            : (b ? (blk.bound_b ? blk.bound_b[b - 1] : 0) : blk.corner);
      const std::int32_t left = a ? cur[a - 1] : left_bound;  // v(a-1, b)
      const std::int32_t v =
          std::max({std::int32_t{0}, diag + sub_score(blk.a_seq[a], cb, sp),
                    up + sp.gap, left + sp.gap});
      cur[a] = v;
      visit(a, b, v);
    }
    if (blk.out_last_a != nullptr) blk.out_last_a[b] = cur[A - 1];
    std::swap(prev, cur);
  }
  if (blk.out_last_b != nullptr)
    std::copy(prev.begin(), prev.end(), blk.out_last_b);
}

// Gotoh three-matrix sweep (sp.gap_open != 0), same b-major order and the
// same strict first-of-max contract on H.  E is the gap state consuming
// b-characters (recurrence reads column b-1), F the one consuming
// a-characters (reads the running value along a); H is floored at zero but
// E/F are not — a negative gap state can still be continued, it just cannot
// surface in H past the floor.
template <class Visit>
void sweep_affine(const DiagBlock& blk, const ScoreParams& sp, Visit&& visit) {
  const std::size_t A = blk.a_len;
  const std::size_t B = blk.b_len;
  const std::int32_t ext = sp.gap;
  const std::int32_t oe = sp.gap_open + sp.gap;
  std::vector<std::int32_t> hprev(A), hcur(A);  // H columns b-1 / b
  std::vector<std::int32_t> eprev(A), ecur(A);  // E columns b-1 / b
  for (std::size_t b = 0; b < B; ++b) {
    const Base cb = blk.b_seq[b];
    const std::int32_t left_bound = blk.bound_b ? blk.bound_b[b] : 0;
    std::int32_t f = blk.bound_f ? blk.bound_f[b] : kNegInf;  // F(a-1, b)
    for (std::size_t a = 0; a < A; ++a) {
      const std::int32_t h_up =
          b ? hprev[a] : (blk.bound_a ? blk.bound_a[a] : 0);  // H(a, b-1)
      const std::int32_t e_up =
          b ? eprev[a] : (blk.bound_e ? blk.bound_e[a] : kNegInf);
      const std::int32_t diag =
          a ? (b ? hprev[a - 1] : (blk.bound_a ? blk.bound_a[a - 1] : 0))
            : (b ? (blk.bound_b ? blk.bound_b[b - 1] : 0) : blk.corner);
      const std::int32_t h_left = a ? hcur[a - 1] : left_bound;  // H(a-1, b)
      const std::int32_t e = std::max(h_up + oe, e_up + ext);
      f = std::max(h_left + oe, f + ext);
      const std::int32_t v =
          std::max({std::int32_t{0},
                    diag + sub_score(blk.a_seq[a], cb, sp), e, f});
      hcur[a] = v;
      ecur[a] = e;
      visit(a, b, v);
    }
    if (blk.out_last_a != nullptr) blk.out_last_a[b] = hcur[A - 1];
    if (blk.out_last_a_f != nullptr) blk.out_last_a_f[b] = f;
    std::swap(hprev, hcur);
    std::swap(eprev, ecur);
  }
  if (blk.out_last_b != nullptr)
    std::copy(hprev.begin(), hprev.end(), blk.out_last_b);
  if (blk.out_last_b_e != nullptr)
    std::copy(eprev.begin(), eprev.end(), blk.out_last_b_e);
}

// Both gap models through one Visit-shaped entry.
template <class Visit>
void sweep_any(const DiagBlock& blk, const ScoreParams& sp, Visit&& visit) {
  if (sp.gap_open != 0)
    sweep_affine(blk, sp, std::forward<Visit>(visit));
  else
    sweep(blk, sp, std::forward<Visit>(visit));
}

}  // namespace

BestCell block_best(const DiagBlock& blk, const ScoreParams& sp) {
  BestCell best;
  if (handle_empty(blk)) return best;
  sweep_any(blk, sp, [&](std::size_t a, std::size_t b, std::int32_t v) {
    if (v > best.score) best = BestCell{v, a, b};
  });
  return best;
}

void block_count(const DiagBlock& blk, const ScoreParams& sp,
                 std::int32_t threshold, std::uint64_t* count_by_a) {
  if (handle_empty(blk)) return;
  sweep_any(blk, sp, [&](std::size_t a, std::size_t, std::int32_t v) {
    if (v >= threshold) ++count_by_a[a];
  });
}

void block_hits(const DiagBlock& blk, const ScoreParams& sp,
                std::int32_t threshold, const HitSink& sink) {
  if (handle_empty(blk)) return;
  sweep_any(blk, sp, [&](std::size_t a, std::size_t b, std::int32_t v) {
    if (v >= threshold) sink(a, b, v);
  });
}

void nw_last_row(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                 std::size_t b_len, const ScoreParams& sp,
                 std::int32_t* out_by_a) {
  const std::int32_t gap = sp.gap;
  std::vector<std::int32_t> prev(a_len);
  std::vector<std::int32_t> cur(a_len);
  for (std::size_t a = 0; a < a_len; ++a)
    prev[a] = static_cast<std::int32_t>(a + 1) * gap;  // v(a, -1)
  for (std::size_t b = 0; b < b_len; ++b) {
    const Base cb = b_seq[b];
    std::int32_t left = static_cast<std::int32_t>(b + 1) * gap;  // v(-1, b)
    for (std::size_t a = 0; a < a_len; ++a) {
      const std::int32_t diag =
          a ? prev[a - 1] : static_cast<std::int32_t>(b) * gap;
      const std::int32_t v = std::max(
          {diag + sub_score(a_seq[a], cb, sp), prev[a] + gap, left + gap});
      cur[a] = v;
      left = v;
    }
    std::swap(prev, cur);
  }
  std::copy(prev.begin(), prev.end(), out_by_a);
}

void nw_last_row_affine(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                        std::size_t b_len, const ScoreParams& sp,
                        std::int32_t tb_open, std::int32_t* out_h,
                        std::int32_t* out_e) {
  const std::int32_t ext = sp.gap;
  const std::int32_t open = sp.gap_open;
  std::vector<std::int32_t> h(a_len), e(a_len);    // columns b-1
  std::vector<std::int32_t> hc(a_len), ec(a_len);  // columns b
  for (std::size_t a = 0; a < a_len; ++a) {
    h[a] = open + static_cast<std::int32_t>(a + 1) * ext;  // H(a, -1)
    e[a] = kNegInf;                                        // E(a, -1)
  }
  for (std::size_t b = 0; b < b_len; ++b) {
    const Base cb = b_seq[b];
    // b-gap runs touching b == 0 are charged tb_open instead of gap_open —
    // the Myers–Miller boundary discount (tb_open == gap_open normally).
    const std::int32_t open_b = b == 0 ? tb_open : open;
    const std::int32_t h_border =
        tb_open + static_cast<std::int32_t>(b + 1) * ext;  // H(-1, b)
    const std::int32_t diag_border =
        b ? tb_open + static_cast<std::int32_t>(b) * ext : 0;  // H(-1, b-1)
    std::int32_t f = kNegInf;                                  // F(-1, b)
    for (std::size_t a = 0; a < a_len; ++a) {
      const std::int32_t diag = a ? h[a - 1] : diag_border;
      const std::int32_t h_left = a ? hc[a - 1] : h_border;
      const std::int32_t ev = std::max(h[a] + open_b + ext, e[a] + ext);
      f = std::max(h_left + open + ext, f + ext);
      hc[a] = std::max({diag + sub_score(a_seq[a], cb, sp), ev, f});
      ec[a] = ev;
    }
    std::swap(h, hc);
    std::swap(e, ec);
  }
  std::copy(h.begin(), h.end(), out_h);
  if (out_e != nullptr) std::copy(e.begin(), e.end(), out_e);
}

}  // namespace gdsm::simd::scalar
