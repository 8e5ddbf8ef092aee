// AVX2 sweep of the inter-sequence batch kernel (batch.h).  This file is
// compiled with -mavx2 (see CMakeLists.txt); dispatch.cpp calls in here
// only while an AVX2 backend is active.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "simd/batch.h"
#include "simd/engine_avx2.h"

namespace gdsm::simd::avx2 {
namespace {

using E = detail::StripedAvx8;
static_assert(E::kLanes == kBatchLanes, "one fragment per 8-bit lane");

constexpr std::size_t kVecBytes = sizeof(__m256i);

/// Per-thread buffers, plain bytes: the transposed tile (column j is
/// kBatchLanes characters, one per lane) and the H / affine E state of the
/// current column (one vector per query position).
struct BatchScratch {
  std::vector<std::uint8_t> cols, h, e;
};

/// The whole tile through the DP, one lane per fragment; returns each
/// lane's maximum cell.  With mismatch < 0 the bias is -mismatch, so a
/// biased substitution is match - mismatch on a match and 0 otherwise.
/// H and E are clamped at 0 by the unsigned subtractions, which is exact
/// for a local score (H >= 0, so a negative gap state never surfaces).
template <bool kAffine>
__m256i sweep(const Base* q, std::size_t m, const std::uint8_t* cols,
              std::size_t n, const ScoreParams& sp, std::uint8_t* hbuf,
              std::uint8_t* ebuf) {
  using V = __m256i;
  const V vBias = E::set1(-sp.mismatch);
  const V vMatch = E::set1(sp.match - sp.mismatch);
  const V vGapOE = E::set1(-(sp.gap_open + sp.gap));
  const V vGapE = E::set1(-sp.gap);
  std::memset(hbuf, 0, m * kVecBytes);
  if constexpr (kAffine) std::memset(ebuf, 0, m * kVecBytes);
  V vMax = E::zero();
  for (std::size_t j = 0; j < n; ++j) {
    const V d = E::loadu(cols + j * kBatchLanes);
    V sub[kAlphabetSize];
    for (int c = 0; c < kAlphabetSize; ++c) {
      sub[c] = c == kBaseN ? E::zero()
                           : _mm256_and_si256(
                                 _mm256_cmpeq_epi8(d, E::set1(c)), vMatch);
    }
    V hdiag = E::zero();  // H(i-1, j-1)
    V hup = E::zero();    // H(i-1, j)
    V f = E::zero();      // vertical gap state F(i-1, j)
    for (std::size_t i = 0; i < m; ++i) {
      const V hleft = E::loadu(hbuf + i * kVecBytes);  // H(i, j-1)
      V h = E::subs(E::adds(hdiag, sub[q[i]]), vBias);
      if constexpr (kAffine) {
        const V e = E::maxv(E::subs(hleft, vGapOE),
                            E::subs(E::loadu(ebuf + i * kVecBytes), vGapE));
        f = E::maxv(E::subs(hup, vGapOE), E::subs(f, vGapE));
        h = E::maxv(h, E::maxv(e, f));
        E::storeu(ebuf + i * kVecBytes, e);
      } else {
        h = E::maxv(h, E::subs(E::maxv(hleft, hup), vGapE));
      }
      E::storeu(hbuf + i * kVecBytes, h);
      vMax = E::maxv(vMax, h);
      hdiag = hleft;
      hup = h;
    }
  }
  return vMax;
}

}  // namespace

void batch_best_scores(const Base* q, std::size_t m, const Base* const* frags,
                       const std::size_t* lens, std::size_t count,
                       const ScoreParams& sp, std::int32_t* out) {
  thread_local BatchScratch scr;
  std::size_t n = 0;
  for (std::size_t k = 0; k < count; ++k) n = std::max(n, lens[k]);
  // Transpose the tile; kBaseN pads short fragments and unused lanes.
  scr.cols.assign(n * kBatchLanes, kBaseN);
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t j = 0; j < lens[k]; ++j) {
      scr.cols[j * kBatchLanes + k] = frags[k][j];
    }
  }
  scr.h.resize(m * kVecBytes);
  scr.e.resize(sp.gap_open != 0 ? m * kVecBytes : 0);
  const __m256i vMax =
      sp.gap_open != 0
          ? sweep<true>(q, m, scr.cols.data(), n, sp, scr.h.data(),
                        scr.e.data())
          : sweep<false>(q, m, scr.cols.data(), n, sp, scr.h.data(), nullptr);
  E::Word lanes[kBatchLanes];
  E::storeu(lanes, vMax);
  for (std::size_t k = 0; k < count; ++k) out[k] = lanes[k];
}

}  // namespace gdsm::simd::avx2

#endif  // x86
