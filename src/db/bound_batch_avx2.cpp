// AVX2 kernel of the batched seeded-run bound (bound_batch.h).  This is the
// only db/ translation unit compiled with -mavx2; bound_batch.cpp gates
// every call on CPUID, so the rest of the library stays baseline x86-64.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace gdsm::db::detail {
namespace {

constexpr int kNeg = -(1 << 28);

/// Windows [w, w + 32) of each lane's seed row, one 32-bit slice per lane
/// (w is a multiple of 32, so the slice never straddles a 64-bit word).
__m256i load_seed_slices(const std::uint64_t* const* rows, std::size_t w) {
  alignas(32) std::uint32_t slice[8];
  for (int c = 0; c < 8; ++c) {
    slice[c] = static_cast<std::uint32_t>(rows[c][w >> 6] >> (w & 32));
  }
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(slice));
}

/// One vector of 8 candidates through the full m-column DP.  Mirrors
/// seeded_bound_core in subject_db.cpp state for state; see that function
/// for the recurrence derivation.  QF bakes q into the type (the state
/// array stays in ymm registers and the r-loops unroll); QF == 0 reads q_rt.
template <std::size_t QF>
void bound_lanes(std::size_t m, const std::uint64_t* const* rows, int a,
                 int p, std::size_t q_rt, std::int32_t* out) {
  const std::size_t q = QF != 0 ? QF : q_rt;
  const __m256i va = _mm256_set1_epi32(a);
  const __m256i vstep = _mm256_set1_epi32(a - p);  // error column then match
  const __m256i vp = _mm256_set1_epi32(p);
  const __m256i vneg = _mm256_set1_epi32(kNeg);
  const __m256i zero = _mm256_setzero_si256();

  __m256i v[QF != 0 ? QF : 16];
  for (std::size_t r = 1; r < q; ++r) v[r] = vneg;
  v[0] = zero;
  __m256i best = zero;
  __m256i seeds = zero;  // per lane: upcoming windows' bits, next in bit 0
  for (std::size_t j = 0; j < m; ++j) {
    __m256i vmax = v[0];
    for (std::size_t r = 1; r < q; ++r) vmax = _mm256_max_epi32(vmax, v[r]);
    best = _mm256_max_epi32(best, vmax);
    // Run cap: v[q-1] may extend past length q-1 only in lanes whose window
    // j+1-q is seeded (j < m keeps it below m-q+1).  Shifting the window's
    // bit into the sign position makes it a blendv lane mask.
    __m256i cap = vneg;
    if (j + 1 >= q) {
      const std::size_t w = j + 1 - q;
      if ((w & 31) == 0) seeds = load_seed_slices(rows, w);
      const __m256 mask = _mm256_castsi256_ps(_mm256_slli_epi32(seeds, 31));
      cap = _mm256_castps_si256(_mm256_blendv_ps(
          _mm256_castsi256_ps(vneg),
          _mm256_castsi256_ps(_mm256_add_epi32(v[q - 1], va)), mask));
      seeds = _mm256_srli_epi32(seeds, 1);
    }
    for (std::size_t r = q - 1; r >= 1; --r)
      v[r] = _mm256_add_epi32(v[r - 1], va);
    v[q - 1] = _mm256_max_epi32(v[q - 1], cap);
    v[1] = _mm256_max_epi32(v[1], _mm256_add_epi32(vmax, vstep));
    v[0] = _mm256_max_epi32(zero, _mm256_sub_epi32(vmax, vp));
  }
  for (std::size_t r = 0; r < q; ++r) best = _mm256_max_epi32(best, v[r]);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), best);
}

}  // namespace

void seeded_bound_batch_avx2(std::size_t m, const std::uint64_t* seed_bits,
                             std::size_t words, const std::uint32_t* cand,
                             std::size_t count, int a, int p, std::size_t q,
                             std::int32_t* out) {
  for (std::size_t c = 0; c < count; c += 8) {
    const std::uint64_t* rows[8];
    for (std::size_t l = 0; l < 8; ++l) {
      rows[l] = seed_bits + cand[std::min(c + l, count - 1)] * words;
    }
    std::int32_t* o = out + c;
    switch (q) {  // same fixed-q instantiations as the scalar core
      case 4: bound_lanes<4>(m, rows, a, p, q, o); break;
      case 5: bound_lanes<5>(m, rows, a, p, q, o); break;
      case 6: bound_lanes<6>(m, rows, a, p, q, o); break;
      case 7: bound_lanes<7>(m, rows, a, p, q, o); break;
      default: bound_lanes<0>(m, rows, a, p, q, o); break;
    }
  }
}

}  // namespace gdsm::db::detail

#endif  // x86
