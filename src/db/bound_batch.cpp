// Baseline-ISA half of the batched bound (bound_batch.h): availability
// gating and forwarding into the -mavx2 translation unit.
#include "db/bound_batch.h"

#include <cstdlib>
#include <cstring>

namespace gdsm::db {

#if GDSM_DB_BOUND_AVX2
namespace detail {
void seeded_bound_batch_avx2(std::size_t m, const std::uint64_t* seed_bits,
                             std::size_t words, const std::uint32_t* cand,
                             std::size_t count, int a, int p, std::size_t q,
                             std::int32_t* out);
}  // namespace detail
#endif

bool bound_batch_available() {
#if GDSM_DB_BOUND_AVX2
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  if (!avx2) return false;
  const char* env = std::getenv("GDSM_DB_BOUND");
  return env == nullptr || std::strcmp(env, "scalar") != 0;
#else
  return false;
#endif
}

void seeded_bound_batch(std::size_t m, const std::uint64_t* seed_bits,
                        std::size_t words, const std::uint32_t* cand,
                        std::size_t count, int a, int p, std::size_t q,
                        std::int32_t* out) {
#if GDSM_DB_BOUND_AVX2
  detail::seeded_bound_batch_avx2(m, seed_bits, words, cand, count, a, p, q,
                                  out);
#else
  (void)m, (void)seed_bits, (void)words, (void)cand, (void)count;
  (void)a, (void)p, (void)q, (void)out;
#endif
}

}  // namespace gdsm::db
