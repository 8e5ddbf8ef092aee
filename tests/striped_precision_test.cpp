// Precision-boundary property suite for the striped (Farrar) kernels
// (src/simd/striped.h).
//
// The striped path's whole value proposition is running the DP in 8-bit
// saturating lanes and escalating — 8 -> 16 -> 32-bit delegation — only when
// a block provably (or detectably) needs more headroom.  These tests build
// inputs whose best scores straddle each rung's boundary and prove, for
// striped-avx2 (skipped on hosts without AVX2), that
//   * scores stay bit-identical to the scalar anti-diagonal reference on
//     BOTH sides of every boundary (escalation is invisible to callers),
//   * the overflow_reruns / fallback32 counters fire exactly when the
//     boundary is crossed (escalation happens when and only when needed).
// tools/ci.sh re-runs this suite under ASan: the re-run path recycles the
// thread-local scratch rows at a different width, which is exactly where a
// stale-size bug would hide.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simd/dispatch.h"
#include "util/alphabet.h"

namespace gdsm::simd {
namespace {

struct StripedFn {
  const char* name;
  BestCell (*block_best)(const DiagBlock&, const ScoreParams&);
};

bool backend_available(Backend b) {
  for (Backend have : available_backends()) {
    if (have == b) return true;
  }
  return false;
}

std::vector<StripedFn> striped_backends_under_test() {
  std::vector<StripedFn> out;
#if GDSM_SIMD_AVX2
  if (backend_available(Backend::kStripedAvx2))
    out.push_back({"striped-avx2", striped_avx2::block_best});
#endif
  return out;
}

DiagBlock fresh_block(const std::vector<Base>& a, const std::vector<Base>& b) {
  DiagBlock blk;
  blk.a_seq = a.data();
  blk.a_len = a.size();
  blk.b_seq = b.data();
  blk.b_len = b.size();
  return blk;
}

std::vector<Base> mutated_copy(const std::vector<Base>& src, double rate,
                               std::mt19937& rng) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, 3);
  std::vector<Base> out = src;
  for (auto& c : out) {
    if (coin(rng) < rate) c = static_cast<Base>(pick(rng));
  }
  return out;
}

// Identical length-L sequences under {match=1, mismatch=-1, gap=-2} score
// exactly L, and bias = 1 puts the 8-bit detection cap at 255 - 1 = 254:
// the first DP cell whose true value reaches 254 saturates (in the biased
// domain) and must trigger the 16-bit re-run.  L = 253 is the largest block
// the 8-bit rung may answer by itself.
TEST(StripedPrecision, Int8SaturationBoundaryIsScoreExact) {
  const ScoreParams sp{1, -1, -2};
  const auto backends = striped_backends_under_test();
  if (backends.empty()) GTEST_SKIP() << "striped-avx2 unavailable on this host";
  for (const auto& be : backends) {
    for (const std::size_t L :
         {std::size_t{250}, std::size_t{253}, std::size_t{254},
          std::size_t{255}, std::size_t{300}, std::size_t{400}}) {
      SCOPED_TRACE(std::string(be.name) + " L=" + std::to_string(L));
      const std::vector<Base> a(L, kBaseA), b(L, kBaseA);
      const DiagBlock blk = fresh_block(a, b);
      const BestCell ref = scalar::block_best(blk, sp);
      ASSERT_EQ(ref.score, static_cast<std::int32_t>(L));

      const StripedCounters before = striped_counters();
      const BestCell got = be.block_best(blk, sp);
      const StripedCounters after = striped_counters();

      EXPECT_EQ(got.score, ref.score);
      EXPECT_EQ(got.a, ref.a);
      EXPECT_EQ(got.b, ref.b);
      const bool expect_rerun = L >= 254;
      EXPECT_EQ(after.overflow_reruns - before.overflow_reruns,
                expect_rerun ? 1u : 0u);
      EXPECT_EQ(after.sweeps8 - before.sweeps8, 1u);
      EXPECT_EQ(after.sweeps16 - before.sweeps16, expect_rerun ? 1u : 0u);
      EXPECT_EQ(after.cells8 - before.cells8, static_cast<std::uint64_t>(L) * L);
      EXPECT_EQ(after.fallback32 - before.fallback32, 0u);
    }
  }
}

// Same boundary under the affine (Gotoh) gap model: a nonzero gap_open runs
// the identical biased sweep with gap_oe = -(open + extend), and the
// escalation ladder must stay score-exact there too.  match=2, bias=3 puts
// the cap at 252, so identical length-L sequences (score 2L) cross it
// between L=125 and L=126.
TEST(StripedPrecision, Int8BoundaryIsScoreExactUnderAffineGaps) {
  const ScoreParams sp{2, -3, -1, -3};
  const auto backends = striped_backends_under_test();
  if (backends.empty()) GTEST_SKIP() << "striped-avx2 unavailable on this host";
  for (const auto& be : backends) {
    for (const std::size_t L : {std::size_t{120}, std::size_t{125},
                                std::size_t{126}, std::size_t{200}}) {
      SCOPED_TRACE(std::string(be.name) + " L=" + std::to_string(L));
      const std::vector<Base> a(L, kBaseA), b(L, kBaseA);
      const DiagBlock blk = fresh_block(a, b);
      const BestCell ref = scalar::block_best(blk, sp);
      ASSERT_EQ(ref.score, static_cast<std::int32_t>(2 * L));

      const StripedCounters before = striped_counters();
      const BestCell got = be.block_best(blk, sp);
      const StripedCounters after = striped_counters();

      EXPECT_EQ(got.score, ref.score);
      EXPECT_EQ(got.a, ref.a);
      EXPECT_EQ(got.b, ref.b);
      const bool expect_rerun = 2 * L >= 252;
      EXPECT_EQ(after.overflow_reruns - before.overflow_reruns,
                expect_rerun ? 1u : 0u);
      EXPECT_EQ(after.sweeps16 - before.sweeps16, expect_rerun ? 1u : 0u);
    }
  }
}

// The 16-bit rung is guarded by a proven bound instead of detection:
// step_gain * min(m, n) + step_gain + bias <= 65000.  With match=300 /
// mismatch=-200 (bias=200, so fit8 is off and every block starts at the
// 16-bit rung) the bound flips between m = 215 (64500 + 500 = 65000, sweeps
// at 16 bits) and m = 216 (65300, delegates to the anti-diagonal backend's
// 32-bit routing).  Scores must be exact on both sides.
TEST(StripedPrecision, Int16BoundGateFallsBackExactly) {
  const ScoreParams sp{300, -200, -150};
  const auto backends = striped_backends_under_test();
  if (backends.empty()) GTEST_SKIP() << "striped-avx2 unavailable on this host";
  for (const auto& be : backends) {
    for (const std::size_t L : {std::size_t{215}, std::size_t{216}}) {
      SCOPED_TRACE(std::string(be.name) + " L=" + std::to_string(L));
      const std::vector<Base> a(L, kBaseA), b(L, kBaseA);
      const DiagBlock blk = fresh_block(a, b);
      const BestCell ref = scalar::block_best(blk, sp);
      ASSERT_EQ(ref.score, static_cast<std::int32_t>(300 * L));

      const StripedCounters before = striped_counters();
      const BestCell got = be.block_best(blk, sp);
      const StripedCounters after = striped_counters();

      EXPECT_EQ(got.score, ref.score);
      EXPECT_EQ(got.a, ref.a);
      EXPECT_EQ(got.b, ref.b);
      const bool expect_fallback = L >= 216;
      EXPECT_EQ(after.fallback32 - before.fallback32,
                expect_fallback ? 1u : 0u);
      EXPECT_EQ(after.sweeps16 - before.sweeps16, expect_fallback ? 0u : 1u);
      EXPECT_EQ(after.sweeps8 - before.sweeps8, 0u);  // fit8 is off: bias 200
    }
  }
}

// Property fuzz across the 8-bit boundary: high-identity pairs (a mutated
// copy) of lengths chosen so best scores land on both sides of the cap.
// Every block must match the scalar reference exactly, whichever rung
// answered it — and across the whole sweep both rungs must actually have
// been used (the straddle is real, not vacuous).
TEST(StripedPrecision, HighIdentityFuzzIsExactAcrossEscalation) {
  const ScoreParams linear{2, -3, -4};
  const ScoreParams affine{2, -3, -1, -3};
  std::mt19937 rng(20260808);
  const auto backends = striped_backends_under_test();
  if (backends.empty()) GTEST_SKIP() << "striped-avx2 unavailable on this host";
  for (const auto& be : backends) {
    const StripedCounters start = striped_counters();
    std::uint64_t blocks = 0;
    for (const ScoreParams& sp : {linear, affine}) {
      for (const std::size_t L :
           {std::size_t{60}, std::size_t{100}, std::size_t{126},
            std::size_t{140}, std::size_t{220}, std::size_t{400}}) {
        for (int trial = 0; trial < 3; ++trial) {
          SCOPED_TRACE(std::string(be.name) + (sp.gap_open ? " affine" : "") +
                       " L=" + std::to_string(L) + " trial=" +
                       std::to_string(trial));
          std::uniform_int_distribution<int> pick(0, 3);
          std::vector<Base> a(L);
          for (auto& c : a) c = static_cast<Base>(pick(rng));
          const std::vector<Base> b = mutated_copy(a, 0.02, rng);
          const DiagBlock blk = fresh_block(a, b);
          const BestCell ref = scalar::block_best(blk, sp);
          const BestCell got = be.block_best(blk, sp);
          EXPECT_EQ(got.score, ref.score);
          if (ref.score > 0) {
            EXPECT_EQ(got.a, ref.a);
            EXPECT_EQ(got.b, ref.b);
          }
          ++blocks;
        }
      }
    }
    const StripedCounters end = striped_counters();
    EXPECT_EQ(end.sweeps8 - start.sweeps8, blocks);  // every block starts at 8
    EXPECT_GT(end.overflow_reruns - start.overflow_reruns, 0u);
    EXPECT_LT(end.overflow_reruns - start.overflow_reruns, blocks);
    EXPECT_EQ(end.delegated - start.delegated, 0u);
  }
}

}  // namespace
}  // namespace gdsm::simd
