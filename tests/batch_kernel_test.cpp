// Property suite for the inter-sequence batch kernel (src/simd/batch.h).
//
// The kernel scores up to 32 fragments per call, one per 8-bit vector
// lane, when a proven bound fits the lane, and pads ragged tiles with N
// columns.  These tests hold every lane to sw_best_score_linear under both
// gap models:
//   * on both sides of the 8-bit -> per-fragment bound edge, with lanes
//     that reach the bound exactly,
//   * with 1, 31, 32 and 33 fragments (the last split over two tiles) of
//     ragged lengths, including a sequence's short last fragment,
//   * with N runs in the query and in fragments,
// and check that the kernel declines (returns false, leaves the output
// alone) for an out-of-alphabet query and under the scalar backend.
// Skipped (never silently passed) when no AVX2 backend is active.
// tools/ci.sh re-runs this suite under ASan: the scratch buffers are
// recycled across tiles of different query and fragment lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/subject_db.h"
#include "simd/batch.h"
#include "simd/dispatch.h"
#include "sw/linear_score.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm {
namespace {

using simd::batch_best_scores;
using simd::batch_fits;
using simd::kBatchLanes;
using simd::ScoreParams;

simd::ScoreParams params(const ScoreScheme& s) {
  return simd::ScoreParams{s.match, s.mismatch, s.gap, s.gap_open};
}

bool batch_active() { return simd::active_backend() != simd::Backend::kScalar; }

/// Scores `frags` in tiles of kBatchLanes, as db_query does, and checks
/// every lane against sw_best_score_linear.
void expect_lanes_exact(const Sequence& query,
                        const std::vector<Sequence>& frags,
                        const ScoreScheme& scheme) {
  for (std::size_t t = 0; t < frags.size(); t += kBatchLanes) {
    const std::size_t count = std::min(kBatchLanes, frags.size() - t);
    const Base* ptrs[kBatchLanes];
    std::size_t lens[kBatchLanes];
    for (std::size_t l = 0; l < count; ++l) {
      ptrs[l] = frags[t + l].data();
      lens[l] = frags[t + l].size();
    }
    std::int32_t got[kBatchLanes];
    ASSERT_TRUE(batch_best_scores(query.data(), query.size(), ptrs, lens,
                                  count, params(scheme), got));
    for (std::size_t l = 0; l < count; ++l) {
      EXPECT_EQ(got[l], sw_best_score_linear(query, frags[t + l], scheme).score)
          << "fragment " << t + l << " len " << lens[l] << " affine "
          << scheme.affine();
    }
  }
}

const ScoreScheme kLinear{};
const ScoreScheme kAffine{1, -1, -1, -3};

TEST(BatchKernel, EightBitLanesFollowTheProvenBound) {
  // match * min(m, n) + match + bias with bias = -mismatch.
  EXPECT_TRUE(batch_fits(253, 256, ScoreParams{1, -1, -2, 0}));
  EXPECT_FALSE(batch_fits(254, 256, ScoreParams{1, -1, -2, 0}));
  EXPECT_TRUE(batch_fits(400, 253, ScoreParams{1, -1, -2, 0}));
  EXPECT_TRUE(batch_fits(126, 400, ScoreParams{2, -1, -2, 0}));
  EXPECT_FALSE(batch_fits(127, 400, ScoreParams{2, -1, -2, 0}));
  // A gap penalty beyond a lane sends the query per-fragment.
  EXPECT_TRUE(batch_fits(10, 10, ScoreParams{1, -1, -2, -253}));
  EXPECT_FALSE(batch_fits(10, 10, ScoreParams{1, -1, -2, -254}));
  // Degenerate schemes break the padding argument: per-fragment.
  EXPECT_FALSE(batch_fits(10, 10, ScoreParams{0, -1, -2, 0}));
  EXPECT_FALSE(batch_fits(10, 10, ScoreParams{1, 0, -2, 0}));
  EXPECT_FALSE(batch_fits(10, 10, ScoreParams{1, -1, 0, 0}));
  EXPECT_FALSE(batch_fits(10, 10, ScoreParams{1, -1, -2, 1}));
}

// Lane 0 is an exact copy of the query, so it reaches match * L, the bound
// itself; the other lanes are mutated copies and random fragments, some
// longer than the query.
TEST(BatchKernel, ScoresMatchReferenceAtBoundEdges) {
  if (!batch_active()) GTEST_SKIP() << "no AVX2 backend active";
  struct Edge {
    ScoreScheme scheme;
    std::size_t len;
    bool fits;
  };
  const Edge edges[] = {
      {{1, -1, -2, 0}, 253, true},   {{1, -1, -2, 0}, 254, false},
      {{1, -1, -1, -3}, 253, true},  {{1, -1, -1, -3}, 254, false},
      {{2, -1, -2, 0}, 126, true},   {{2, -1, -2, -3}, 126, true},
      {{2, -1, -2, 0}, 127, false},
  };
  Rng rng(41);
  for (const Edge& e : edges) {
    SCOPED_TRACE("L=" + std::to_string(e.len) + " match=" +
                 std::to_string(e.scheme.match) + " affine=" +
                 std::to_string(e.scheme.affine()));
    const Sequence query = random_dna(e.len, rng, "q");
    std::vector<Sequence> frags{query};
    for (std::size_t k = 1; k < kBatchLanes; ++k) {
      frags.push_back(k % 3 == 0 ? random_dna(e.len + k, rng)
                                 : mutate(query, 0.01 * (k % 7), 0.01, rng));
    }
    EXPECT_EQ(batch_fits(e.len, e.len + kBatchLanes, params(e.scheme)),
              e.fits);
    if (!e.fits) {
      const Base* ptrs[kBatchLanes];
      std::size_t lens[kBatchLanes];
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        ptrs[l] = frags[l].data();
        lens[l] = frags[l].size();
      }
      std::int32_t out[kBatchLanes] = {-7};
      EXPECT_FALSE(batch_best_scores(query.data(), query.size(), ptrs, lens,
                                     kBatchLanes, params(e.scheme), out));
      EXPECT_EQ(out[0], -7);
      continue;
    }
    ASSERT_EQ(sw_best_score_linear(query, query, e.scheme).score,
              e.scheme.match * static_cast<int>(e.len));
    expect_lanes_exact(query, frags, e.scheme);
  }
}

TEST(BatchKernel, RaggedTilesOfEveryCount) {
  if (!batch_active()) GTEST_SKIP() << "no AVX2 backend active";
  Rng rng(42);
  // 500 bp sequences cut into 256 bp fragments overlapping by 24 end in a
  // 36 bp fragment; a 60 bp sequence is one short fragment.
  std::vector<Sequence> seqs;
  for (int s = 0; s < 16; ++s) {
    seqs.push_back(random_dna(s % 4 == 3 ? 60 : 500, rng,
                              "s" + std::to_string(s)));
  }
  const db::SubjectDb db(seqs, {});
  std::vector<Sequence> pool;
  for (const db::Fragment& f : db.fragments()) {
    pool.push_back(db.fragment_seq(f.id));
  }
  pool.push_back(Sequence("empty", std::basic_string<Base>{}));
  ASSERT_GE(pool.size(), 33u);
  const Sequence hom = mutate(seqs[0].slice(200, 350), 0.05, 0.02, rng);
  const Sequence rnd = random_dna(150, rng);
  for (const ScoreScheme& scheme : {kLinear, kAffine}) {
    for (const std::size_t count : {1, 31, 32, 33}) {
      for (const Sequence* q : {&hom, &rnd}) {
        // Rotate which fragments land in the tile so the short ones and
        // the empty one fall on different lanes.
        std::vector<Sequence> frags;
        for (std::size_t k = 0; k < count; ++k) {
          frags.push_back(pool[(k * 7 + count) % pool.size()]);
        }
        expect_lanes_exact(*q, frags, scheme);
      }
    }
  }
}

TEST(BatchKernel, NBasesInQueryAndFragments) {
  if (!batch_active()) GTEST_SKIP() << "no AVX2 backend active";
  Rng rng(43);
  const Sequence src = random_dna(400, rng, "src");
  std::string with_n = src.text();
  for (std::size_t k = 40; k < 60; ++k) with_n[k] = 'N';
  for (std::size_t k = 200; k < 203; ++k) with_n[k] = 'N';
  const Sequence src_n("srcN", with_n);
  std::vector<Sequence> frags;
  for (std::size_t k = 0; k < kBatchLanes; ++k) {
    const Sequence& from = k % 2 == 0 ? src : src_n;
    frags.push_back(from.slice(k * 5, k * 5 + 150 + k));
  }
  frags.push_back(Sequence("allN", std::string(100, 'N')));
  const Sequence q_n("qN", with_n.substr(30, 180));
  const Sequence all_n("allNq", std::string(150, 'N'));
  for (const ScoreScheme& scheme : {kLinear, kAffine}) {
    for (const Sequence* q : {&q_n, &all_n}) {
      expect_lanes_exact(*q, frags, scheme);
    }
  }
}

TEST(BatchKernel, DeclinesNonAlphabetQueriesAndTheScalarBackend) {
  Rng rng(44);
  const Sequence frag = random_dna(200, rng, "f");
  const Base* ptrs[1] = {frag.data()};
  const std::size_t lens[1] = {frag.size()};
  std::int32_t out[1] = {-7};
  const Sequence plain = random_dna(100, rng);
  std::basic_string<Base> odd(plain.data(), plain.size());
  odd[50] = 9;  // not A/C/G/T/N
  const Sequence odd_q("odd", odd);
  EXPECT_FALSE(batch_best_scores(odd_q.data(), odd_q.size(), ptrs, lens, 1,
                                 params(kLinear), out));
  EXPECT_EQ(out[0], -7);

  const simd::Backend was = simd::active_backend();
  simd::force_backend(simd::Backend::kScalar);
  const Sequence q = random_dna(100, rng);
  EXPECT_FALSE(batch_best_scores(q.data(), q.size(), ptrs, lens, 1,
                                 params(kLinear), out));
  EXPECT_EQ(out[0], -7);
  simd::force_backend(was);
  if (!batch_active()) return;

  // Out-of-alphabet bytes in a fragment are fine: they match only an equal
  // query byte, and the query has none.
  std::basic_string<Base> odd_frag(frag.data(), frag.size());
  odd_frag[10] = 9;
  odd_frag[11] = 200;
  expect_lanes_exact(q, {Sequence("oddf", odd_frag), frag}, kLinear);
  const std::vector<Sequence> too_many(kBatchLanes + 1, frag);
  const Base* many_ptrs[kBatchLanes + 1];
  std::size_t many_lens[kBatchLanes + 1];
  for (std::size_t k = 0; k <= kBatchLanes; ++k) {
    many_ptrs[k] = too_many[k].data();
    many_lens[k] = too_many[k].size();
  }
  std::int32_t many_out[kBatchLanes + 1];
  EXPECT_THROW(batch_best_scores(q.data(), q.size(), many_ptrs, many_lens,
                                 kBatchLanes + 1, params(kLinear), many_out),
               std::invalid_argument);
}

}  // namespace
}  // namespace gdsm
