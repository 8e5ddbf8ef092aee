// Section 6 tests: rebuilding exact alignments over reversed prefixes with
// the zero-elimination pruning (Observation 6.1 / Theorem 6.2).
#include <gtest/gtest.h>

#include "sw/full_matrix.h"
#include "sw/linear_score.h"
#include "sw/reverse_rebuild.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm {
namespace {

const ScoreScheme kScheme{};

// The paper's Section 6 worked example (Tables 5-7).
TEST(ReverseRebuild, PaperWorkedExample) {
  const Sequence s("s", "TCTCGACGGATTAGTATATATATA");
  const Sequence t("t", "ATATGATCGGAATAGCTCT");
  const BestLocal best = sw_best_score_linear(s, t, kScheme);
  EXPECT_GT(best.score, 0);

  const RebuildResult res = rebuild_best_local_alignment(s, t, kScheme);
  EXPECT_EQ(res.alignment.score, best.score);
  EXPECT_EQ(res.alignment.compute_score(s, t, kScheme), best.score);
  // The pruned reverse pass must have touched strictly less area than the
  // full rectangle it ran over.
  EXPECT_GT(res.stats.computed_cells, 0u);
  EXPECT_LE(res.stats.computed_cells, res.stats.rect_area);
}

TEST(ReverseRebuild, MatchesFullMatrixTraceback) {
  for (std::uint64_t seed : {61, 62, 63, 64, 65}) {
    Rng rng(seed);
    HomologousPairSpec spec;
    spec.length_s = 400;
    spec.length_t = 400;
    spec.n_regions = 1;
    spec.region_len_mean = 80;
    spec.region_len_spread = 10;
    spec.seed = seed;
    const HomologousPair pair = make_homologous_pair(spec);

    const Alignment full = smith_waterman(pair.s, pair.t, kScheme);
    const RebuildResult res = rebuild_best_local_alignment(pair.s, pair.t, kScheme);
    EXPECT_EQ(res.alignment.score, full.score) << "seed " << seed;
    EXPECT_EQ(res.alignment.compute_score(pair.s, pair.t, kScheme), full.score);
  }
}

TEST(ReverseRebuild, HirschbergVariantSameScore) {
  Rng rng(66);
  HomologousPairSpec spec;
  spec.length_s = 600;
  spec.length_t = 500;
  spec.n_regions = 1;
  spec.region_len_mean = 120;
  spec.region_len_spread = 10;
  spec.seed = 66;
  const HomologousPair pair = make_homologous_pair(spec);
  const RebuildResult nw = rebuild_best_local_alignment(pair.s, pair.t, kScheme,
                                                        /*use_hirschberg=*/false);
  const RebuildResult h = rebuild_best_local_alignment(pair.s, pair.t, kScheme,
                                                       /*use_hirschberg=*/true);
  EXPECT_EQ(nw.alignment.score, h.alignment.score);
  EXPECT_EQ(h.alignment.compute_score(pair.s, pair.t, kScheme),
            h.alignment.score);
}

TEST(ReverseRebuild, StartCoordsDefineMinimalAlignment) {
  // The identified subwords must globally align to exactly the local score
  // (Theorem 6.2: a global alignment of that score exists between maximal
  // start positions, and none between later starts).
  Rng rng(67);
  const Sequence noise_s = random_dna(200, rng, "ns");
  const Sequence noise_t = random_dna(200, rng, "nt");
  const Sequence shared = random_dna(60, rng, "shared");
  Sequence s("s", noise_s.text() + shared.text());
  Sequence t("t", shared.text() + noise_t.text());

  const BestLocal best = sw_best_score_linear(s, t, kScheme);
  const StartCoords start =
      find_alignment_start(s, t, kScheme, best.end_i, best.end_j, best.score);
  ASSERT_GE(start.i, 1u);
  ASSERT_GE(start.j, 1u);
  const Alignment global = needleman_wunsch(
      s.slice(start.i - 1, best.end_i), t.slice(start.j - 1, best.end_j), kScheme);
  EXPECT_EQ(global.score, best.score);
}

TEST(ReverseRebuild, PrunedAreaMatchesPaperBound) {
  // Eq. (3): ~2/3 of the n' x n' square is unnecessary, i.e. the necessary
  // (worst-case) area is approximately 30%.  A perfect diagonal alignment
  // exercises exactly that worst case: the useful region is bounded by the
  // k + ceil(k/2) frontier in both directions, whose area tends to 1/3.
  Rng rng(68);
  const Sequence shared = random_dna(300, rng, "shared");
  const Sequence s = shared;
  const Sequence t = shared;
  const RebuildResult res = rebuild_best_local_alignment(s, t, kScheme);
  EXPECT_EQ(res.alignment.score, 300);
  const double frac = static_cast<double>(res.stats.computed_cells) /
                      (300.0 * 300.0);
  EXPECT_NEAR(frac, 1.0 / 3.0, 0.05)
      << "pruned area should approach the paper's ~30% bound";
}

TEST(ReverseRebuild, InvalidInputsThrow) {
  const Sequence s("s", "ACGTACGT");
  EXPECT_THROW(find_alignment_start(s, s, kScheme, 0, 1, 1), std::logic_error);
  EXPECT_THROW(find_alignment_start(s, s, kScheme, 1, 1, 0), std::logic_error);
  EXPECT_THROW(find_alignment_start(s, s, kScheme, 100, 1, 1), std::logic_error);
  // Score larger than achievable from that end cell.
  EXPECT_THROW(find_alignment_start(s, s, kScheme, 2, 2, 50), std::logic_error);
}

TEST(RebuildTopK, FindsAllPlantedRegionsExactly) {
  HomologousPairSpec spec;
  spec.length_s = 1500;
  spec.length_t = 1500;
  spec.n_regions = 4;
  spec.region_len_mean = 120;
  spec.region_len_spread = 20;
  spec.seed = 701;
  const HomologousPair pair = make_homologous_pair(spec);

  const auto results =
      rebuild_top_alignments(pair.s, pair.t, /*min_score=*/40, /*max_count=*/8);
  ASSERT_GE(results.size(), 4u);

  // Best first, each score verified against its own path.
  for (std::size_t k = 0; k < results.size(); ++k) {
    const Alignment& al = results[k].alignment;
    EXPECT_EQ(al.compute_score(pair.s, pair.t, kScheme), al.score);
    if (k > 0) {
      EXPECT_GE(results[k - 1].alignment.score, al.score);
    }
  }
  // The top result equals the global best; every planted region is covered.
  EXPECT_EQ(results[0].alignment.score,
            sw_best_score_linear(pair.s, pair.t, kScheme).score);
  for (const PlantedRegion& r : pair.regions) {
    const bool covered = std::any_of(
        results.begin(), results.end(), [&](const RebuildResult& res) {
          const Alignment& al = res.alignment;
          return al.s_end() > r.s_begin && al.s_begin < r.s_end &&
                 al.t_end() > r.t_begin && al.t_begin < r.t_end;
        });
    EXPECT_TRUE(covered);
  }
}

TEST(RebuildTopK, AlignmentsArePairwiseDisjoint) {
  HomologousPairSpec spec;
  spec.length_s = 1000;
  spec.length_t = 1000;
  spec.n_regions = 3;
  spec.region_len_mean = 100;
  spec.region_len_spread = 20;
  spec.seed = 702;
  const HomologousPair pair = make_homologous_pair(spec);
  const auto results = rebuild_top_alignments(pair.s, pair.t, 30, 10);
  for (std::size_t a = 0; a < results.size(); ++a) {
    for (std::size_t b = a + 1; b < results.size(); ++b) {
      const Alignment& x = results[a].alignment;
      const Alignment& y = results[b].alignment;
      const bool s_disjoint = x.s_end() <= y.s_begin || y.s_end() <= x.s_begin;
      const bool t_disjoint = x.t_end() <= y.t_begin || y.t_end() <= x.t_begin;
      EXPECT_TRUE(s_disjoint || t_disjoint);
    }
  }
}

TEST(RebuildTopK, MaxCountRespectedAndMinScoreValidated) {
  HomologousPairSpec spec;
  spec.length_s = 1200;
  spec.length_t = 1200;
  spec.n_regions = 5;
  spec.region_len_mean = 100;
  spec.region_len_spread = 10;
  spec.seed = 703;
  const HomologousPair pair = make_homologous_pair(spec);
  const auto results = rebuild_top_alignments(pair.s, pair.t, 30, 2);
  EXPECT_LE(results.size(), 2u);
  EXPECT_THROW(rebuild_top_alignments(pair.s, pair.t, 0), std::invalid_argument);
}

TEST(ReverseRebuild, EmptyAlignmentOnUnrelatedInput) {
  const Sequence s("s", "AAAA");
  const Sequence t("t", "CCCC");
  const RebuildResult res = rebuild_best_local_alignment(s, t, kScheme);
  EXPECT_EQ(res.alignment.score, 0);
  EXPECT_TRUE(res.alignment.ops.empty());
}

}  // namespace
}  // namespace gdsm
