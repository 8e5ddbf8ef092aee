// Mini-BlastN baseline tests.
#include <gtest/gtest.h>

#include "blast/blastn.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm::blast {
namespace {

TEST(Blastn, FindsExactSharedSegment) {
  Rng rng(111);
  const Sequence shared = random_dna(120, rng, "shared");
  const Sequence s("s", random_dna(400, rng).text() + shared.text() +
                            random_dna(300, rng).text());
  const Sequence t("t", random_dna(150, rng).text() + shared.text() +
                            random_dna(500, rng).text());
  const auto hits = blastn(s, t);
  ASSERT_FALSE(hits.empty());
  const BlastHit& top = hits[0];
  // The shared block sits at s[401..520], t[151..270] (1-based).
  EXPECT_LE(top.s_begin, 401u + 5);
  EXPECT_GE(top.s_end, 520u - 5);
  EXPECT_LE(top.t_begin, 151u + 5);
  EXPECT_GE(top.t_end, 270u - 5);
  EXPECT_GE(top.score, 100);
}

TEST(Blastn, FindsMutatedHomologies) {
  HomologousPairSpec spec;
  spec.length_s = 5000;
  spec.length_t = 5000;
  spec.n_regions = 3;
  spec.region_len_mean = 300;
  spec.region_len_spread = 30;
  spec.seed = 112;
  const HomologousPair pair = make_homologous_pair(spec);
  const auto hits = blastn(pair.s, pair.t);
  for (const PlantedRegion& r : pair.regions) {
    const bool covered = std::any_of(hits.begin(), hits.end(), [&](const BlastHit& h) {
      return h.s_end >= r.s_begin + 1 && h.s_begin <= r.s_end &&
             h.t_end >= r.t_begin + 1 && h.t_begin <= r.t_end;
    });
    EXPECT_TRUE(covered) << "planted region not found by blastn";
  }
}

TEST(Blastn, MostlyQuietOnUnrelatedSequences) {
  Rng rng(113);
  const Sequence s = random_dna(3000, rng, "s");
  const Sequence t = random_dna(3000, rng, "t");
  const auto hits = blastn(s, t);
  // Random 3 kBP sequences share 11-mers only rarely; with the default
  // report threshold the hit list stays (nearly) empty.
  EXPECT_LE(hits.size(), 2u);
}

TEST(Blastn, HitsAreSortedAndValid) {
  HomologousPairSpec spec;
  spec.length_s = 4000;
  spec.length_t = 4000;
  spec.n_regions = 4;
  spec.seed = 114;
  const HomologousPair pair = make_homologous_pair(spec);
  const auto hits = blastn(pair.s, pair.t);
  ASSERT_GE(hits.size(), 2u);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    const BlastHit& h = hits[k];
    EXPECT_GE(h.s_begin, 1u);
    EXPECT_LE(h.s_end, pair.s.size());
    EXPECT_LE(h.s_begin, h.s_end);
    EXPECT_GE(h.t_begin, 1u);
    EXPECT_LE(h.t_end, pair.t.size());
    EXPECT_LE(h.t_begin, h.t_end);
    if (k > 0) {
      EXPECT_GE(hits[k - 1].score, h.score);
    }
  }
}

TEST(Blastn, ShortInputsYieldNothing) {
  const Sequence s("s", "ACGTACGT");  // below the word size
  EXPECT_TRUE(blastn(s, s).empty());
}

TEST(Blastn, WordSizeParameterRespected) {
  Rng rng(115);
  const Sequence shared = random_dna(40, rng, "shared");
  const Sequence s("s", random_dna(200, rng).text() + shared.text());
  const Sequence t("t", shared.text() + random_dna(200, rng).text());
  BlastParams p;
  p.word_size = 7;
  p.min_score = 20;
  const auto hits = blastn(s, t, p);
  EXPECT_FALSE(hits.empty());
}

}  // namespace
}  // namespace gdsm::blast
