// Tests of the Section 4.1 heuristic linear-space scan (Martins candidate
// tracking): kernel-level behaviour and end-to-end region detection.
#include <gtest/gtest.h>

#include "sw/full_matrix.h"
#include "sw/heuristic_scan.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm {
namespace {

const ScoreScheme kScheme{};

TEST(HeuristicKernel, ZeroCellRestarts) {
  const HeuristicParams params;
  const HeuristicKernel kernel(kScheme, params);
  CandidateSink sink(params);
  const CellInfo zero{};
  // Mismatch with all-zero neighbours floors at 0: fresh cell.
  const CellInfo cell = kernel.update_cell(kBaseA, kBaseC, 1, 1, zero, zero,
                                           zero, sink);
  EXPECT_EQ(cell, CellInfo{});
}

TEST(HeuristicKernel, MatchFromZeroScoresOne) {
  const HeuristicParams params;
  const HeuristicKernel kernel(kScheme, params);
  CandidateSink sink(params);
  const CellInfo zero{};
  const CellInfo cell = kernel.update_cell(kBaseA, kBaseA, 3, 4, zero, zero,
                                           zero, sink);
  EXPECT_EQ(cell.score, 1);
  EXPECT_EQ(cell.max_score, 1);
  EXPECT_EQ(cell.weight, 2u);  // one match
  EXPECT_EQ(cell.max_i, 3u);
  EXPECT_EQ(cell.max_j, 4u);
  EXPECT_EQ(cell.flag, 0);  // not yet open (threshold 6)
}

TEST(HeuristicKernel, OpensAfterThresholdRise) {
  const HeuristicParams params;  // open_threshold 6
  const HeuristicKernel kernel(kScheme, params);
  CandidateSink sink(params);
  CellInfo diag{};
  // Simulate a run of matches along the diagonal.
  for (std::uint32_t k = 1; k <= 6; ++k) {
    const CellInfo zero{};
    diag = kernel.update_cell(kBaseA, kBaseA, k, k, diag, zero, zero, sink);
  }
  EXPECT_EQ(diag.score, 6);
  EXPECT_EQ(diag.flag, 1);
  EXPECT_EQ(diag.begin_i, 6u);  // opened at the current position (paper)
  EXPECT_EQ(diag.begin_j, 6u);
}

TEST(HeuristicKernel, ClosesAfterDrop) {
  const HeuristicParams params;  // close_drop 4, min_report 10
  const HeuristicKernel kernel(kScheme, params);
  CandidateSink sink(params);
  CellInfo diag{};
  // 12 matches: opens and reaches score 12.
  for (std::uint32_t k = 1; k <= 12; ++k) {
    const CellInfo zero{};
    diag = kernel.update_cell(kBaseA, kBaseA, k, k, diag, zero, zero, sink);
  }
  ASSERT_EQ(diag.flag, 1);
  ASSERT_EQ(diag.max_score, 12);
  // 4 mismatches: 12 -> 11 -> 10 -> 9 -> 8; the fall of close_drop=4 below
  // the maximum closes the candidate at score 8.
  for (std::uint32_t k = 13; k <= 16; ++k) {
    const CellInfo zero{};
    diag = kernel.update_cell(kBaseA, kBaseC, k, k, diag, zero, zero, sink);
  }
  ASSERT_EQ(sink.queue().size(), 1u);
  const Candidate& c = sink.queue()[0];
  EXPECT_EQ(c.score, 12);
  EXPECT_EQ(c.s_end, 12u);
  EXPECT_EQ(c.t_end, 12u);
  EXPECT_EQ(diag.flag, 0);
  // The weight survives the close (Section 4.1): 12 matches, 4 mismatches.
  EXPECT_EQ(diag.weight, 32u);
}

TEST(HeuristicKernel, TieBreakPrefersHigherCounterWeight) {
  const HeuristicParams params;
  const HeuristicKernel kernel(kScheme, params);
  CandidateSink sink(params);
  CellInfo up{};
  up.score = 5;
  up.weight = 14;  // 7 matches
  CellInfo left{};
  left.score = 5;
  left.weight = 4;  // 2 matches
  const CellInfo zero{};
  // Both gap moves give 3; diag gives mismatch path -1 -> floored out.
  const CellInfo cell =
      kernel.update_cell(kBaseA, kBaseC, 2, 2, zero, up, left, sink);
  EXPECT_EQ(cell.score, 3);
  // Inherited from `up`, the heavier origin, plus one gap.
  EXPECT_EQ(cell.weight, 15u);
}

TEST(HeuristicKernel, TieBreakFallsBackToHorizontal) {
  const HeuristicParams params;
  const HeuristicKernel kernel(kScheme, params);
  CandidateSink sink(params);
  CellInfo up{};
  up.score = 5;
  up.weight = 6;  // 3 matches
  up.begin_i = 77;  // marker
  CellInfo left = up;
  left.begin_i = 99;  // same weight, different marker
  const CellInfo zero{};
  const CellInfo cell =
      kernel.update_cell(kBaseA, kBaseC, 2, 2, zero, up, left, sink);
  // Equal weights: horizontal (left) wins over vertical (up).
  EXPECT_EQ(cell.begin_i, 99u);
}

TEST(HeuristicScan, FindsPlantedRegions) {
  HomologousPairSpec spec;
  spec.length_s = 4000;
  spec.length_t = 4000;
  spec.n_regions = 4;
  spec.region_len_mean = 250;
  spec.region_len_spread = 30;
  spec.seed = 41;
  const HomologousPair pair = make_homologous_pair(spec);

  HeuristicParams params;
  params.min_report_score = 40;
  const auto queue = heuristic_scan(pair.s, pair.t, kScheme, params);
  ASSERT_FALSE(queue.empty());

  // Every planted region must be hit by some candidate.
  for (const PlantedRegion& r : pair.regions) {
    const bool covered = std::any_of(
        queue.begin(), queue.end(), [&](const Candidate& c) {
          const bool s_overlap = c.s_end >= r.s_begin + 1 && c.s_begin <= r.s_end;
          const bool t_overlap = c.t_end >= r.t_begin + 1 && c.t_begin <= r.t_end;
          return s_overlap && t_overlap;
        });
    EXPECT_TRUE(covered) << "planted region s[" << r.s_begin << ".." << r.s_end
                         << ") not detected";
  }
}

TEST(HeuristicScan, CandidatesHaveValidCoordinates) {
  Rng rng(51);
  const Sequence s = random_dna(600, rng, "s");
  const Sequence t = random_dna(600, rng, "t");
  HeuristicParams params;
  params.min_report_score = 8;
  const auto queue = heuristic_scan(s, t, kScheme, params);
  for (const Candidate& c : queue) {
    EXPECT_GE(c.score, params.min_report_score);
    EXPECT_GE(c.s_begin, 1u);
    EXPECT_GE(c.t_begin, 1u);
    EXPECT_LE(c.s_end, s.size());
    EXPECT_LE(c.t_end, t.size());
    EXPECT_LE(c.s_begin, c.s_end);
    EXPECT_LE(c.t_begin, c.t_end);
  }
  // Sorted by subsequence size, descending.
  for (std::size_t i = 1; i < queue.size(); ++i) {
    EXPECT_GE(queue[i - 1].size_key(), queue[i].size_key());
  }
  // No exact repeats.
  for (std::size_t i = 1; i < queue.size(); ++i) {
    EXPECT_FALSE(queue[i - 1] == queue[i]);
  }
}

TEST(HeuristicScan, ReportedScoreIsAchievable) {
  // The candidate's score must match the full-matrix value at its end cell:
  // the heuristic tracks real DP scores, it only approximates the *regions*.
  Rng rng(52);
  const Sequence s = random_dna(300, rng, "s");
  const Sequence t = random_dna(300, rng, "t");
  HeuristicParams params;
  params.min_report_score = 8;
  const auto queue = heuristic_scan(s, t, kScheme, params);
  const DpMatrix a = sw_fill(s, t, kScheme, nullptr);
  for (const Candidate& c : queue) {
    EXPECT_EQ(a.at(c.s_end, c.t_end), c.score)
        << "candidate end cell does not hold the reported score";
  }
}

TEST(HeuristicScan, Deterministic) {
  Rng rng(53);
  const Sequence s = random_dna(500, rng, "s");
  const Sequence t = random_dna(500, rng, "t");
  const auto a = heuristic_scan(s, t);
  const auto b = heuristic_scan(s, t);
  EXPECT_EQ(a, b);
}

TEST(HeuristicScan, EmptyAndTinyInputs) {
  const Sequence e("e", "");
  const Sequence s("s", "ACGT");
  EXPECT_TRUE(heuristic_scan(e, s).empty());
  EXPECT_TRUE(heuristic_scan(s, e).empty());
  EXPECT_TRUE(heuristic_scan(e, e).empty());
  EXPECT_TRUE(heuristic_scan(s, s).empty());  // score 4 < min_report 10
}

TEST(HeuristicScan, PerfectLongMatchReported) {
  const Sequence s("s", "ACGTACGTACGTACGTACGT");  // 20 bp
  const auto queue = heuristic_scan(s, s);
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue[0].score, 20);
  EXPECT_EQ(queue[0].s_end, 20u);
  EXPECT_EQ(queue[0].t_end, 20u);
}

}  // namespace
}  // namespace gdsm
