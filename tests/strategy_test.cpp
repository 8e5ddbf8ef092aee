// End-to-end equivalence of the parallel heuristic strategies with the
// serial scan: the parallelization must change WHO computes each cell, never
// WHAT is computed.
#include <gtest/gtest.h>

#include <string>

#include "backends.h"
#include "core/blocked.h"
#include "core/wavefront.h"
#include "simd/dispatch.h"
#include "sw/heuristic_scan.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm::core {
namespace {

HomologousPair make_pair(std::size_t len, std::uint64_t seed,
                         std::size_t regions = 3) {
  HomologousPairSpec spec;
  spec.length_s = len;
  spec.length_t = len;
  spec.n_regions = regions;
  spec.region_len_mean = std::min<std::size_t>(150, len / 6);
  spec.region_len_spread = spec.region_len_mean / 4;
  spec.seed = seed;
  return make_homologous_pair(spec);
}

struct StratCase {
  int nprocs;
  std::size_t len;
  std::uint64_t seed;
};

std::string strat_name(const testing::TestParamInfo<StratCase>& info) {
  return "p" + std::to_string(info.param.nprocs) + "_n" +
         std::to_string(info.param.len) + "_seed" +
         std::to_string(info.param.seed);
}

class WavefrontVsSerial : public testing::TestWithParam<StratCase> {};

TEST_P(WavefrontVsSerial, IdenticalCandidateQueues) {
  const auto& prm = GetParam();
  const HomologousPair pair = make_pair(prm.len, prm.seed);
  HeuristicParams params;
  params.min_report_score = 25;

  const auto serial = heuristic_scan(pair.s, pair.t, ScoreScheme{}, params);

  WavefrontConfig cfg;
  cfg.nprocs = prm.nprocs;
  cfg.params = params;
  const StrategyResult par = wavefront_align(pair.s, pair.t, cfg);
  EXPECT_FALSE(par.overflow);
  EXPECT_EQ(par.candidates, serial);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WavefrontVsSerial,
    testing::Values(StratCase{1, 400, 71}, StratCase{2, 400, 71},
                    StratCase{3, 401, 72}, StratCase{4, 512, 73},
                    StratCase{8, 512, 73}, StratCase{8, 777, 74},
                    StratCase{5, 999, 75}),
    strat_name);

class BlockedVsSerial : public testing::TestWithParam<StratCase> {};

TEST_P(BlockedVsSerial, IdenticalCandidateQueues) {
  const auto& prm = GetParam();
  const HomologousPair pair = make_pair(prm.len, prm.seed);
  HeuristicParams params;
  params.min_report_score = 25;

  const auto serial = heuristic_scan(pair.s, pair.t, ScoreScheme{}, params);

  BlockedConfig cfg;
  cfg.nprocs = prm.nprocs;
  cfg.params = params;
  cfg.mult_w = 2;
  cfg.mult_h = 2;
  const StrategyResult par = blocked_align(pair.s, pair.t, cfg);
  EXPECT_FALSE(par.overflow);
  EXPECT_EQ(par.candidates, serial);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedVsSerial,
    testing::Values(StratCase{1, 400, 71}, StratCase{2, 400, 71},
                    StratCase{3, 401, 72}, StratCase{4, 512, 73},
                    StratCase{8, 512, 73}, StratCase{8, 777, 74},
                    StratCase{6, 999, 75}),
    strat_name);

TEST(BlockedVariants, BlockShapeDoesNotChangeResults) {
  const HomologousPair pair = make_pair(600, 81);
  HeuristicParams params;
  params.min_report_score = 25;
  const auto serial = heuristic_scan(pair.s, pair.t, ScoreScheme{}, params);

  for (const auto& [bands, blocks] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {4, 4}, {7, 3}, {16, 16}, {40, 40}, {600, 1}, {1, 600}}) {
    BlockedConfig cfg;
    cfg.nprocs = 4;
    cfg.params = params;
    cfg.bands = bands;
    cfg.blocks = blocks;
    const StrategyResult par = blocked_align(pair.s, pair.t, cfg);
    EXPECT_EQ(par.candidates, serial)
        << "bands=" << bands << " blocks=" << blocks;
  }
}

TEST(WavefrontEdge, MoreProcessorsThanColumns) {
  Rng rng(82);
  const Sequence s = random_dna(40, rng, "s");
  const Sequence t = random_dna(5, rng, "t");  // 5 columns, 8 processors
  HeuristicParams params;
  params.min_report_score = 2;
  const auto serial = heuristic_scan(s, t, ScoreScheme{}, params);
  WavefrontConfig cfg;
  cfg.nprocs = 8;
  cfg.params = params;
  const StrategyResult par = wavefront_align(s, t, cfg);
  EXPECT_EQ(par.candidates, serial);
}

TEST(WavefrontEdge, EmptyInputs) {
  const Sequence e("e", "");
  const Sequence s("s", "ACGTACGT");
  WavefrontConfig cfg;
  cfg.nprocs = 4;
  EXPECT_TRUE(wavefront_align(e, s, cfg).candidates.empty());
  EXPECT_TRUE(wavefront_align(s, e, cfg).candidates.empty());
}

TEST(BlockedEdge, EmptyInputs) {
  const Sequence e("e", "");
  const Sequence s("s", "ACGTACGT");
  BlockedConfig cfg;
  cfg.nprocs = 4;
  EXPECT_TRUE(blocked_align(e, s, cfg).candidates.empty());
  EXPECT_TRUE(blocked_align(s, e, cfg).candidates.empty());
}

TEST(StrategyStats, WavefrontUsesCvProtocol) {
  const HomologousPair pair = make_pair(400, 83);
  WavefrontConfig cfg;
  cfg.nprocs = 4;
  const StrategyResult res = wavefront_align(pair.s, pair.t, cfg);
  const auto total = res.dsm_stats.total_node();
  // One data_ready signal per interior border per row, plus slot-free acks.
  EXPECT_GE(total.cv_signals, 2 * 3 * 400u - 8u);
  EXPECT_GE(total.cv_waits, 2 * 3 * 400u - 8u);
  // One start barrier x 4 nodes: the queues ride the end-of-job messages.
  EXPECT_EQ(total.barriers, 4u);
  EXPECT_GT(total.invalidations, 0u);
  // Every border cell the reader waits for arrives with its cv grant.
  EXPECT_GE(total.grant_pages, 3 * 400u - 3u);
}

TEST(StrategyStats, BlockingReducesSignalTraffic) {
  const HomologousPair pair = make_pair(512, 84);
  WavefrontConfig wf;
  wf.nprocs = 4;
  const auto r1 = wavefront_align(pair.s, pair.t, wf);
  BlockedConfig bl;
  bl.nprocs = 4;
  bl.mult_w = 2;
  bl.mult_h = 2;
  const auto r2 = blocked_align(pair.s, pair.t, bl);
  // The whole point of Strategy 2: far fewer synchronization operations.
  EXPECT_LT(r2.dsm_stats.total_node().cv_signals,
            r1.dsm_stats.total_node().cv_signals / 4);
}

TEST(WavefrontSharedRows, PaperLiteralModeIsEquivalent) {
  const HomologousPair pair = make_pair(500, 86);
  HeuristicParams params;
  params.min_report_score = 25;
  const auto serial = heuristic_scan(pair.s, pair.t, ScoreScheme{}, params);

  WavefrontConfig cfg;
  cfg.nprocs = 4;
  cfg.params = params;
  cfg.rows_in_shared_memory = true;
  const StrategyResult shared = wavefront_align(pair.s, pair.t, cfg);
  EXPECT_EQ(shared.candidates, serial);

  // The literal layout pushes every row through the DSM write path: far
  // more pages written than the buffer-swapping default.
  cfg.rows_in_shared_memory = false;
  const StrategyResult local = wavefront_align(pair.s, pair.t, cfg);
  EXPECT_EQ(local.candidates, serial);
}

TEST(WavefrontOverflow, TruncationIsReported) {
  const HomologousPair pair = make_pair(1200, 85, /*regions=*/5);
  WavefrontConfig cfg;
  cfg.nprocs = 2;
  cfg.params.min_report_score = 8;  // lots of noise candidates
  cfg.max_candidates_per_node = 1;  // force overflow
  const StrategyResult res = wavefront_align(pair.s, pair.t, cfg);
  EXPECT_TRUE(res.overflow);
}

// Each node finalizes its queue before publishing it, so the capacity cut
// keeps the same candidates whatever order the kernel emitted them in: the
// scalar row loop and the AVX2 anti-diagonal sweep must agree even when
// the per-node buffers overflow.
TEST(BlockedOverflow, TruncationIsKernelIndependent) {
  const HomologousPair pair = make_pair(1200, 87, /*regions=*/5);
  BlockedConfig cfg;
  cfg.nprocs = 3;
  cfg.params.open_threshold = 2;  // candidates open and close on most
  cfg.params.close_drop = 2;      // rows, in a different order under
  cfg.params.min_report_score = 4;  // each kernel
  cfg.max_candidates_per_node = 20;  // force overflow
  const simd::Backend prev = simd::active_backend();
  simd::force_backend(simd::Backend::kScalar);
  const StrategyResult scalar = blocked_align(pair.s, pair.t, cfg);
  const bool avx2 =
      simd::force_backend(simd::Backend::kAvx2) == simd::Backend::kAvx2;
  const StrategyResult vector = blocked_align(pair.s, pair.t, cfg);
  simd::force_backend(prev);

  EXPECT_TRUE(scalar.overflow);
  EXPECT_FALSE(scalar.candidates.empty());
  EXPECT_LE(scalar.candidates.size(), 3u * cfg.max_candidates_per_node);
  if (!avx2) GTEST_SKIP() << "no AVX2 backend on this build/host";
  EXPECT_TRUE(vector.overflow);
  EXPECT_EQ(vector.candidates, scalar.candidates);
}

TEST(NodeResults, ChildOverflowReachesTheSubmitter) {
  // Band 0 (node 0) reads poly-N rows that score nothing; band 1 (node 1,
  // a forked child on the process backend) holds the homology.  Only node
  // 1 can overflow, so the overflow bit must ride its node result back.
  const HomologousPair pair = make_pair(300, 88);
  const Sequence s("s", std::string(300, 'N') + pair.s.text());
  for (const dsm::Backend backend : dsm::testable_backends()) {
    SCOPED_TRACE(dsm::backend_name(backend));
    BlockedConfig cfg;
    cfg.nprocs = 2;
    cfg.bands = 2;
    cfg.blocks = 4;
    cfg.dsm.backend = backend;
    const StrategyResult full = blocked_align(s, pair.t, cfg);
    EXPECT_FALSE(full.overflow);
    EXPECT_EQ(full.candidates, heuristic_scan_reference(s, pair.t));
    ASSERT_GT(full.candidates.size(), 1u);

    cfg.max_candidates_per_node = 1;
    const StrategyResult capped = blocked_align(s, pair.t, cfg);
    EXPECT_TRUE(capped.overflow);
    ASSERT_EQ(capped.candidates.size(), 1u);
    EXPECT_EQ(capped.candidates.front(), full.candidates.front());
  }
}

}  // namespace
}  // namespace gdsm::core
