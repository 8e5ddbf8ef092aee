// Differential test of the heuristic block kernel: the AVX2 sweep against
// the scalar row-segment loop on every strip shape (H = 1..17 covers one,
// two and three strips of 8 rows, full and ragged), on block widths around
// the vector width and the serving shapes, on sequences that make every
// origin tie, with random borders that carry open candidates and gap states.
// Every other block carries coordinates beyond 16 bits, so both the packed
// and the unpacked coordinate layouts of the sweep run.  Bottom row, right
// edge and the candidate multiset must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "simd/dispatch.h"
#include "sw/heuristic_scan.h"
#include "util/rng.h"

namespace gdsm {
namespace {

enum class Kind { kRandom, kPolyA, kAcAc, kAllN };

std::vector<Base> make_seq(Kind kind, std::size_t len, Rng& rng) {
  std::vector<Base> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    switch (kind) {
      case Kind::kRandom:
        out[i] = static_cast<Base>(rng.below(4));
        break;
      case Kind::kPolyA:
        out[i] = kBaseA;
        break;
      case Kind::kAcAc:
        out[i] = i % 2 == 0 ? kBaseA : kBaseC;
        break;
      case Kind::kAllN:
        out[i] = kBaseN;
        break;
    }
  }
  return out;
}

// A plausible non-zero border cell: positive score, extrema around it, an
// open candidate half the time, gap states either absent or live.
CellInfo random_cell(Rng& rng, bool affine, std::uint64_t coord_bound) {
  CellInfo c;
  c.score = static_cast<std::int32_t>(rng.below(30));
  c.max_score = c.score + static_cast<std::int32_t>(rng.below(10));
  c.min_score = c.score - static_cast<std::int32_t>(rng.below(10));
  if (affine && rng.below(2) == 0) {
    c.e = c.score - 3 - static_cast<std::int32_t>(rng.below(8));
    c.f = c.score - 3 - static_cast<std::int32_t>(rng.below(8));
  }
  c.begin_i = static_cast<std::uint32_t>(rng.below(coord_bound));
  c.begin_j = static_cast<std::uint32_t>(rng.below(coord_bound));
  c.max_i = static_cast<std::uint32_t>(rng.below(coord_bound));
  c.max_j = static_cast<std::uint32_t>(rng.below(coord_bound));
  // Few distinct weights, so weight ties reach the direction tie-break.
  c.weight = static_cast<std::uint32_t>(rng.below(4) * 2);
  c.flag = static_cast<std::uint8_t>(rng.below(2));
  return c;
}

std::vector<Candidate> sorted(std::vector<Candidate> q) {
  std::sort(q.begin(), q.end(), [](const Candidate& a, const Candidate& b) {
    return std::tie(a.score, a.s_begin, a.s_end, a.t_begin, a.t_end) <
           std::tie(b.score, b.s_begin, b.s_end, b.t_begin, b.t_end);
  });
  return q;
}

class Avx2Pinned : public testing::Test {
 protected:
  void SetUp() override {
    prev_ = simd::active_backend();
    if (simd::force_backend(simd::Backend::kAvx2) != simd::Backend::kAvx2) {
      GTEST_SKIP() << "no AVX2 backend on this build/host";
    }
  }
  void TearDown() override { simd::force_backend(prev_); }

 private:
  simd::Backend prev_ = simd::Backend::kScalar;
};

struct Setting {
  ScoreScheme scheme;
  HeuristicParams params;
  std::string name;
};

std::vector<Setting> settings() {
  ScoreScheme affine;
  affine.gap_open = -3;
  HeuristicParams eager;  // open/close fire on most cells
  eager.open_threshold = 1;
  eager.close_drop = 1;
  eager.min_report_score = 1;
  return {{ScoreScheme{}, HeuristicParams{}, "linear"},
          {affine, HeuristicParams{}, "affine"},
          {ScoreScheme{}, eager, "linear/open1close1"},
          {affine, eager, "affine/open1close1"}};
}

TEST_F(Avx2Pinned, BlockMatchesScalarRowLoop) {
  const Kind kinds[] = {Kind::kRandom, Kind::kPolyA, Kind::kAcAc, Kind::kAllN};
  const std::size_t widths[] = {1, 7, 8, 9, 67, 300};
  Rng rng(2301);
  std::size_t checked = 0;
  for (const Setting& st : settings()) {
    const HeuristicKernel kernel(st.scheme, st.params);
    for (const Kind kind : kinds) {
      for (std::size_t H = 1; H <= 17; ++H) {
        for (const std::size_t W : widths) {
          const std::vector<Base> s = make_seq(kind, H, rng);
          const std::vector<Base> t = make_seq(kind, W, rng);
          const bool affine = st.scheme.affine();
          const std::uint64_t bound = checked % 2 == 0 ? 100 : 1u << 20;
          std::vector<CellInfo> row(W), edge(H);
          for (CellInfo& c : row) c = random_cell(rng, affine, bound);
          for (CellInfo& c : edge) c = random_cell(rng, affine, bound);
          const CellInfo corner = random_cell(rng, affine, bound);
          const auto row_begin = static_cast<std::uint32_t>(1 + rng.below(bound));
          const auto col_begin = static_cast<std::uint32_t>(1 + rng.below(bound));

          std::vector<CellInfo> row_ref = row, edge_ref = edge;
          CandidateSink sink_ref(st.params);
          kernel.process_block_scalar(s, row_begin, t, col_begin, corner,
                                      row_ref, edge_ref, sink_ref);
          CandidateSink sink(st.params);
          kernel.process_block(s, row_begin, t, col_begin, corner, row, edge,
                               sink);

          const std::string where = st.name + " kind=" +
                                    std::to_string(static_cast<int>(kind)) +
                                    " H=" + std::to_string(H) +
                                    " W=" + std::to_string(W);
          ASSERT_EQ(row, row_ref) << "bottom row, " << where;
          ASSERT_EQ(edge, edge_ref) << "right edge, " << where;
          ASSERT_EQ(sorted(sink.queue()), sorted(sink_ref.queue()))
              << "candidates, " << where;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 4u * 4u * 17u * 6u);
}

// Zero borders and a whole matrix: the serial scan's single-block call on
// both kernels, with several strips and a ragged last one, and a subject
// longer than 16-bit coordinates reach.
TEST_F(Avx2Pinned, WholeMatrixScanMatchesReference) {
  Rng rng(2302);
  auto seq = [&](std::size_t len) {
    return Sequence("x", std::basic_string<Base>(
                             make_seq(Kind::kRandom, len, rng).data(), len));
  };
  for (const Setting& st : settings()) {
    for (const auto& [m, n] : std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 211}, {8, 211}, {29, 211}, {130, 211}, {11, 70000}}) {
      const Sequence s = seq(m);
      const Sequence t = seq(n);
      EXPECT_EQ(heuristic_scan(s, t, st.scheme, st.params),
                heuristic_scan_reference(s, t, st.scheme, st.params))
          << st.name << " m=" << m << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace gdsm
