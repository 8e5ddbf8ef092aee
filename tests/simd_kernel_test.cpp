// Differential suite for the SIMD kernel layer (src/simd).
//
// Every compiled backend is held to the scalar reference, cell for cell:
// same best score, same end cell on ties, same per-column hit counts, the
// same hit multiset, the same NW last rows — across a fuzz corpus that
// covers the shapes the fuzzer cares about (empty, 1-char, degenerate
// alphabet, N runs, boundary-loaded blocks) plus inputs sized to force both
// the 16-bit saturating path and the 32-bit overflow fallback.  A final
// group pins the GDSM_KERNEL forcing logic so CI can exercise the scalar
// fallback on wide hosts.
#include "simd/dispatch.h"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sw/linear_score.h"
#include "util/sequence.h"

namespace gdsm::simd {
namespace {

using Hit = std::tuple<std::size_t, std::size_t, std::int32_t>;

struct BackendFns {
  const char* name;
  BestCell (*block_best)(const DiagBlock&, const ScoreParams&);
  void (*block_count)(const DiagBlock&, const ScoreParams&, std::int32_t,
                      std::uint64_t*);
  void (*block_hits)(const DiagBlock&, const ScoreParams&, std::int32_t,
                     const HitSink&);
  void (*nw_last_row)(const Base*, std::size_t, const Base*, std::size_t,
                      const ScoreParams&, std::int32_t*);
  void (*nw_last_row_affine)(const Base*, std::size_t, const Base*,
                             std::size_t, const ScoreParams&, std::int32_t,
                             std::int32_t*, std::int32_t*);
};

bool backend_available(Backend b) {
  for (Backend have : available_backends()) {
    if (have == b) return true;
  }
  return false;
}

std::vector<BackendFns> vector_backends() {
  std::vector<BackendFns> out;
#if GDSM_SIMD_AVX2
  if (backend_available(Backend::kAvx2))
    out.push_back({"avx2", avx2::block_best, avx2::block_count,
                   avx2::block_hits, avx2::nw_last_row,
                   avx2::nw_last_row_affine});
  // striped-avx2 replaces only block_best; every other kernel is the
  // anti-diagonal avx2 one, so those are registered here and the corpus
  // holds the striped sweep itself — and its whole delegation ladder
  // (boundary feeds, N chars, 8-bit saturation re-runs, 32-bit fallback) —
  // to the scalar reference.
  if (backend_available(Backend::kStripedAvx2))
    out.push_back({"striped-avx2", striped_avx2::block_best, avx2::block_count,
                   avx2::block_hits, avx2::nw_last_row,
                   avx2::nw_last_row_affine});
#endif
  return out;
}

std::vector<Base> random_bases(std::size_t n, std::mt19937& rng,
                               int alphabet = 4) {
  std::uniform_int_distribution<int> d(0, alphabet - 1);
  std::vector<Base> out(n);
  for (auto& b : out) b = static_cast<Base>(d(rng));
  return out;
}

struct Case {
  std::string label;
  DiagBlock blk;
  ScoreParams sp;
  std::int32_t threshold = 1;
  // Owning storage behind the block's borrowed pointers.
  std::vector<Base> a, b;
  std::vector<std::int32_t> ba, bb, be, bf;
};

// The corpus: (a_len, b_len) shapes crossing strip-width boundaries, the
// fuzzer's degenerate shapes, schemes that overflow 16-bit lanes, and
// boundary-loaded blocks as the preprocess/exact strategies produce them.
std::vector<Case> corpus() {
  std::vector<Case> cases;
  std::mt19937 rng(20260805);
  auto add = [&](std::string label, std::size_t A, std::size_t B,
                 ScoreParams sp, std::int32_t thr, int alphabet,
                 bool with_bounds, std::int32_t bound_scale) {
    Case c;
    c.label = std::move(label);
    c.sp = sp;
    c.threshold = thr;
    c.a = random_bases(A, rng, alphabet);
    c.b = random_bases(B, rng, alphabet);
    c.blk.a_seq = c.a.data();
    c.blk.a_len = A;
    c.blk.b_seq = c.b.data();
    c.blk.b_len = B;
    if (with_bounds) {
      std::uniform_int_distribution<std::int32_t> d(0, bound_scale);
      c.ba.resize(A);
      c.bb.resize(B);
      for (auto& v : c.ba) v = d(rng);
      for (auto& v : c.bb) v = d(rng);
      c.blk.bound_a = c.ba.data();
      c.blk.bound_b = c.bb.data();
      c.blk.corner = d(rng);
      if (sp.gap_open != 0) {
        // Affine boundary feeds as the exact strategy produces them: an E/F
        // value is either a live gap run (the H bound with a freshly charged
        // open + extend) or kNegInf where no run crosses the edge.
        c.be.resize(A);
        c.bf.resize(B);
        for (std::size_t i = 0; i < A; ++i)
          c.be[i] = i % 3 == 0 ? kNegInf : c.ba[i] + sp.gap_open + sp.gap;
        for (std::size_t j = 0; j < B; ++j)
          c.bf[j] = j % 3 == 0 ? kNegInf : c.bb[j] + sp.gap_open + sp.gap;
        c.blk.bound_e = c.be.data();
        c.blk.bound_f = c.bf.data();
      }
    }
    cases.push_back(std::move(c));
  };

  const ScoreParams plain{1, -1, -2};
  const ScoreParams rich{5, -4, -7};
  const ScoreParams big{1000, -900, -1100};  // forces the 32-bit fallback
  // Shapes straddling every lane-count boundary (4/8/16) and the scalar
  // small-block fallback threshold.
  for (std::size_t A : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                        std::size_t{8}, std::size_t{15}, std::size_t{16},
                        std::size_t{17}, std::size_t{33}, std::size_t{100}})
    for (std::size_t B : {std::size_t{1}, std::size_t{7}, std::size_t{31},
                          std::size_t{64}, std::size_t{65}, std::size_t{200}})
      add("shape_" + std::to_string(A) + "x" + std::to_string(B), A, B, plain,
          2, 4, false, 0);
  // Empty dimensions (with edges requested: the boundary-copy contract).
  add("empty_a", 0, 50, plain, 1, 4, true, 9);
  add("empty_b", 40, 0, plain, 1, 4, true, 9);
  add("empty_both", 0, 0, plain, 1, 4, false, 0);
  // Degenerate alphabet: all-same chars (dense matches => dense hits) and
  // all-N (nothing ever matches, scores pinned at 0).
  add("all_same", 70, 300, plain, 3, 1, false, 0);
  add("rich_same", 40, 150, rich, 10, 1, false, 0);
  for (auto alphabet_n : {5}) {
    add("with_n", 50, 260, plain, 2, alphabet_n, false, 0);
    add("with_n_bounds", 33, 140, plain, 2, alphabet_n, true, 40);
  }
  // Score overflow: long same-char runs under big match scores blow through
  // 16-bit lanes; boundary-loaded variants push the start value up too.
  add("overflow_scheme", 64, 400, big, 5000, 1, false, 0);
  add("overflow_bounds", 48, 300, big, 5000, 1, true, 2000000);
  add("overflow_run", 80, 40000, ScoreParams{1, -1, -2}, 32100, 1, false, 0);
  // Boundary-loaded blocks shaped like the exact strategy's grid cells.
  add("block_grid", 128, 256, plain, 4, 4, true, 60);
  add("block_grid_rich", 96, 320, rich, 12, 4, true, 200);
  // Long thin blocks exercise the segment-flush cadence cheaply … and one
  // seam case where b_len sits just above/below the 2*lanes fallback line.
  add("thin", 4, 3000, plain, 3, 4, false, 0);
  add("seam_15", 20, 15, plain, 2, 4, false, 0);
  add("seam_16", 20, 16, plain, 2, 4, false, 0);
  add("seam_17", 20, 17, plain, 2, 4, false, 0);
  // Affine (Gotoh) schemes: a nonzero gap_open routes the very same entry
  // points to the three-matrix E/F/H sweep.  Shapes re-cross the lane
  // boundaries; boundary-loaded cases feed live E/F edges; the big scheme
  // forces the 32-bit affine fallback; zero open must collapse to linear.
  const ScoreParams affine{1, -1, -1, -3};
  const ScoreParams affine_rich{5, -4, -3, -10};
  const ScoreParams affine_big{1000, -900, -500, -2000};
  for (std::size_t A : {std::size_t{1}, std::size_t{7}, std::size_t{16},
                        std::size_t{17}, std::size_t{33}, std::size_t{100}})
    for (std::size_t B : {std::size_t{1}, std::size_t{31}, std::size_t{64},
                          std::size_t{65}, std::size_t{200}})
      add("affine_shape_" + std::to_string(A) + "x" + std::to_string(B), A, B,
          affine, 2, 4, false, 0);
  add("affine_empty_a", 0, 50, affine, 1, 4, true, 9);
  add("affine_empty_b", 40, 0, affine, 1, 4, true, 9);
  add("affine_same", 70, 300, affine, 3, 1, false, 0);
  add("affine_rich", 40, 150, affine_rich, 8, 4, false, 0);
  add("affine_with_n", 50, 260, affine, 2, 5, false, 0);
  add("affine_zero_open", 60, 180, ScoreParams{1, -1, -2, 0}, 2, 4, false, 0);
  add("affine_overflow", 64, 400, affine_big, 5000, 1, false, 0);
  add("affine_overflow_bounds", 48, 300, affine_big, 5000, 1, true, 2000000);
  add("affine_block_grid", 128, 256, affine, 4, 4, true, 60);
  add("affine_block_grid_rich", 96, 320, affine_rich, 10, 4, true, 200);
  add("affine_thin", 4, 3000, affine, 3, 4, false, 0);
  add("affine_seam_16", 20, 16, affine, 2, 4, false, 0);
  return cases;
}

std::vector<Hit> collect_hits(
    void (*fn)(const DiagBlock&, const ScoreParams&, std::int32_t,
               const HitSink&),
    const DiagBlock& blk, const ScoreParams& sp, std::int32_t thr) {
  std::vector<Hit> hits;
  fn(blk, sp, thr, [&](std::size_t a, std::size_t b, std::int32_t v) {
    hits.emplace_back(a, b, v);
  });
  std::sort(hits.begin(), hits.end());
  return hits;
}

TEST(SimdKernelDifferential, AllBackendsMatchScalarOnCorpus) {
  const auto backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend on this host";
  for (auto& c : corpus()) {
    const bool affine = c.sp.gap_open != 0;
    // Scalar reference, with edge outputs (plus E/F edges under affine).
    std::vector<std::int32_t> ref_last_b(c.blk.a_len),
        ref_last_a(c.blk.b_len);
    std::vector<std::int32_t> ref_last_b_e, ref_last_a_f;
    DiagBlock ref_blk = c.blk;
    ref_blk.out_last_b = ref_last_b.data();
    ref_blk.out_last_a = ref_last_a.data();
    if (affine) {
      ref_last_b_e.assign(c.blk.a_len, -777);
      ref_last_a_f.assign(c.blk.b_len, -777);
      ref_blk.out_last_b_e = ref_last_b_e.data();
      ref_blk.out_last_a_f = ref_last_a_f.data();
    }
    const BestCell ref_best = scalar::block_best(ref_blk, c.sp);
    std::vector<std::uint64_t> ref_counts(c.blk.a_len, 0);
    scalar::block_count(c.blk, c.sp, c.threshold, ref_counts.data());
    const auto ref_hits =
        collect_hits(scalar::block_hits, c.blk, c.sp, c.threshold);

    for (const auto& be : backends) {
      SCOPED_TRACE(c.label + " on " + be.name);
      std::vector<std::int32_t> last_b(c.blk.a_len), last_a(c.blk.b_len);
      std::vector<std::int32_t> last_b_e, last_a_f;
      DiagBlock blk = c.blk;
      blk.out_last_b = last_b.data();
      blk.out_last_a = last_a.data();
      if (affine) {
        last_b_e.assign(c.blk.a_len, -888);
        last_a_f.assign(c.blk.b_len, -888);
        blk.out_last_b_e = last_b_e.data();
        blk.out_last_a_f = last_a_f.data();
      }
      const BestCell best = be.block_best(blk, c.sp);
      EXPECT_EQ(best.score, ref_best.score);
      if (ref_best.score > 0) {
        EXPECT_EQ(best.a, ref_best.a);
        EXPECT_EQ(best.b, ref_best.b);
      }
      EXPECT_EQ(last_b, ref_last_b);
      EXPECT_EQ(last_a, ref_last_a);
      EXPECT_EQ(last_b_e, ref_last_b_e);
      EXPECT_EQ(last_a_f, ref_last_a_f);
      std::vector<std::uint64_t> counts(c.blk.a_len, 0);
      be.block_count(c.blk, c.sp, c.threshold, counts.data());
      EXPECT_EQ(counts, ref_counts);
      EXPECT_EQ(collect_hits(be.block_hits, c.blk, c.sp, c.threshold),
                ref_hits);
    }
  }
}

TEST(SimdKernelDifferential, NwLastRowMatchesScalar) {
  const auto backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend on this host";
  std::mt19937 rng(7);
  const ScoreParams sp{1, -1, -2};
  for (auto [A, B] : {std::pair<std::size_t, std::size_t>{1, 1},
                      {5, 3},
                      {16, 64},
                      {33, 200},
                      {200, 33},
                      {301, 1000},
                      {64, 0},
                      {0, 64}}) {
    const auto a = random_bases(A, rng, 5);
    const auto b = random_bases(B, rng, 5);
    std::vector<std::int32_t> ref(A, -12345);
    scalar::nw_last_row(a.data(), A, b.data(), B, sp, ref.data());
    for (const auto& be : backends) {
      SCOPED_TRACE(std::string(be.name) + " " + std::to_string(A) + "x" +
                   std::to_string(B));
      std::vector<std::int32_t> got(A, -54321);
      be.nw_last_row(a.data(), A, b.data(), B, sp, got.data());
      EXPECT_EQ(got, ref);
    }
  }
}

TEST(SimdKernelDifferential, NwLastRowAffineMatchesScalar) {
  const auto backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend on this host";
  std::mt19937 rng(11);
  // Both tb_open flavours per scheme: the normal charge and the Myers–Miller
  // boundary discount (a gap already open across b == 0).  The zero-open
  // scheme pins the degenerate collapse onto the linear recurrence.
  for (const ScoreParams sp : {ScoreParams{1, -1, -1, -3},
                               ScoreParams{5, -4, -3, -10},
                               ScoreParams{1, -1, -2, 0}}) {
    for (auto [A, B] : {std::pair<std::size_t, std::size_t>{1, 1},
                        {5, 3},
                        {16, 64},
                        {33, 200},
                        {200, 33},
                        {301, 1000},
                        {64, 0},
                        {0, 64}}) {
      const auto a = random_bases(A, rng, 5);
      const auto b = random_bases(B, rng, 5);
      for (const std::int32_t tb : {sp.gap_open, std::int32_t{0}}) {
        std::vector<std::int32_t> ref_h(A, -12345), ref_e(A, -12345);
        scalar::nw_last_row_affine(a.data(), A, b.data(), B, sp, tb,
                                   ref_h.data(), ref_e.data());
        for (const auto& be : backends) {
          SCOPED_TRACE(std::string(be.name) + " " + std::to_string(A) + "x" +
                       std::to_string(B) + " open=" +
                       std::to_string(sp.gap_open) + " tb=" +
                       std::to_string(tb));
          std::vector<std::int32_t> h(A, -54321), e(A, -54321);
          be.nw_last_row_affine(a.data(), A, b.data(), B, sp, tb, h.data(),
                                e.data());
          EXPECT_EQ(h, ref_h);
          EXPECT_EQ(e, ref_e);
          // out_e is optional; a null sink must not change out_h.
          std::vector<std::int32_t> h_only(A, -54321);
          be.nw_last_row_affine(a.data(), A, b.data(), B, sp, tb,
                                h_only.data(), nullptr);
          EXPECT_EQ(h_only, ref_h);
        }
      }
    }
  }
}

// gap_open == 0 must make the affine entry points bit-identical to the
// historical linear sweep — scores, edges, counts, and hits — which is what
// lets every caller route on scheme.affine() without a behaviour cliff.
TEST(SimdKernelDifferential, AffineZeroOpenCollapsesToLinear) {
  std::mt19937 rng(13);
  const ScoreParams linear{2, -1, -2};
  ScoreParams zero_open = linear;
  zero_open.gap_open = 0;
  const auto a = random_bases(65, rng, 4);
  const auto b = random_bases(210, rng, 4);
  std::vector<std::int32_t> ba(a.size()), bb(b.size());
  std::uniform_int_distribution<std::int32_t> d(0, 25);
  for (auto& v : ba) v = d(rng);
  for (auto& v : bb) v = d(rng);

  std::vector<BackendFns> all = vector_backends();
  all.push_back({"scalar", scalar::block_best, scalar::block_count,
                 scalar::block_hits, scalar::nw_last_row,
                 scalar::nw_last_row_affine});
  for (const auto& be : all) {
    SCOPED_TRACE(be.name);
    std::vector<std::int32_t> lin_b(a.size()), lin_a(b.size());
    std::vector<std::int32_t> aff_b(a.size()), aff_a(b.size());
    DiagBlock blk;
    blk.a_seq = a.data();
    blk.a_len = a.size();
    blk.b_seq = b.data();
    blk.b_len = b.size();
    blk.bound_a = ba.data();
    blk.bound_b = bb.data();
    blk.corner = 7;
    blk.out_last_b = lin_b.data();
    blk.out_last_a = lin_a.data();
    const BestCell lin = be.block_best(blk, linear);
    blk.out_last_b = aff_b.data();
    blk.out_last_a = aff_a.data();
    const BestCell aff = be.block_best(blk, zero_open);
    EXPECT_EQ(aff.score, lin.score);
    EXPECT_EQ(aff.a, lin.a);
    EXPECT_EQ(aff.b, lin.b);
    EXPECT_EQ(aff_b, lin_b);
    EXPECT_EQ(aff_a, lin_a);
    std::vector<std::uint64_t> lin_counts(a.size(), 0), aff_counts(a.size(), 0);
    be.block_count(blk, linear, 3, lin_counts.data());
    be.block_count(blk, zero_open, 3, aff_counts.data());
    EXPECT_EQ(aff_counts, lin_counts);
    EXPECT_EQ(collect_hits(be.block_hits, blk, zero_open, 3),
              collect_hits(be.block_hits, blk, linear, 3));
  }
}

// Tie-break parity on adversarial inputs: uniform sequences produce massive
// score ties; every backend must land on the scalar scan's first-in-(b, a)
// cell, which is what keeps sw_best_score_linear's documented row-major
// tie-break backend-independent.
TEST(SimdKernelDifferential, TieBreaksMatchScalar) {
  const auto backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend on this host";
  const ScoreParams sp{1, -1, -2};
  for (std::size_t A : {17u, 40u})
    for (std::size_t B : {64u, 130u}) {
      std::vector<Base> a(A, kBaseA), b(B, kBaseA);
      DiagBlock blk{a.data(), A, b.data(), B, nullptr, nullptr, 0, nullptr,
                    nullptr};
      const BestCell ref = scalar::block_best(blk, sp);
      ASSERT_GT(ref.score, 0);
      for (const auto& be : backends) {
        SCOPED_TRACE(be.name);
        const BestCell got = be.block_best(blk, sp);
        EXPECT_EQ(got.score, ref.score);
        EXPECT_EQ(got.a, ref.a);
        EXPECT_EQ(got.b, ref.b);
      }
    }
}

// The public entry points (sw_best_score_linear & co.) must give identical
// results whichever backend dispatch pins — this is what `tools/ci.sh` runs
// once per GDSM_KERNEL value.
TEST(SimdKernelDispatch, ForcingIsObeyedAndConsistent) {
  const Backend saved = active_backend();
  struct Restore {
    Backend b;
    ~Restore() { force_backend(b); }
  } restore{saved};

  // Forcing an available backend activates it; GDSM_KERNEL uses the same
  // vocabulary (dispatch reads the env once at startup, so the test drives
  // the programmatic path the env handler shares).
  for (Backend b : available_backends()) {
    EXPECT_EQ(force_backend(b), b);
    EXPECT_EQ(active_backend(), b);
    EXPECT_EQ(force_backend(backend_name(b)), b) << backend_name(b);
  }
  // Unknown names keep the current choice, including the retired backends.
  const Backend cur = active_backend();
  for (const char* name : {"no-such-kernel", "sse41", "striped-sse41",
                           "striped-scalar", "striped-avx512"}) {
    EXPECT_EQ(force_backend(name), cur) << name;
  }

  // Same answers through the full sw_* wrappers under every forcing.
  std::mt19937 rng(99);
  auto make_seq = [&](std::size_t n) {
    const auto v = random_bases(n, rng, 5);
    return Sequence("seq", std::basic_string<Base>(v.begin(), v.end()));
  };
  const Sequence s = make_seq(300);
  const Sequence t = make_seq(180);
  force_backend(Backend::kScalar);
  const BestLocal ref = sw_best_score_linear(s, t);
  const std::vector<int> ref_row = nw_last_row(s, t, ScoreScheme{});
  ScoreScheme affine;
  affine.gap_open = -3;
  const BestLocal aref = sw_best_score_linear(s, t, affine);
  for (Backend b : available_backends()) {
    force_backend(b);
    const BestLocal got = sw_best_score_linear(s, t);
    EXPECT_EQ(got.score, ref.score) << backend_name(b);
    EXPECT_EQ(got.end_i, ref.end_i) << backend_name(b);
    EXPECT_EQ(got.end_j, ref.end_j) << backend_name(b);
    EXPECT_EQ(nw_last_row(s, t, ScoreScheme{}), ref_row) << backend_name(b);
    // The affine route obeys the same forcing (ci.sh re-runs this suite once
    // per GDSM_KERNEL value with --gap=affine semantics).
    const BestLocal agot = sw_best_score_linear(s, t, affine);
    EXPECT_EQ(agot.score, aref.score) << backend_name(b);
    EXPECT_EQ(agot.end_i, aref.end_i) << backend_name(b);
    EXPECT_EQ(agot.end_j, aref.end_j) << backend_name(b);
  }
}

TEST(SimdKernelDispatch, StatsAccumulateCellsAndBackendName) {
  const KernelStats before = kernel_stats();
  std::mt19937 rng(5);
  const auto a = random_bases(120, rng);
  const auto b = random_bases(400, rng);
  DiagBlock blk{a.data(), a.size(), b.data(), b.size(),
                nullptr,  nullptr,  0,        nullptr,  nullptr};
  (void)block_best(blk, ScoreParams{});
  const KernelStats st = kernel_stats();
  EXPECT_STREQ(st.backend, active_backend_name());
  EXPECT_EQ(st.best.calls - before.best.calls, 1u);
  EXPECT_EQ(st.best.cells - before.best.cells, 120u * 400u);
  EXPECT_EQ(st.count.calls - before.count.calls, 0u);
}

// The schema-v6 nw_affine counter block must meter the dispatched affine
// last-row kernel (docs/METRICS.md v6).
TEST(SimdKernelDispatch, StatsAccumulateAffineCounters) {
  const KernelStats before = kernel_stats();
  std::mt19937 rng(6);
  const auto a = random_bases(64, rng);
  const auto b = random_bases(128, rng);
  std::vector<std::int32_t> h(a.size()), e(a.size());
  const ScoreParams sp{1, -1, -1, -3};
  nw_last_row_affine(a.data(), a.size(), b.data(), b.size(), sp, sp.gap_open,
                     h.data(), e.data());
  const KernelStats st = kernel_stats();
  EXPECT_EQ(st.nw_affine.calls - before.nw_affine.calls, 1u);
  EXPECT_EQ(st.nw_affine.cells - before.nw_affine.cells, 64u * 128u);
  EXPECT_EQ(st.nw.calls - before.nw.calls, 0u);
}

// The schema-v9 `kernel.striped` counters: sweep/cell metering per
// precision, profile-cache traffic (including the service's pre-warm hook),
// and the ineligible-block delegation path (docs/METRICS.md v9).
TEST(SimdKernelDispatch, StripedCountersAndProfileCacheMeter) {
  const Backend saved = active_backend();
  struct Restore {
    Backend b;
    ~Restore() { force_backend(b); }
  } restore{saved};
  if (!backend_available(Backend::kStripedAvx2)) {
    GTEST_SKIP() << "striped-avx2 unavailable on this build/CPU";
  }
  ASSERT_EQ(force_backend(Backend::kStripedAvx2), Backend::kStripedAvx2);
  clear_query_profile_cache();
  const StripedCounters base = kernel_stats().striped;
  // Striped-path activity since `base` (the meters are process-wide).
  const auto since_base = [&base] {
    StripedCounters d = kernel_stats().striped;
    d.sweeps8 -= base.sweeps8;
    d.sweeps16 -= base.sweeps16;
    d.cells8 -= base.cells8;
    d.cells16 -= base.cells16;
    d.overflow_reruns -= base.overflow_reruns;
    d.fallback32 -= base.fallback32;
    d.delegated -= base.delegated;
    d.profile_builds -= base.profile_builds;
    d.profile_hits -= base.profile_hits;
    return d;
  };

  std::mt19937 rng(21);
  const auto a = random_bases(100, rng);
  const auto b = random_bases(300, rng);
  DiagBlock blk;
  blk.a_seq = a.data();
  blk.a_len = a.size();
  blk.b_seq = b.data();
  blk.b_len = b.size();
  (void)block_best(blk, ScoreParams{});
  StripedCounters st = since_base();
  EXPECT_EQ(st.sweeps8, 1u);
  EXPECT_EQ(st.cells8, 100u * 300u);
  EXPECT_EQ(st.profile_builds, 1u);
  EXPECT_EQ(st.profile_hits, 0u);
  EXPECT_EQ(st.delegated, 0u);
  EXPECT_EQ(st.overflow_reruns, 0u);

  // Same query + params again: the profile is served from the cache.
  (void)block_best(blk, ScoreParams{});
  st = since_base();
  EXPECT_EQ(st.profile_hits, 1u);
  EXPECT_EQ(st.profile_builds, 1u);

  // The service's pre-warm hook builds ahead of the first scan, so the scan
  // itself is a pure cache hit.
  const auto q2 = random_bases(64, rng);
  warm_query_profile(q2.data(), q2.size(), ScoreParams{});
  EXPECT_EQ(since_base().profile_builds, 2u);
  DiagBlock blk2 = blk;
  blk2.a_seq = q2.data();
  blk2.a_len = q2.size();
  (void)block_best(blk2, ScoreParams{});
  st = since_base();
  EXPECT_EQ(st.profile_builds, 2u);
  EXPECT_EQ(st.profile_hits, 2u);
  EXPECT_EQ(st.sweeps8, 3u);

  // A boundary-loaded block is not striped-eligible: it delegates to the
  // anti-diagonal avx2 backend and says so.
  std::vector<std::int32_t> ba(a.size(), 1), bb(b.size(), 1);
  DiagBlock bounded = blk;
  bounded.bound_a = ba.data();
  bounded.bound_b = bb.data();
  (void)block_best(bounded, ScoreParams{});
  EXPECT_EQ(since_base().delegated, 1u);
}

}  // namespace
}  // namespace gdsm::simd
