// google-benchmark micro-benchmarks of the DP kernels on the build host.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "gbench_json.h"
#include "simd/dispatch.h"
#include "sw/full_matrix.h"
#include "sw/heuristic_scan.h"
#include "sw/hirschberg.h"
#include "sw/linear_score.h"
#include "sw/reverse_rebuild.h"
#include "util/genome.h"
#include "util/rng.h"

namespace {

using namespace gdsm;

std::pair<Sequence, Sequence> inputs(std::size_t n) {
  Rng rng(2025);
  return {random_dna(n, rng, "s"), random_dna(n, rng, "t")};
}

// items_per_second and the explicit cells_per_second counter both report DP
// cell updates (m*n per iteration), so GCUPS reads straight off the report.
void set_cell_rate(benchmark::State& state) {
  const double cells = static_cast<double>(state.range(0)) *
                       static_cast<double>(state.range(0));
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
  state.counters["cells_per_second"] =
      benchmark::Counter(cells, benchmark::Counter::kIsIterationInvariantRate);
}

// Pins the dispatch to `backend` for the run (the unsuffixed benchmarks use
// whatever the dispatch auto-picked, i.e. the numbers a user actually gets).
class ForcedBackend {
 public:
  explicit ForcedBackend(simd::Backend b) : prev_(simd::active_backend()) {
    ok_ = simd::force_backend(b) == b;
  }
  ~ForcedBackend() { simd::force_backend(prev_); }
  bool ok() const { return ok_; }

 private:
  simd::Backend prev_;
  bool ok_ = false;
};

void BM_FullMatrixSW(benchmark::State& state) {
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    MatrixBest best;
    benchmark::DoNotOptimize(sw_fill(s, t, ScoreScheme{}, &best));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_FullMatrixSW)->Arg(256)->Arg(1024);

void BM_LinearScoreSW(benchmark::State& state) {
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw_best_score_linear(s, t));
  }
  set_cell_rate(state);
}
BENCHMARK(BM_LinearScoreSW)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LinearScoreSWBackend(benchmark::State& state, simd::Backend backend) {
  ForcedBackend forced(backend);
  if (!forced.ok()) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw_best_score_linear(s, t));
  }
  set_cell_rate(state);
}

// The affine (Gotoh) route through the very same entry point: a nonzero
// gap_open sends sw_best_score_linear to the three-matrix E/F/H sweep.
// GCUPS here divided by BM_LinearScoreSW's is the affine cell-cost factor
// the service CostModel prices (src/sim/cost_model.h).
ScoreScheme affine_scheme() {
  ScoreScheme sc;
  sc.gap_open = -3;
  return sc;
}

void BM_AffineScoreSW(benchmark::State& state) {
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  const ScoreScheme sc = affine_scheme();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw_best_score_linear(s, t, sc));
  }
  set_cell_rate(state);
}
BENCHMARK(BM_AffineScoreSW)->Arg(256)->Arg(1024)->Arg(4096);

void BM_AffineScoreSWBackend(benchmark::State& state, simd::Backend backend) {
  ForcedBackend forced(backend);
  if (!forced.ok()) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  const ScoreScheme sc = affine_scheme();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw_best_score_linear(s, t, sc));
  }
  set_cell_rate(state);
}

void BM_ScanHits(benchmark::State& state) {
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::uint64_t hits = 0;
    sw_scan_hits(s, t, ScoreScheme{}, /*threshold=*/25,
                 [&](std::size_t, std::size_t, int) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
  set_cell_rate(state);
}
BENCHMARK(BM_ScanHits)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ScanHitsBackend(benchmark::State& state, simd::Backend backend) {
  ForcedBackend forced(backend);
  if (!forced.ok()) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::uint64_t hits = 0;
    sw_scan_hits(s, t, ScoreScheme{}, /*threshold=*/25,
                 [&](std::size_t, std::size_t, int) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
  set_cell_rate(state);
}

void BM_HeuristicScan(benchmark::State& state) {
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic_scan(s, t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_HeuristicScan)->Arg(256)->Arg(1024)->Arg(4096);

// The same scan pinned to one backend: scalar runs the row-segment
// reference, avx2 the block kernel (docs/KERNELS.md "Heuristic block
// kernel").  Args are m, n and the gap model (0 linear, 1 affine);
// seconds_per_cell is the kernel rate the docs quote in ns per cell.
void BM_HeuristicScanBackend(benchmark::State& state, simd::Backend backend) {
  ForcedBackend forced(backend);
  if (!forced.ok()) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  Rng rng(2025);
  const Sequence s = random_dna(static_cast<std::size_t>(state.range(0)), rng, "s");
  const Sequence t = random_dna(static_cast<std::size_t>(state.range(1)), rng, "t");
  const ScoreScheme sc = state.range(2) != 0 ? affine_scheme() : ScoreScheme{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic_scan(s, t, sc));
  }
  const double cells = static_cast<double>(state.range(0)) *
                       static_cast<double>(state.range(1));
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(1));
  state.counters["cells_per_second"] =
      benchmark::Counter(cells, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["seconds_per_cell"] = benchmark::Counter(
      cells, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}

void BM_NeedlemanWunsch(benchmark::State& state) {
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(needleman_wunsch(s, t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_NeedlemanWunsch)->Arg(253)->Arg(1024);

void BM_Hirschberg(benchmark::State& state) {
  const auto [s, t] = inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hirschberg(s, t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_Hirschberg)->Arg(253)->Arg(1024);

void BM_ReverseRebuild(benchmark::State& state) {
  HomologousPairSpec spec;
  spec.length_s = static_cast<std::size_t>(state.range(0)) * 3;
  spec.length_t = spec.length_s;
  spec.n_regions = 1;
  spec.region_len_mean = static_cast<std::size_t>(state.range(0));
  spec.region_len_spread = 10;
  spec.seed = 77;
  const HomologousPair pair = make_homologous_pair(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rebuild_best_local_alignment(pair.s, pair.t));
  }
}
BENCHMARK(BM_ReverseRebuild)->Arg(128)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  // One suffixed variant per backend this host can run, next to the
  // unsuffixed (auto-dispatched) benchmarks registered above.
  for (const gdsm::simd::Backend b : gdsm::simd::available_backends()) {
    const std::string suffix = gdsm::simd::backend_name(b);
    benchmark::RegisterBenchmark(("BM_LinearScoreSW_" + suffix).c_str(),
                                 BM_LinearScoreSWBackend, b)
        ->Arg(256)
        ->Arg(1024)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_AffineScoreSW_" + suffix).c_str(),
                                 BM_AffineScoreSWBackend, b)
        ->Arg(256)
        ->Arg(1024)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_ScanHits_" + suffix).c_str(),
                                 BM_ScanHitsBackend, b)
        ->Arg(256)
        ->Arg(1024)
        ->Arg(4096);
  }
  // The heuristic scan has two kernels: the scalar reference and the AVX2
  // block kernel (striped-avx2 runs the same block kernel as avx2).
  for (const gdsm::simd::Backend b : gdsm::simd::available_backends()) {
    if (b == gdsm::simd::Backend::kStripedAvx2) continue;
    const std::string name = std::string("BM_HeuristicScan_") +
                             gdsm::simd::backend_name(b);
    benchmark::RegisterBenchmark(name.c_str(), BM_HeuristicScanBackend, b)
        ->ArgNames({"m", "n", "affine"})
        ->Args({250, 1000, 0})
        ->Args({250, 1000, 1})
        ->Args({1000, 10000, 0})
        ->Args({1000, 10000, 1})
        ->Unit(benchmark::kMillisecond);
  }
  // run_all.sh's BENCH_KERNELS axis re-runs this bench under GDSM_KERNEL
  // forcings; a forced run gets a suffixed experiment id so its rows sit
  // next to the auto-dispatched run in the merged baseline instead of
  // colliding with it (same idiom as kernels_dsm_process).
  std::string experiment = "kernels_sw";
  if (std::getenv("GDSM_KERNEL") != nullptr)
    experiment += std::string("_") + gdsm::simd::active_backend_name();
  return gdsm::bench::gbench_main(
      argc, argv, experiment,
      "Microbenchmarks — DP kernels on the build host");
}
