// exact_pipeline: the EXACT workflow of Sections 5 and 6 — no heuristics.
//
//   build/examples/exact_pipeline [--size=6000] [--procs=4]
//                                 [--threshold=30] [--store=columns.bin]
//
//   1. Strategy 3 (pre-process) computes the full score matrix in bands on
//      the DSM cluster, building the result-matrix scoreboard and saving
//      every ip-th column to disk (immediate I/O).
//   2. The hottest result cell localizes an interesting area, which is
//      re-processed with full DP to retrieve its alignments (the paper's
//      "knowing interesting areas ... allows one to reprocess these limited
//      areas so as to retrieve the local alignments").
//   3. Section 6's reverse rebuild retrieves the best alignment EXACTLY
//      with no disk storage at all, in O(min(n,m) + n'^2) space.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>

#include "core/preprocess.h"
#include "core/reprocess.h"
#include "sw/full_matrix.h"
#include "sw/reverse_rebuild.h"
#include "util/args.h"
#include "util/genome.h"
#include "util/timer.h"
#include "viz/dotplot.h"

namespace {

int run(int argc, char** argv) {
  using namespace gdsm;
  const Args args(argc, argv);
  const auto size = static_cast<std::size_t>(args.get_int("size", 6'000));
  const int procs = static_cast<int>(args.get_int("procs", 4));
  const int threshold = static_cast<int>(args.get_int("threshold", 30));
  const std::string store_path = args.get("store", "/tmp/gdsm_columns.bin");

  std::cout << "Exact pipeline (pre-process strategy + Section 6), " << size
            << " x " << size << ", " << procs << " DSM nodes\n\n";

  HomologousPairSpec spec;
  spec.length_s = size;
  spec.length_t = size;
  spec.n_regions = 3;
  spec.region_len_mean = 300;
  spec.region_len_spread = 50;
  spec.seed = 606;
  const HomologousPair pair = make_homologous_pair(spec);

  // ---- step 1: pre-process strategy with column + passage-row saving ----
  core::FileColumnStore store(store_path, core::IoMode::kImmediate);
  core::MemoryColumnStore row_store;  // passage-band checkpoints
  core::PreProcessConfig cfg;
  cfg.nprocs = procs;
  cfg.threshold = threshold;
  cfg.band_rows = 512;
  cfg.result_interleave = 512;
  cfg.save_interleave = 512;
  cfg.io_mode = core::IoMode::kImmediate;
  cfg.store = &store;
  cfg.row_store = &row_store;

  Timer timer;
  const core::PreProcessResult res = preprocess_align(pair.s, pair.t, cfg);
  std::cout << "pre-process: " << res.total_hits() << " hits >= " << threshold
            << " across " << res.bands() << " bands in " << timer.seconds()
            << " s; saved columns in " << store_path << "\n\n";

  // The result matrix as an ASCII heat map (the "scoreboard of points of
  // interest").
  std::cout << viz::render_heatmap(res.result_matrix,
                                   "result matrix (hits per band x column group)")
            << "\n";

  // ---- step 2: locate and re-process the hottest area ----
  std::size_t hot_band = 0, hot_group = 0;
  std::uint64_t hot = 0;
  for (std::size_t b = 0; b < res.result_matrix.size(); ++b) {
    for (std::size_t g = 0; g < res.result_matrix[b].size(); ++g) {
      if (res.result_matrix[b][g] > hot) {
        hot = res.result_matrix[b][g];
        hot_band = b;
        hot_group = g;
      }
    }
  }
  if (hot == 0) {
    std::cout << "no hits above threshold; try a lower --threshold\n";
    return 1;
  }
  // Pad the hot block (alignments crest inside it but start earlier), then
  // re-process EXACTLY from the saved checkpoints: the nearest saved column
  // anchors the left boundary, the nearest passage row the top boundary.
  const std::size_t pad = 600;
  core::Subregion region;
  region.row_lo = res.row_offsets[hot_band] > pad
                      ? res.row_offsets[hot_band] - pad + 1
                      : 1;
  region.row_hi = std::min(pair.s.size(), res.row_offsets[hot_band + 1] + pad);
  const std::size_t col_group_lo = hot_group * res.result_interleave;
  region.col_lo = col_group_lo > pad ? col_group_lo - pad + 1 : 1;
  region.col_hi =
      std::min(pair.t.size(), (hot_group + 1) * res.result_interleave + pad);
  std::cout << "hottest cell: band " << hot_band << ", column group "
            << hot_group << " (" << hot << " hits) -> re-processing s["
            << region.row_lo << ".." << region.row_hi << "] x t["
            << region.col_lo << ".." << region.col_hi << "]\n";

  const core::ReprocessResult rep = core::reprocess_region(
      pair.s, pair.t, core::FileColumnStore::load(store_path),
      row_store.snapshot(), region, threshold);
  std::cout << "checkpoint-anchored recomputation covered s["
            << rep.computed.row_lo << ".." << rep.computed.row_hi << "] x t["
            << rep.computed.col_lo << ".." << rep.computed.col_hi << "] ("
            << rep.scores.size() << " cells, vs "
            << pair.s.size() * pair.t.size() << " for the full matrix) and "
            << "yields " << rep.alignments.size() << " alignment(s); best score "
            << (rep.alignments.empty() ? 0 : rep.alignments[0].score) << "\n\n";

  // ---- step 3: Section 6 — exact best alignment, no disk at all ----
  timer.reset();
  const RebuildResult exact = rebuild_best_local_alignment(pair.s, pair.t);
  std::cout << "Section 6 rebuild: best local score " << exact.alignment.score
            << " at s[" << exact.alignment.s_begin + 1 << ".."
            << exact.alignment.s_end() << "] x t["
            << exact.alignment.t_begin + 1 << ".." << exact.alignment.t_end()
            << "] in " << timer.seconds() << " s; reverse pass computed "
            << exact.stats.computed_cells << " cells (vs "
            << exact.stats.rect_area << " rectangle)\n";
  std::remove(store_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad argument (a size too small for the workload, a non-numeric
  // value, a node count the cluster refuses) is a usage error: report it
  // and exit 2 instead of aborting on the uncaught exception.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "exact_pipeline: " << e.what() << "\n";
    return 2;
  }
}
