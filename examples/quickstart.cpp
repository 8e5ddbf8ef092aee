// Quickstart: align two small DNA sequences end to end.
//
//   build/examples/quickstart
//
// Demonstrates the two-phase GenomeDSM pipeline on a toy input:
//   phase 1 — the heuristic linear-space Smith-Waterman scan finds
//             similarity regions (candidate queue);
//   phase 2 — each region is globally aligned (Needleman-Wunsch) and
//             printed in the paper's Fig. 16 record format.
// Also shows the exact Section 6 alternative (reverse rebuild).
#include <iostream>

#include "core/phase2.h"
#include "sw/heuristic_scan.h"
#include "sw/reverse_rebuild.h"
#include "viz/dotplot.h"

int main() {
  using namespace gdsm;

  // The paper's own example pair (Fig. 1), embedded in some flanking DNA.
  const Sequence s("query", "TTGCAAGTCCAGACGGATTAGCCTTGGAGTAC");
  const Sequence t("subject", "CCGTAAGATCGGAATAGTTAAGCCGCGTATGG");

  std::cout << "Sequences:\n  s = " << s.text() << "\n  t = " << t.text()
            << "\n\n";

  // Phase 1: similarity regions via the heuristic linear-space scan.
  HeuristicParams params;
  params.min_report_score = 5;
  const auto regions = heuristic_scan(s, t, ScoreScheme{}, params);
  std::cout << "Phase 1 found " << regions.size() << " similarity region(s)\n";
  for (const Candidate& c : regions) {
    std::cout << "  score " << c.score << " at s[" << c.s_begin << ".."
              << c.s_end << "] x t[" << c.t_begin << ".." << c.t_end << "]\n";
  }
  std::cout << "\n";

  // Phase 2: re-align each region in a padded window (the heuristic's begin
  // coordinate trails the true start by ~open_threshold columns) and print
  // Fig. 16-style records.
  std::vector<Alignment> alignments;
  for (const Candidate& c : regions) {
    alignments.push_back(core::align_region_local(s, t, c, /*margin=*/16));
  }
  std::cout << viz::format_alignment_report(s, t, alignments);

  // The exact alternative: best local alignment via Section 6's
  // linear-space detection + reverse rebuild.
  const RebuildResult exact = rebuild_best_local_alignment(s, t);
  std::cout << "Exact best local alignment (Section 6 rebuild), score "
            << exact.alignment.score << " (CIGAR " << exact.alignment.cigar()
            << "):\n";
  const auto lines = exact.alignment.render(s, t);
  std::cout << "  " << lines[0] << "\n  " << lines[1] << "\n  " << lines[2]
            << "\n";
  return 0;
}
