// genome_compare: the full GenomeDSM workflow on whole (synthetic) genomes,
// running the PARALLEL strategies on the threaded DSM cluster.
//
//   build/examples/genome_compare [--size=12000] [--procs=4]
//                                 [--strategy=blocked|wavefront]
//                                 [--regions=10] [--fasta-out=pair.fa]
//
// Pipeline (Sections 4.2-4.4):
//   1. generate (or load) two genomes with shared homologous regions;
//   2. phase 1 on the DSM cluster: similarity regions + protocol stats;
//   3. phase 2 on the DSM cluster: scattered-mapping global alignment;
//   4. visualize: terminal dot plot (the paper's Fig. 14 tool) and Fig. 16
//      alignment records for the top regions.
#include <algorithm>
#include <exception>
#include <iostream>

#include "core/blocked.h"
#include "core/phase2.h"
#include "core/wavefront.h"
#include "util/args.h"
#include "util/fasta.h"
#include "util/genome.h"
#include "util/timer.h"
#include "viz/dotplot.h"

namespace {

int run(int argc, char** argv) {
  using namespace gdsm;
  const Args args(argc, argv);
  const auto size = static_cast<std::size_t>(args.get_int("size", 12'000));
  const int procs = static_cast<int>(args.get_int("procs", 4));
  const std::string strategy = args.get("strategy", "blocked");
  const auto n_regions = static_cast<std::size_t>(args.get_int("regions", 10));

  std::cout << "GenomeDSM genome comparison: " << size / 1000 << " kBP x "
            << size / 1000 << " kBP, " << procs << " DSM nodes, strategy '"
            << strategy << "'\n\n";

  HomologousPairSpec spec;
  spec.length_s = size;
  spec.length_t = size;
  spec.n_regions = n_regions;
  spec.region_len_mean = 300;  // the paper's average similar-region size
  spec.region_len_spread = 100;
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 2005));
  const HomologousPair pair = make_homologous_pair(spec);

  if (args.has("fasta-out")) {
    write_fasta_file(args.get("fasta-out"), {pair.s, pair.t});
    std::cout << "wrote FASTA pair to " << args.get("fasta-out") << "\n";
  }

  // ---- phase 1: similarity regions on the DSM cluster ----
  Timer timer;
  HeuristicParams params;
  params.min_report_score = 50;
  core::StrategyResult phase1;
  if (strategy == "wavefront") {
    core::WavefrontConfig cfg;
    cfg.nprocs = procs;
    cfg.params = params;
    phase1 = core::wavefront_align(pair.s, pair.t, cfg);
  } else {
    core::BlockedConfig cfg;
    cfg.nprocs = procs;
    cfg.params = params;
    phase1 = core::blocked_align(pair.s, pair.t, cfg);
  }
  std::cout << "phase 1: " << phase1.candidates.size()
            << " similarity regions in " << timer.seconds()
            << " s (host wall clock)\n";
  const auto total = phase1.dsm_stats.total_node();
  std::cout << "  DSM activity: " << total.read_faults << " page faults, "
            << total.diffs_sent << " diffs, " << total.invalidations
            << " invalidations, " << total.cv_signals << " cv signals, "
            << phase1.dsm_stats.total_traffic().total_messages()
            << " messages ("
            << phase1.dsm_stats.total_traffic().total_bytes() / 1024
            << " KiB)\n\n";

  // ---- dot plot (Fig. 14) ----
  std::cout << viz::render_dotplot(phase1.candidates, pair.s.size(),
                                   pair.t.size())
            << "\n";

  // ---- phase 2: global alignments with scattered mapping ----
  timer.reset();
  core::Phase2Config p2;
  p2.nprocs = procs;
  const core::Phase2Result phase2 =
      core::phase2_align(pair.s, pair.t, phase1.candidates, p2);
  std::cout << "phase 2: " << phase2.alignments.size()
            << " global alignments in " << timer.seconds() << " s\n\n";

  // ---- Fig. 16-style records for the top distinct regions ----
  const auto distinct = cull_overlapping_candidates(phase1.candidates, 2);
  std::vector<Alignment> top;
  for (const Candidate& c : distinct) {
    top.push_back(core::align_region(pair.s, pair.t, c));
  }
  std::cout << viz::format_alignment_report(pair.s, pair.t, top);

  // ---- ground truth check ----
  std::size_t covered = 0;
  for (const PlantedRegion& r : pair.regions) {
    covered += std::any_of(
        phase1.candidates.begin(), phase1.candidates.end(),
        [&](const Candidate& c) {
          return c.s_end >= r.s_begin + 1 && c.s_begin <= r.s_end &&
                 c.t_end >= r.t_begin + 1 && c.t_begin <= r.t_end;
        });
  }
  std::cout << "ground truth: " << covered << "/" << pair.regions.size()
            << " planted homologies detected\n";
  return covered == pair.regions.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad argument (a size too small for the workload, a non-numeric
  // value, a node count the cluster refuses) is a usage error: report it
  // and exit 2 instead of aborting on the uncaught exception.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "genome_compare: " << e.what() << "\n";
    return 2;
  }
}
