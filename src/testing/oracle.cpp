#include "testing/oracle.h"

#include <algorithm>
#include <sstream>

#include "core/blocked.h"
#include "core/blocked_mp.h"
#include "core/exact_parallel.h"
#include "core/wavefront.h"
#include "sw/full_matrix.h"
#include "sw/linear_score.h"
#include "testing/gotoh_ref.h"

namespace gdsm::testing {
namespace {

int best_candidate_score(const std::vector<Candidate>& queue) {
  int best = 0;
  for (const Candidate& c : queue) best = std::max(best, int(c.score));
  return best;
}

/// Index of the first position where the queues differ (or the shorter
/// length); used only to build the mismatch diagnosis.
std::string diff_queues(const std::vector<Candidate>& expected,
                        const std::vector<Candidate>& got) {
  std::ostringstream os;
  os << "expected " << expected.size() << " candidates, got " << got.size();
  const std::size_t n = std::min(expected.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] == got[i]) continue;
    const Candidate& e = expected[i];
    const Candidate& g = got[i];
    os << "; first mismatch at [" << i << "]: expected (score=" << e.score
       << " s=" << e.s_begin << ".." << e.s_end << " t=" << e.t_begin << ".."
       << e.t_end << "), got (score=" << g.score << " s=" << g.s_begin << ".."
       << g.s_end << " t=" << g.t_begin << ".." << g.t_end << ")";
    break;
  }
  return os.str();
}

void judge_heuristic(StrategyOutcome& out,
                     const std::vector<Candidate>& reference,
                     const std::vector<Candidate>& got) {
  out.ran = true;
  out.best_score = best_candidate_score(got);
  out.score_ok = out.best_score == best_candidate_score(reference);
  out.regions_ok = got == reference;
  if (!out.regions_ok) out.detail = diff_queues(reference, got);
}

}  // namespace

HomologousPair OracleCase::make_pair() const {
  HomologousPairSpec spec;
  spec.length_s = length_s;
  spec.length_t = length_t;
  spec.n_regions = n_regions;
  // Small sequences want proportionally small planted regions so several
  // distinct homologies fit.
  spec.region_len_mean = std::max<std::size_t>(24, length_s / 12);
  spec.region_len_spread = spec.region_len_mean / 3;
  spec.seed = seed;
  return make_homologous_pair(spec);
}

std::string OracleCase::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed << " len=" << length_s << "x" << length_t
     << " regions=" << n_regions << " procs=" << nprocs
     << " gap=" << gap_model_name(scheme.gap_model());
  if (scheme.affine()) {
    os << "(" << scheme.gap_open << "," << scheme.gap << ")";
  }
  os << " faults=" << faults.to_string();
  return os.str();
}

std::string OracleVerdict::summary() const {
  std::ostringstream os;
  os << "serial: best=" << serial_best << " candidates=" << serial_candidates
     << "\n";
  for (const StrategyOutcome& o : outcomes) {
    if (!o.ran) continue;
    os << o.name << ": ";
    if (o.ok()) {
      os << "OK (best=" << o.best_score << ")";
    } else {
      os << "DIVERGED (best=" << o.best_score
         << (o.score_ok ? "" : " score mismatch")
         << (o.regions_ok ? "" : " region mismatch");
      if (!o.detail.empty()) os << "; " << o.detail;
      os << ")";
    }
    os << "\n";
  }
  return os.str();
}

OracleVerdict run_differential(const OracleCase& c, unsigned mask) {
  const HomologousPair pair = c.make_pair();
  OracleVerdict v;

  // Serial references, cross-checked against each other: the kernel-backed
  // linear-space scan and an independent dense fill must agree before they
  // may judge anyone.  Under affine gaps the dense side is gotoh_best_ref —
  // a from-the-recurrence Gotoh that shares no code with the SIMD kernels.
  const BestLocal linear = sw_best_score_linear(pair.s, pair.t, c.scheme);
  MatrixBest full;
  if (c.scheme.affine()) {
    const BestLocal g = gotoh_best_ref(pair.s, pair.t, c.scheme);
    full = MatrixBest{g.score, g.end_i, g.end_j};
  } else {
    (void)sw_fill(pair.s, pair.t, c.scheme, &full);
  }
  v.serial_best = linear.score;
  if (linear.score != full.score || linear.end_i != full.i ||
      linear.end_j != full.j) {
    v.ok = false;
    StrategyOutcome& o = v.outcomes.emplace_back();
    o.name = "serial_cross_check";
    o.ran = true;
    o.score_ok = false;
    std::ostringstream os;
    os << "sw_best_score_linear (" << linear.score << " @" << linear.end_i
       << "," << linear.end_j << ") != "
       << (c.scheme.affine() ? "gotoh_best_ref" : "sw_fill") << " ("
       << full.score << " @" << full.i << "," << full.j << ")";
    o.detail = os.str();
    return v;  // the references disagree; judging strategies is meaningless
  }

  // The scalar kernel whatever GDSM_KERNEL says, so a fault shared by the
  // vector serial scan and the vector strategies still diverges here.
  const std::vector<Candidate> reference =
      heuristic_scan_reference(pair.s, pair.t, c.scheme, c.params);
  v.serial_heuristic_best = best_candidate_score(reference);
  v.serial_candidates = reference.size();

  if (mask & kWavefront) {
    StrategyOutcome& o = v.outcomes.emplace_back();
    o.name = "wavefront";
    core::WavefrontConfig cfg;
    cfg.nprocs = c.nprocs;
    cfg.scheme = c.scheme;
    cfg.params = c.params;
    cfg.dsm.retry = c.retry;
    cfg.dsm.faults = c.faults;
    const core::StrategyResult r = core::wavefront_align(pair.s, pair.t, cfg);
    judge_heuristic(o, reference, r.candidates);
    o.faults = r.dsm_stats.faults;
  }

  if (mask & kBlocked) {
    StrategyOutcome& o = v.outcomes.emplace_back();
    o.name = "blocked";
    core::BlockedConfig cfg;
    cfg.nprocs = c.nprocs;
    cfg.scheme = c.scheme;
    cfg.params = c.params;
    cfg.dsm.retry = c.retry;
    cfg.dsm.faults = c.faults;
    const core::StrategyResult r = core::blocked_align(pair.s, pair.t, cfg);
    judge_heuristic(o, reference, r.candidates);
    o.faults = r.dsm_stats.faults;
  }

  if (mask & kBlockedMp) {
    StrategyOutcome& o = v.outcomes.emplace_back();
    o.name = "blocked_mp";
    core::BlockedConfig cfg;
    cfg.nprocs = c.nprocs;
    cfg.scheme = c.scheme;
    cfg.params = c.params;
    cfg.dsm.faults = c.faults;
    const core::MpStrategyResult r = core::blocked_align_mp(pair.s, pair.t, cfg);
    judge_heuristic(o, reference, r.candidates);
    o.faults = r.faults;
  }

  if (mask & kExactParallel) {
    StrategyOutcome& o = v.outcomes.emplace_back();
    o.name = "exact_parallel";
    core::ExactParallelConfig cfg;
    cfg.nprocs = c.nprocs;
    cfg.scheme = c.scheme;
    cfg.faults = c.faults;
    const core::ExactParallelResult r =
        core::exact_align_parallel(pair.s, pair.t, cfg);
    o.ran = true;
    o.best_score = r.best.score;
    o.regions_ok = true;  // the exact pass has no candidate queue to compare
    o.score_ok = r.best.score == linear.score &&
                 r.best.end_i == linear.end_i && r.best.end_j == linear.end_j;
    if (!o.score_ok) {
      std::ostringstream os;
      os << "expected best " << linear.score << " @" << linear.end_i << ","
         << linear.end_j << ", got " << r.best.score << " @" << r.best.end_i
         << "," << r.best.end_j;
      o.detail = os.str();
    }
    o.faults = r.faults;
  }

  for (const StrategyOutcome& o : v.outcomes) {
    if (!o.ok()) v.ok = false;
  }
  return v;
}

OracleCase minimize(OracleCase c, unsigned mask) {
  if (run_differential(c, mask).ok) return c;  // nothing to minimize
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    // Each reduction is kept only if the case still fails.
    const auto try_case = [&](const OracleCase& next) {
      if (run_differential(next, mask).ok) return false;
      c = next;
      shrunk = true;
      return true;
    };
    if (c.length_s > 64 || c.length_t > 64) {
      OracleCase next = c;
      next.length_s = std::max<std::size_t>(64, c.length_s / 2);
      next.length_t = std::max<std::size_t>(64, c.length_t / 2);
      try_case(next);
    }
    if (c.n_regions > 1) {
      OracleCase next = c;
      next.n_regions = c.n_regions / 2;
      try_case(next);
    }
    if (c.nprocs > 2) {
      OracleCase next = c;
      next.nprocs = 2;
      try_case(next);
    }
  }
  return c;
}

std::vector<net::FaultPlan> standard_fault_plans(std::uint64_t seed) {
  net::FaultPlan drop;
  drop.seed = seed;
  drop.drop_rate = 0.2;
  drop.drop_retries = 3;
  drop.retry_backoff_us = 80;

  net::FaultPlan reorder;
  reorder.seed = seed + 1;
  reorder.reorder_rate = 0.3;
  reorder.reorder_hold_us = 400;

  net::FaultPlan delay;
  delay.seed = seed + 2;
  delay.delay_rate = 0.5;
  delay.delay_max_us = 300;

  net::FaultPlan chaos;  // everything at once, plus a partition window
  chaos.seed = seed + 3;
  chaos.drop_rate = 0.1;
  chaos.retry_backoff_us = 60;
  chaos.delay_rate = 0.2;
  chaos.delay_max_us = 200;
  chaos.reorder_rate = 0.15;
  chaos.reorder_hold_us = 300;
  chaos.duplicate_rate = 0.2;
  chaos.partitions.push_back(net::PartitionWindow{1, 0, 2});

  return {drop, reorder, delay, chaos};
}

}  // namespace gdsm::testing
