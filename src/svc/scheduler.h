// Strategy-aware scheduler: picks how each admitted query runs.
//
// The decision is a cost-model estimate over the three heuristic
// strategies, using the calibrated 1998-platform constants of
// sim/cost_model.h:
//
//  * wavefront pays a per-row border handshake (2 control messages plus
//    protocol software per matrix row) but ships only a column slice of
//    the subject to each node — it wins short probes;
//  * blocked amortizes communication into per-block boundary rows and,
//    when the subject is already *warm* in the node caches, pays no subject
//    traffic at all — but each boundary row is priced as page faults (a
//    page message plus protocol software per page), which costs more than
//    blocked_mp's direct messages plus its subject scatter below a few
//    hundred nodes, so kAuto never picks it;
//  * blocked_mp has no DSM protocol overhead but must scatter the whole
//    subject to every rank per dispatch — it wins cold one-shot queries on
//    large subjects.
//
// Exact-mode queries and explicit strategy requests bypass the model.
#pragma once

#include <cstddef>

#include "sim/cost_model.h"
#include "svc/query.h"

namespace gdsm::svc {

struct ScheduleInput {
  std::size_t query_len = 0;    ///< m (rows)
  std::size_t subject_len = 0;  ///< n (columns)
  bool subject_warm = false;    ///< resident pages live in the node caches
  bool affine = false;          ///< query scheme uses affine (Gotoh) gaps
};

struct ScheduleDecision {
  StrategyKind strategy = StrategyKind::kBlocked;
  double est_s = 0;  ///< estimate of the chosen strategy
  double est_wavefront_s = 0;
  double est_blocked_s = 0;
  double est_blocked_mp_s = 0;
};

class Scheduler {
 public:
  /// `mult_w`/`mult_h` mirror the blocked decomposition the service uses,
  /// so the estimate prices the same grid the dispatch will run.
  Scheduler(sim::CostModel model, int nprocs, std::size_t mult_w,
            std::size_t mult_h);

  /// Argmin over the per-strategy estimates (kAuto path).
  ScheduleDecision choose(const ScheduleInput& in) const;

  // Per-strategy estimates, exposed so tests can pin the ordering.  The
  // `affine` flag scales the per-cell compute by the cost model's heuristic
  // gap-model factor; communication terms are model-independent.
  double wavefront_estimate(std::size_t m, std::size_t n, bool warm,
                            bool affine = false) const;
  double blocked_estimate(std::size_t m, std::size_t n, bool warm,
                          bool affine = false) const;
  double blocked_mp_estimate(std::size_t m, std::size_t n,
                             bool affine = false) const;

 private:
  double compute_s(std::size_t m, std::size_t n, bool affine) const;
  double dsm_fetch_s(std::size_t bytes) const;
  void grid_shape(std::size_t m, std::size_t n, std::size_t& bands,
                  std::size_t& blocks) const;

  sim::CostModel model_;
  int nprocs_;
  std::size_t mult_w_;
  std::size_t mult_h_;
};

}  // namespace gdsm::svc
