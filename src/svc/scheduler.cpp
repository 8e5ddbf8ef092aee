#include "svc/scheduler.h"

#include <algorithm>

namespace gdsm::svc {

const char* strategy_name(StrategyKind k) noexcept {
  switch (k) {
    case StrategyKind::kAuto: return "auto";
    case StrategyKind::kWavefront: return "wavefront";
    case StrategyKind::kBlocked: return "blocked";
    case StrategyKind::kBlockedMp: return "blocked_mp";
    case StrategyKind::kExact: return "exact";
    case StrategyKind::kDbScan: return "db_scan";
  }
  return "?";
}

Scheduler::Scheduler(sim::CostModel model, int nprocs, std::size_t mult_w,
                     std::size_t mult_h)
    : model_(model),
      nprocs_(nprocs > 0 ? nprocs : 1),
      mult_w_(mult_w ? mult_w : 1),
      mult_h_(mult_h ? mult_h : 1) {}

double Scheduler::compute_s(std::size_t m, std::size_t n, bool affine) const {
  const double cells =
      static_cast<double>(m) * static_cast<double>(n) / nprocs_;
  // Two linear arrays over this node's column share stream through cache.
  const std::size_t row_bytes =
      2 * (n / static_cast<std::size_t>(nprocs_)) * model_.heuristic_cell_bytes;
  double per_cell = model_.effective_cell(model_.cell_s_heuristic, row_bytes);
  if (affine) per_cell *= model_.affine_cell_factor_heuristic;
  return cells * per_cell;
}

double Scheduler::dsm_fetch_s(std::size_t bytes) const {
  // Page-faulting `bytes` of resident data in from the homes.
  const std::size_t pages =
      (bytes + model_.page_bytes - 1) / model_.page_bytes;
  return static_cast<double>(pages) *
         (model_.message_time(model_.page_bytes) + model_.proto_op_s);
}

void Scheduler::grid_shape(std::size_t m, std::size_t n, std::size_t& bands,
                           std::size_t& blocks) const {
  bands = std::max<std::size_t>(
      1, std::min(m, mult_h_ * static_cast<std::size_t>(nprocs_)));
  blocks = std::max<std::size_t>(
      1, std::min(n, mult_w_ * static_cast<std::size_t>(nprocs_)));
}

double Scheduler::wavefront_estimate(std::size_t m, std::size_t n, bool warm,
                                     bool affine) const {
  double est = compute_s(m, n, affine);
  if (nprocs_ > 1) {
    // Per matrix row: waitcv + border page fetch on the critical path, each
    // one control message plus handler software.
    est += static_cast<double>(m) * 2.0 *
           (model_.msg_latency_s + model_.proto_op_s);
  }
  if (!warm) {
    // Each node faults in only its own column slice of the subject.
    est += dsm_fetch_s(n / static_cast<std::size_t>(nprocs_));
  }
  return est;
}

double Scheduler::blocked_estimate(std::size_t m, std::size_t n, bool warm,
                                   bool affine) const {
  std::size_t bands = 0, blocks = 0;
  grid_shape(m, n, bands, blocks);
  double est = compute_s(m, n, affine);
  if (nprocs_ > 1) {
    // Per block: the boundary row is published home and page-faulted in by
    // the next band's owner, plus the wake-up signal.
    const std::size_t seg_bytes = (n / blocks + 1) * model_.heuristic_cell_bytes;
    const std::size_t seg_pages =
        (seg_bytes + model_.page_bytes - 1) / model_.page_bytes;
    const double per_block =
        static_cast<double>(seg_pages) *
            (model_.message_time(model_.page_bytes) + model_.proto_op_s) +
        model_.message_time(0);
    est += static_cast<double>(bands) * static_cast<double>(blocks) *
           per_block / nprocs_;
  }
  if (!warm) {
    // Every node pulls the whole subject through the DSM before computing.
    est += dsm_fetch_s(n);
  }
  return est;
}

double Scheduler::blocked_mp_estimate(std::size_t m, std::size_t n,
                                      bool affine) const {
  std::size_t bands = 0, blocks = 0;
  grid_shape(m, n, bands, blocks);
  double est = compute_s(m, n, affine);
  if (nprocs_ > 1) {
    // Boundary rows travel as direct messages: wire time only, no protocol
    // software, no page granularity.
    const std::size_t seg_bytes = (n / blocks + 1) * model_.heuristic_cell_bytes;
    est += static_cast<double>(bands) * static_cast<double>(blocks) *
           model_.message_time(seg_bytes) / nprocs_;
    // No residency on message passing: the subject is scattered to every
    // rank on each dispatch.
    est += static_cast<double>(nprocs_ - 1) * model_.message_time(n);
  }
  return est;
}

ScheduleDecision Scheduler::choose(const ScheduleInput& in) const {
  ScheduleDecision d;
  d.est_wavefront_s = wavefront_estimate(in.query_len, in.subject_len,
                                         in.subject_warm, in.affine);
  d.est_blocked_s = blocked_estimate(in.query_len, in.subject_len,
                                     in.subject_warm, in.affine);
  d.est_blocked_mp_s =
      blocked_mp_estimate(in.query_len, in.subject_len, in.affine);
  d.strategy = StrategyKind::kWavefront;
  d.est_s = d.est_wavefront_s;
  if (d.est_blocked_s < d.est_s) {
    d.strategy = StrategyKind::kBlocked;
    d.est_s = d.est_blocked_s;
  }
  if (d.est_blocked_mp_s < d.est_s) {
    d.strategy = StrategyKind::kBlockedMp;
    d.est_s = d.est_blocked_mp_s;
  }
  return d;
}

}  // namespace gdsm::svc
