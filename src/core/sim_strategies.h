// Simulator twins of the three parallel strategies and phase 2.
//
// Each twin replays, on the calibrated discrete-event engine, the exact
// message/compute sequence of the paper's implementation on the 8-node
// Pentium II / 100 Mbps / JIAJIA platform, producing deterministic makespans
// and Fig. 10-style breakdowns.  These regenerate every timing table and
// figure of the evaluation (see DESIGN.md's experiment index).
//
// One modeling note: the paper's Strategy 1 keeps its two linear arrays in
// shared (DSM-checked) memory and copies the writing row onto the reading
// row after every row — the simulator charges this as the cost model's
// dsm_write_factor on every cell.  Our threaded reimplementation avoids the
// copy with a swap, so it is *leaner* than the system the paper measured;
// the simulator models the paper's system.
#pragma once

#include <cstddef>
#include <vector>

#include "core/preprocess.h"
#include "sim/cost_model.h"
#include "sim/engine.h"

namespace gdsm::core {

struct SimReport {
  double core_s = 0;    ///< makespan of the computation phase
  double total_s = 0;   ///< core + DSM init + termination
  sim::Breakdown average;               ///< per-node average, by category
  std::vector<sim::Breakdown> per_node;
};

/// Strategy 1 (Section 4.2): column partition, per-row border handshake.
/// P == 1 models the serial program (no DSM overhead at all).
SimReport sim_wavefront(std::size_t m, std::size_t n, int nprocs,
                        const sim::CostModel& cm = {});

/// Strategy 2 (Section 4.3): bands x blocks with one communication per
/// block.  bands/blocks as in BlockedConfig (already multiplied by P).
SimReport sim_blocked(std::size_t m, std::size_t n, int nprocs,
                      std::size_t bands, std::size_t blocks,
                      const sim::CostModel& cm = {});

/// Strategy 2 over MESSAGE PASSING on the same 1998 platform: the boundary
/// segment travels as one eager message instead of the cv + page-fault
/// protocol.  The simulated twin of blocked_align_mp, used to quantify the
/// DSM abstraction's wire cost (Section 7's trade-off).
SimReport sim_blocked_mp(std::size_t m, std::size_t n, int nprocs,
                         std::size_t bands, std::size_t blocks,
                         const sim::CostModel& cm = {});

/// Strategy 3 (Section 5) parameters mirrored from PreProcessConfig.
struct SimPreprocessOptions {
  BandScheme band_scheme = BandScheme::kFixed;
  std::size_t band_rows = 1024;
  std::size_t chunk_cols = 128;
  ChunkGrowth chunk_growth = ChunkGrowth::kFixed;
  std::size_t save_interleave = 0;
  IoMode io_mode = IoMode::kNone;
};

SimReport sim_preprocess(std::size_t m, std::size_t n, int nprocs,
                         const SimPreprocessOptions& opt,
                         const sim::CostModel& cm = {});

/// Phase 2 (Section 4.4): `pairs` subsequence comparisons with the given
/// (len_s, len_t) sizes, scattered over P processors.
SimReport sim_phase2(const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
                     int nprocs, const sim::CostModel& cm = {});

/// Synthetic pair-size distribution matching the paper's phase-2 workload
/// (average subsequence size ~253 bytes), deterministic in `seed`.
std::vector<std::pair<std::size_t, std::size_t>> phase2_pair_sizes(
    std::size_t count, std::size_t mean = 253, std::uint64_t seed = 7);

}  // namespace gdsm::core
