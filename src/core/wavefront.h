// Strategy 1 (Section 4.2): parallel heuristic local alignment WITHOUT
// blocking factors.
//
// Work is assigned on a column basis: each processor owns N/P contiguous
// columns and keeps two private rows (reading/writing).  Parallelism follows
// the wave-front: processor p+1 may compute row i of its columns only after
// processor p has produced the border cell (i, last column of p).  Each
// border cell is passed *individually* through a one-slot shared buffer with
// a condition-variable handshake:
//
//   writer p:  [wait slot_free]  write border cell  signal data_ready
//   reader p+1: wait data_ready  read border cell   signal slot_free
//
// A barrier starts the computation; at the end each node hands its
// finalized queue back with its end-of-job message (core/strategy_result.h).
#pragma once

#include "core/strategy_result.h"
#include "dsm/config.h"
#include "dsm/global_space.h"
#include "sw/heuristic_scan.h"
#include "util/sequence.h"

namespace gdsm::dsm {
class Cluster;
}

namespace gdsm::core {

struct WavefrontConfig {
  int nprocs = 4;
  ScoreScheme scheme{};
  HeuristicParams params{};
  /// Candidates each node hands back at most (its finalized queue is
  /// truncated to this, and StrategyResult::overflow set).
  std::size_t max_candidates_per_node = 1u << 16;
  /// Paper-literal mode: the two linear arrays live in SHARED memory (homed
  /// at their node) and the writing row is copied onto the reading row after
  /// every row, exactly as Section 4.2 describes.  Functionally identical to
  /// the default (which keeps the rows node-local and swaps buffers), but
  /// every cell goes through the DSM write path — the overhead the
  /// simulator's dsm_write_factor models.
  bool rows_in_shared_memory = false;
  dsm::DsmConfig dsm{};
  /// Caller-owned persistent cluster to run on (the alignment service's
  /// node pool).  Must have exactly `nprocs` nodes and a config with
  /// n_cvs >= 2*nprocs + 2.  When null, a private cluster is built from
  /// `dsm` and torn down with the call.
  dsm::Cluster* cluster = nullptr;
  /// Subject residency: when `resident_t_size` is nonzero (it must then
  /// equal t.size()), the subject lives in the cluster's global space at
  /// `resident_t_addr` (seeded with Cluster::host_write, kept warm with
  /// retain_range) and each node fetches its column slice through the DSM
  /// — cold queries page-fault it in, warm ones hit the local cache.
  dsm::GlobalAddr resident_t_addr = 0;
  std::size_t resident_t_size = 0;
};

/// Runs the non-blocked heuristic strategy on a threaded DSM cluster.
/// The candidate queue is identical to heuristic_scan(s, t, ...) — the
/// parallelization changes only who computes which cell.
StrategyResult wavefront_align(const Sequence& s, const Sequence& t,
                               const WavefrontConfig& cfg = {});

}  // namespace gdsm::core
