// Strategy 2 (Section 4.3): parallel heuristic local alignment WITH
// blocking factors.
//
// The similarity matrix is divided into `bands` (sets of rows, assigned
// round-robin to processors) and each band into `blocks` (sets of columns).
// A processor computes its band block by block, left to right; after
// finishing block (b, k) it publishes the block's bottom row and signals the
// owner of band b+1, which may then compute block (b+1, k).  Grouping a
// whole block row into one communication is what removes the per-cell
// handshake cost of Strategy 1.
//
// A "w x h blocking multiplier" divides the matrix into h*P bands of w*P
// blocks (Table 3 explores the multiplier space).
#pragma once

#include <cstddef>

#include "core/strategy_result.h"
#include "dsm/config.h"
#include "dsm/global_space.h"
#include "sw/heuristic_scan.h"
#include "util/sequence.h"

namespace gdsm::dsm {
class Cluster;
}

namespace gdsm::core {

struct BlockedConfig {
  int nprocs = 4;
  /// Blocking multiplier (bands = mult_h * P, blocks = mult_w * P).  Used
  /// when bands/blocks are left at 0.
  std::size_t mult_w = 5;
  std::size_t mult_h = 5;
  /// Explicit decomposition (overrides the multiplier when nonzero).
  std::size_t bands = 0;
  std::size_t blocks = 0;
  ScoreScheme scheme{};
  HeuristicParams params{};
  /// Candidates each node hands back at most (its finalized queue is
  /// truncated to this, and StrategyResult::overflow set).
  std::size_t max_candidates_per_node = 1u << 16;
  dsm::DsmConfig dsm{};
  /// Caller-owned persistent cluster to run on (the alignment service's
  /// node pool).  Must have exactly `nprocs` nodes and a config with
  /// n_cvs >= bands + 1.  When null, a private cluster is built from
  /// `dsm` and torn down with the call.
  dsm::Cluster* cluster = nullptr;
  /// Subject residency: when `resident_t_size` is nonzero (it must then
  /// equal t.size()), each node fetches the whole subject through the DSM
  /// from `resident_t_addr` before computing — cold queries page-fault it
  /// in, warm ones hit the local cache.
  dsm::GlobalAddr resident_t_addr = 0;
  std::size_t resident_t_size = 0;
};

/// Runs the blocked heuristic strategy on a threaded DSM cluster.  Produces
/// exactly the heuristic_scan(s, t, ...) candidate queue.
StrategyResult blocked_align(const Sequence& s, const Sequence& t,
                             const BlockedConfig& cfg = {});

}  // namespace gdsm::core
