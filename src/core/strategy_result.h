// Common result type of the phase-1 parallel strategies, and the node
// result payloads the DSM strategies hand back at the end of their job.
#pragma once

#include <span>
#include <vector>

#include "dsm/stats.h"
#include "dsm/wire.h"
#include "sw/alignment.h"

namespace gdsm::core {

struct StrategyResult {
  /// The finalized queue of similarity regions (sorted by subsequence size,
  /// repeats removed), 1-based inclusive coordinates.
  std::vector<Candidate> candidates;
  /// Protocol activity of the run (page faults, diffs, invalidations, ...).
  dsm::DsmStats dsm_stats;
  /// True if any node's queue overflowed its capacity (queue truncated).
  bool overflow = false;
};

/// One node's result payload (dsm::Node::set_result): its queue finalized
/// first (sorted, repeats dropped), so an overflow keeps the same
/// candidates whatever order the kernel emitted them in, then truncated to
/// `capacity`; the payload's flag is the node's overflow bit.  This mirrors
/// the paper's "alignments are then gathered and duplicate alignments
/// removed", with the gather riding each node's end-of-job message.
inline std::vector<std::byte> node_candidates(std::vector<Candidate> queue,
                                              std::size_t capacity) {
  finalize_candidates(queue);
  const bool overflow = queue.size() > capacity;
  if (overflow) queue.resize(capacity);
  return dsm::wire::encode_records(overflow,
                                   std::span<const Candidate>(queue));
}

/// Merges every node's node_candidates payload into `result`: one finalized
/// queue, overflow if any node overflowed.
inline void merge_node_candidates(
    const std::vector<std::vector<std::byte>>& payloads,
    StrategyResult& result) {
  for (const std::vector<std::byte>& payload : payloads) {
    if (dsm::wire::append_records(payload, result.candidates)) {
      result.overflow = true;
    }
  }
  finalize_candidates(result.candidates);
}

}  // namespace gdsm::core
