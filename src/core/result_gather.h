// Gathering per-node candidate queues through shared memory.
//
// Each node owns a fixed-capacity shared buffer (homed at that node, so the
// publishing writes are local); after the end-of-phase barrier, node 0 reads
// every buffer and builds the merged queue.  This mirrors the paper's
// "alignments are then gathered and duplicate alignments removed".
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/cluster.h"
#include "sw/alignment.h"

namespace gdsm::core {

class CandidateGather {
 public:
  /// Must be constructed before the job is submitted; its buffers are the
  /// job's scratch.
  CandidateGather(dsm::Scratch& scratch, int nprocs, std::size_t capacity)
      : capacity_(capacity) {
    counts_ = dsm::SharedArray<std::uint64_t>(
        scratch.alloc(static_cast<std::size_t>(nprocs) * sizeof(std::uint64_t),
                      /*home=*/0),
        static_cast<std::size_t>(nprocs));
    buffers_.reserve(static_cast<std::size_t>(nprocs));
    for (int p = 0; p < nprocs; ++p) {
      buffers_.emplace_back(scratch.alloc(capacity * sizeof(Candidate), p),
                            capacity);
    }
  }

  /// Called by every node with its local queue, before the final barrier.
  /// The queue is finalized first (sorted, repeats dropped), so an overflow
  /// keeps the same candidates whatever order the kernel emitted them in,
  /// and duplicates never cross the DSM.  Returns false when the queue was
  /// truncated to the buffer capacity.
  bool publish(dsm::Node& node, std::vector<Candidate> local) const {
    finalize_candidates(local);
    const std::size_t n = std::min(local.size(), capacity_);
    if (n > 0) {
      buffers_[static_cast<std::size_t>(node.id())].put_range(node, 0, n,
                                                              local.data());
    }
    counts_.put(node, static_cast<std::size_t>(node.id()),
                static_cast<std::uint64_t>(n));
    return n == local.size();
  }

  /// Called on node 0 after the final barrier; merges and finalizes.
  std::vector<Candidate> collect(dsm::Node& node0) const {
    std::vector<Candidate> all;
    for (std::size_t p = 0; p < buffers_.size(); ++p) {
      const auto n = static_cast<std::size_t>(counts_.get(node0, p));
      const std::size_t old = all.size();
      all.resize(old + n);
      if (n > 0) buffers_[p].get_range(node0, 0, n, all.data() + old);
    }
    finalize_candidates(all);
    return all;
  }

 private:
  std::size_t capacity_;
  dsm::SharedArray<std::uint64_t> counts_;
  std::vector<dsm::SharedArray<Candidate>> buffers_;
};

}  // namespace gdsm::core
