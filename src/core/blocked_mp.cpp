#include "core/blocked_mp.h"

#include <cstring>
#include <vector>

#include "core/band_compute.h"
#include "mp/comm.h"

namespace gdsm::core {
namespace {

// One tag per (band, block) boundary handoff; tags must be non-negative to
// stay clear of the collective tags.
int boundary_tag(std::size_t band, std::size_t blocks, std::size_t k) {
  return static_cast<int>(band * blocks + k);
}

}  // namespace

MpStrategyResult blocked_align_mp(const Sequence& s, const Sequence& t,
                                  const BlockedConfig& cfg) {
  const int P = cfg.nprocs;
  const std::size_t m = s.size();
  const std::size_t n = t.size();

  MpStrategyResult result;
  if (m == 0 || n == 0) return result;

  const BlockGrid grid =
      (cfg.bands && cfg.blocks)
          ? make_grid(m, n, cfg.bands, cfg.blocks)
          : grid_from_multiplier(m, n, P, cfg.mult_w, cfg.mult_h);
  const std::size_t B = grid.bands();
  const std::size_t K = grid.blocks();

  const HeuristicKernel kernel(cfg.scheme, cfg.params);
  mp::World world(P, cfg.dsm.faults);
  std::vector<Candidate> merged;

  world.run([&](mp::Comm& comm) {
    const int p = comm.rank();
    comm.barrier();

    CandidateSink sink(cfg.params);
    for (std::size_t b = static_cast<std::size_t>(p); b < B;
         b += static_cast<std::size_t>(P)) {
      const int prev_owner = static_cast<int>((b - 1) % static_cast<std::size_t>(P));
      const int next_owner = static_cast<int>((b + 1) % static_cast<std::size_t>(P));
      compute_band(
          kernel, s, t, grid, b, sink,
          // Top boundary: receive the segment from band b-1's owner.
          [&](std::size_t k, std::span<CellInfo> out) {
            const auto payload =
                comm.recv_vector<CellInfo>(prev_owner, boundary_tag(b - 1, K, k));
            if (payload.size() != out.size()) {
              throw std::runtime_error("blocked_align_mp: boundary size mismatch");
            }
            std::memcpy(out.data(), payload.data(),
                        payload.size() * sizeof(CellInfo));
          },
          // Bottom boundary: send the segment to band b+1's owner.
          [&](std::size_t k, std::span<const CellInfo> bottom) {
            comm.send_span(next_owner, boundary_tag(b, K, k), bottom.data(),
                           bottom.size());
          });
    }

    // Gather the per-rank queues, each finalized first so duplicates never
    // cross the transport, at rank 0 and finalize the merge.
    std::vector<Candidate>& local = sink.queue();
    finalize_candidates(local);
    const auto gathered = comm.gather(
        0, local.data(), local.size() * sizeof(Candidate));
    if (p == 0) {
      for (const auto& bytes : gathered) {
        const std::size_t count = bytes.size() / sizeof(Candidate);
        const std::size_t old = merged.size();
        merged.resize(old + count);
        if (count > 0) {
          std::memcpy(merged.data() + old, bytes.data(), bytes.size());
        }
      }
      finalize_candidates(merged);
    }
    comm.barrier();
  });

  result.candidates = std::move(merged);
  result.traffic = world.total_counters();
  result.faults = world.fault_counters();
  return result;
}

}  // namespace gdsm::core
