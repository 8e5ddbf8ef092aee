#include "core/blocked.h"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/band_compute.h"
#include "core/partition.h"
#include "dsm/cluster.h"

namespace gdsm::core {

StrategyResult blocked_align(const Sequence& s, const Sequence& t,
                             const BlockedConfig& cfg) {
  const int P = cfg.nprocs;
  const std::size_t m = s.size();
  const std::size_t n = t.size();

  StrategyResult result;
  if (m == 0 || n == 0) return result;

  const BlockGrid grid =
      (cfg.bands && cfg.blocks)
          ? make_grid(m, n, cfg.bands, cfg.blocks)
          : grid_from_multiplier(m, n, P, cfg.mult_w, cfg.mult_h);
  const std::size_t B = grid.bands();

  std::unique_ptr<dsm::Cluster> owned;
  dsm::Cluster* cl = cfg.cluster;
  if (cl == nullptr) {
    dsm::DsmConfig dsm_cfg = cfg.dsm;
    dsm_cfg.n_cvs = std::max<int>(dsm_cfg.n_cvs, static_cast<int>(B) + 1);
    owned = std::make_unique<dsm::Cluster>(P, dsm_cfg);
    cl = owned.get();
  } else {
    if (cl->nodes() != P) {
      throw std::invalid_argument(
          "blocked_align: external cluster size != nprocs");
    }
    if (cl->config().n_cvs < static_cast<int>(B) + 1) {
      throw std::invalid_argument(
          "blocked_align: external cluster has too few cvs for " +
          std::to_string(B) + " bands");
    }
  }
  if (cfg.resident_t_size != 0 && cfg.resident_t_size != n) {
    throw std::invalid_argument(
        "blocked_align: resident subject size != t.size()");
  }
  dsm::Cluster& cluster = *cl;

  // Bottom-row boundary of every band, homed at the band's owner so the
  // producer writes locally and the consumer page-faults it in per block.
  // Job scratch: the pages go back to the cluster's pool after the job.
  dsm::Scratch scratch = cluster.scratch();
  std::vector<dsm::SharedArray<CellInfo>> boundary;
  boundary.reserve(B);
  for (std::size_t b = 0; b < B; ++b) {
    boundary.emplace_back(
        scratch.alloc(n * sizeof(CellInfo), grid.band_owner(b, P)), n);
  }

  const HeuristicKernel kernel(cfg.scheme, cfg.params);

  // submit/await (rather than run + stats()) so the per-job node counters
  // cannot be confused with a neighbouring job's on a shared service cluster.
  const dsm::Cluster::Ticket ticket = cluster.submit([&](dsm::Node& node) {
    const int p = node.id();
    node.barrier();

    // When the service keeps the subject resident in global memory, each
    // node pulls its own copy through the DSM (cold = page faults, warm =
    // local cache hits) instead of reading host memory.
    Sequence t_resident;
    if (cfg.resident_t_size != 0) {
      std::basic_string<Base> bases(n, Base{});
      node.read_bytes(cfg.resident_t_addr,
                      reinterpret_cast<std::byte*>(bases.data()),
                      n * sizeof(Base));
      t_resident = Sequence(t.name(), std::move(bases));
    }
    const Sequence& t_local = cfg.resident_t_size != 0 ? t_resident : t;

    CandidateSink sink(cfg.params);

    for (std::size_t b = static_cast<std::size_t>(p); b < B;
         b += static_cast<std::size_t>(P)) {
      compute_band(
          kernel, s, t_local, grid, b, sink,
          // Top boundary: wait for the producer's signal, then fault the
          // shared segment in.
          [&](std::size_t k, std::span<CellInfo> out) {
            node.waitcv(static_cast<int>(b - 1));
            boundary[b - 1].get_range(node, grid.col_offsets[k], out.size(),
                                      out.data());
          },
          // Bottom boundary: publish (home write) and wake the next owner.
          [&](std::size_t k, std::span<const CellInfo> bottom) {
            boundary[b].put_range(node, grid.col_offsets[k], bottom.size(),
                                  bottom.data());
            node.setcv(static_cast<int>(b));
          });
    }

    node.set_result(
        node_candidates(std::move(sink.queue()), cfg.max_candidates_per_node));
  }, std::move(scratch));

  dsm::Cluster::JobResult job = cluster.await(ticket);
  result.dsm_stats = std::move(job.stats);
  merge_node_candidates(job.results, result);
  return result;
}

}  // namespace gdsm::core
