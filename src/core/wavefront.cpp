#include "core/wavefront.h"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/partition.h"
#include "dsm/cluster.h"

namespace gdsm::core {
namespace {

// Condition-variable identifiers for the pairwise handshakes.  Pair p is the
// channel from processor p to processor p+1.
int cv_data_ready(int pair) { return pair; }
int cv_slot_free(int nprocs, int pair) { return nprocs + pair; }

}  // namespace

StrategyResult wavefront_align(const Sequence& s, const Sequence& t,
                               const WavefrontConfig& cfg) {
  const int P = cfg.nprocs;
  const std::size_t m = s.size();
  const std::size_t n = t.size();

  std::unique_ptr<dsm::Cluster> owned;
  dsm::Cluster* cl = cfg.cluster;
  if (cl == nullptr) {
    dsm::DsmConfig dsm_cfg = cfg.dsm;
    dsm_cfg.n_cvs = std::max(dsm_cfg.n_cvs, 2 * P + 2);
    owned = std::make_unique<dsm::Cluster>(P, dsm_cfg);
    cl = owned.get();
  } else {
    if (cl->nodes() != P) {
      throw std::invalid_argument(
          "wavefront_align: external cluster size != nprocs");
    }
    if (cl->config().n_cvs < 2 * P + 2) {
      throw std::invalid_argument(
          "wavefront_align: external cluster has too few cvs");
    }
  }
  if (cfg.resident_t_size != 0 && cfg.resident_t_size != n) {
    throw std::invalid_argument(
        "wavefront_align: resident subject size != t.size()");
  }
  dsm::Cluster& cluster = *cl;

  // One border slot per processor pair, each on its own page homed at the
  // writer so publishing the cell is a local write.  All of this call's
  // global buffers are job scratch, pooled again after the job.
  dsm::Scratch scratch = cluster.scratch();
  std::vector<dsm::GlobalAddr> border(P > 1 ? static_cast<std::size_t>(P - 1) : 0);
  for (int p = 0; p + 1 < P; ++p) {
    border[static_cast<std::size_t>(p)] =
        scratch.alloc(sizeof(CellInfo), /*home=*/p);
  }
  // Paper-literal mode: per-node shared reading/writing rows.
  std::vector<dsm::SharedArray<CellInfo>> shared_reading, shared_writing;
  if (cfg.rows_in_shared_memory) {
    for (int p = 0; p < P; ++p) {
      const std::size_t width = column_range(n, P, p).width();
      const std::size_t bytes = std::max<std::size_t>(width, 1) * sizeof(CellInfo);
      shared_reading.emplace_back(scratch.alloc(bytes, p), width);
      shared_writing.emplace_back(scratch.alloc(bytes, p), width);
    }
  }

  const HeuristicKernel kernel(cfg.scheme, cfg.params);

  // submit/await (rather than run + stats()) so the per-job node counters
  // cannot be confused with a neighbouring job's on a shared service cluster.
  const dsm::Cluster::Ticket ticket = cluster.submit([&](dsm::Node& node) {
    const int p = node.id();
    node.barrier();  // start-of-computation barrier

    const ColumnRange range = column_range(n, P, p);
    const std::size_t width = range.width();
    // Subject columns for this node: from the resident copy in global
    // memory when the service keeps one (cold = page faults, warm = cache
    // hits), otherwise straight from host memory as before.
    std::vector<Base> t_resident;
    std::span<const Base> t_cols;
    if (width > 0) {
      if (cfg.resident_t_size != 0) {
        t_resident.resize(width);
        node.read_bytes(cfg.resident_t_addr + (range.begin - 1) * sizeof(Base),
                        reinterpret_cast<std::byte*>(t_resident.data()),
                        width * sizeof(Base));
        t_cols = t_resident;
      } else {
        t_cols = t.bases().subspan(range.begin - 1, width);
      }
    }

    CandidateSink sink(cfg.params);
    std::vector<CellInfo> reading(width);  // previous row of this segment
    std::vector<CellInfo> writing(width);
    const CellInfo zero{};
    CellInfo prev_border{};  // cell (i-1, range.begin-1) from the left pair

    for (std::size_t i = 1; i <= m; ++i) {
      CellInfo left{};
      CellInfo diag{};
      if (p > 0) {
        node.waitcv(cv_data_ready(p - 1));
        left = node.read<CellInfo>(border[static_cast<std::size_t>(p - 1)]);
        node.setcv(cv_slot_free(P, p - 1));
        diag = prev_border;
        prev_border = left;
      }
      if (width > 0) {
        if (cfg.rows_in_shared_memory) {
          // Fetch the reading row from shared memory, compute, publish the
          // writing row back — Section 4.2's literal data layout.
          shared_reading[static_cast<std::size_t>(p)].get_range(node, 0, width,
                                                                reading.data());
        }
        kernel.process_row_segment(s[i - 1], static_cast<std::uint32_t>(i),
                                   t_cols, static_cast<std::uint32_t>(range.begin),
                                   reading, p > 0 ? diag : zero,
                                   p > 0 ? left : zero, writing, sink);
        if (cfg.rows_in_shared_memory) {
          shared_writing[static_cast<std::size_t>(p)].put_range(node, 0, width,
                                                                writing.data());
        }
      }
      if (p + 1 < P) {
        if (i > 1) node.waitcv(cv_slot_free(P, p));
        // Empty segments forward the value received from the left unchanged.
        const CellInfo out = width > 0 ? writing.back() : left;
        node.write(border[static_cast<std::size_t>(p)], out);
        node.setcv(cv_data_ready(p));
      }
      if (cfg.rows_in_shared_memory && width > 0) {
        // "When a processor finishes calculating a row, it copies this row
        // to the reading row": a shared-to-shared copy through the node.
        shared_writing[static_cast<std::size_t>(p)].get_range(node, 0, width,
                                                              writing.data());
        shared_reading[static_cast<std::size_t>(p)].put_range(node, 0, width,
                                                              writing.data());
      }
      std::swap(reading, writing);
    }
    // Candidates still open on the bottom row of the matrix.
    for (const CellInfo& cell : reading) sink.flush_open(cell);

    node.set_result(
        node_candidates(std::move(sink.queue()), cfg.max_candidates_per_node));
  }, std::move(scratch));

  StrategyResult result;
  dsm::Cluster::JobResult job = cluster.await(ticket);
  result.dsm_stats = std::move(job.stats);
  merge_node_candidates(job.results, result);
  return result;
}

}  // namespace gdsm::core
