// Calibrated cost model of the paper's evaluation platform: a dedicated
// cluster of 8 Pentium II 350 MHz workstations (160 MB RAM, 512 KB L2)
// connected by a 100 Mbps switched Ethernet, running JIAJIA v2.1 over
// Debian Linux with NFS (Section 4.2.1).
//
// Calibration sources (derivation in EXPERIMENTS.md):
//  * heuristic DP cell with candidate bookkeeping: Table 1/Table 4 serial
//    times (~1.0-1.4 us/cell depending on locality);
//  * the cache penalty reproduces why the banded strategy's *serial* run
//    beats the two-linear-arrays serial run (Table 4 vs Table 1) and why
//    "equal" band sizing is ~20% worse sequentially (Fig. 19);
//  * plain counting cell of the pre-process strategy: Fig. 19's ~1000 s for
//    an 80 k serial run -> ~0.155 us/cell;
//  * per-message latency and protocol software overhead: the residual
//    per-row handshake cost implied by Table 1's parallel times (a few ms
//    per border communication).
#pragma once

#include <cstddef>

namespace gdsm::sim {

struct CostModel {
  // -- CPU ------------------------------------------------------------
  double cell_s_heuristic = 1.05e-6;  ///< heuristic cell, cache-resident rows
  double cell_s_plain = 0.155e-6;     ///< pre-process counting cell
  double cell_s_nw = 0.11e-6;         ///< phase-2 NW cell incl. traceback share
  double cache_penalty = 0.32;        ///< extra cell cost when rows spill L2
  std::size_t l2_bytes = 512 * 1024;  ///< Pentium II 512 KB L2
  std::size_t heuristic_cell_bytes = 56;  ///< CellInfo footprint per column
  std::size_t plain_cell_bytes = 8;       ///< int32 score + hit bookkeeping
                                          ///< per column-array row (Section 5)
  double dsm_write_factor = 0.55;  ///< extra per-cell cost when the two rows
                                   ///< live in shared (DSM-checked) memory,
                                   ///< as in the non-blocked strategy

  // -- network: 100 Mbps switched Ethernet + UDP + SIGIO ----------------
  double msg_latency_s = 300e-6;   ///< one-way wire+stack latency
  double wire_s_per_byte = 8.0e-8; ///< 100 Mbps
  double proto_op_s = 550e-6;      ///< handler dispatch / twin / diff software cost
  std::size_t page_bytes = 4096;
  std::size_t msg_header_bytes = 40;

  // -- disk: NFS over the same network ----------------------------------
  double disk_s_per_byte = 2.5e-7;      ///< ~4 MB/s effective NFS write
  double disk_latency_s = 5e-3;         ///< per-operation latency
  double buffer_cache_s_per_byte = 2.0e-8;  ///< absorbing write to page cache
  std::size_t nfs_cache_bytes = 64u << 20;  ///< client buffer cache size

  // -- fixed phases ------------------------------------------------------
  double init_time_s = 8.0;  ///< DSM startup ("ran under 10 s for all tests")
  double term_time_s = 4.0;  ///< final synchronization ("most under 7 s")

  /// Effective per-cell cost given the strategy's base cost and the working
  /// set a node streams over per row (two linear arrays of `row_bytes`).
  double effective_cell(double base, std::size_t working_set_bytes) const {
    return working_set_bytes > l2_bytes ? base * (1.0 + cache_penalty) : base;
  }
};

}  // namespace gdsm::sim
