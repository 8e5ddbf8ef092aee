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
#include <string_view>

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

  /// Wire time of one message with `payload` bytes (headers included).
  double message_time(std::size_t payload) const {
    return msg_latency_s + (payload + msg_header_bytes) * wire_s_per_byte;
  }

  // -- SIMD kernel backends (v4) ----------------------------------------
  // Measured single-node speedups of the dispatched score-only kernels over
  // the scalar reference (bench/kernels_sw on the dev host; docs/KERNELS.md).
  // The Pentium II calibration above stays the scalar baseline; these scale
  // it so strategy selection sees the machine the run will actually use.
  double simd_speedup_avx2 = 7.0;
  // Striped (Farrar) query-profile backend (v9): 8-bit saturating lanes
  // quadruple per-vector parallelism over the 32-bit anti-diagonal sweeps
  // and the sweep has no per-cell bookkeeping (best tracking rides the
  // lane maxima), so the measured ratio is large.
  double simd_speedup_striped_avx2 = 91.0;

  /// Speedup of the named backend (the GDSM_KERNEL vocabulary; unknown
  /// names are conservatively scalar).
  double kernel_speedup(std::string_view backend) const {
    if (backend == "avx2") return simd_speedup_avx2;
    if (backend == "striped-avx2") return simd_speedup_striped_avx2;
    return 1.0;
  }

  // -- affine gap model (v6) ---------------------------------------------
  // Gotoh's three-matrix recurrence adds the E/F companions to every cell:
  // two extra running maxima plus the extra boundary traffic.  Measured
  // per-backend cell-cost ratios of bench/kernels_sw --gap=affine over the
  // linear kernels; the SIMD backends amortize the extra maxima better than
  // the scalar loop does.
  double affine_cell_factor_scalar = 1.9;
  double affine_cell_factor_avx2 = 1.5;
  /// Heuristic CellInfo update under affine gaps (bookkeeping dominates, so
  /// the two extra maxima cost proportionally less than in the kernels).
  double affine_cell_factor_heuristic = 1.2;

  /// The striped kernel runs the same Gotoh-shaped sweep for both gap
  /// models (linear gaps are affine with a zero open surcharge), so the
  /// affine surcharge is noise-level there (bench/kernels_sw).
  double affine_cell_factor_striped = 1.0;

  /// Affine/linear cell-cost ratio of the named kernel backend.
  double affine_cell_factor(std::string_view backend) const {
    if (backend == "striped-avx2") return affine_cell_factor_striped;
    if (backend == "avx2") return affine_cell_factor_avx2;
    return affine_cell_factor_scalar;
  }

  /// Pre-process counting cell on the named kernel backend.
  double plain_cell_s(std::string_view backend) const {
    return cell_s_plain / kernel_speedup(backend);
  }

  /// Pre-process counting cell on the named backend under the given gap
  /// model (affine pays the per-backend Gotoh factor).
  double plain_cell_s(std::string_view backend, bool affine) const {
    return plain_cell_s(backend) *
           (affine ? affine_cell_factor(backend) : 1.0);
  }

  /// Phase-2 NW cell on the named kernel backend (the traceback share does
  /// not vectorize, but the last-row sweeps dominate).
  double nw_cell_s(std::string_view backend) const {
    return cell_s_nw / kernel_speedup(backend);
  }

  /// Effective per-cell cost given the strategy's base cost and the working
  /// set a node streams over per row (two linear arrays of `row_bytes`).
  double effective_cell(double base, std::size_t working_set_bytes) const {
    return working_set_bytes > l2_bytes ? base * (1.0 + cache_penalty) : base;
  }

  // -- seed-and-extend cascade (v10) -------------------------------------
  // The db scan's middle stage (src/db/cascade.h): seeded stage-1
  // survivors are chained and X-drop-extended on the serving host, and
  // candidates whose extension clears the no-seed bound resolve through a
  // banded certified DP instead of the sharded full DP.  Rates measured on
  // the bench/db_throughput funnel at the default thresholds.
  double cascade_resolve_rate = 0.3;  ///< survivors certified host-side
  double cascade_band_area = 0.25;    ///< banded-DP cells / full-matrix cells
  /// Host-side chaining + ungapped-extension cost per gathered seed
  /// occurrence (scalar, serving node).
  double cascade_seed_s = 25e-9;
};

}  // namespace gdsm::sim
