// Service-level observability: admission, residency, gap-model and latency
// counters, serialized into the run-report "service" section (since schema
// v3; gap_models since v6 — docs/METRICS.md).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/json.h"
#include "svc/query.h"

namespace gdsm::svc {

/// Power-of-two latency histogram: bucket i counts samples in
/// [2^i, 2^(i+1)) microseconds; the last bucket is open-ended.
struct LatencyHistogram {
  static constexpr int kBuckets = 26;  ///< up to ~67 s, then overflow
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum_s = 0;
  double max_s = 0;

  void record(double seconds);
  /// Upper edge (exclusive) of bucket i in microseconds.
  static std::uint64_t bucket_edge_us(int i) { return 1ull << (i + 1); }
  /// Histogram quantile (0..1), resolved to the containing bucket's upper
  /// edge, in seconds.  Returns 0 when empty.
  double quantile(double q) const;
  double mean_s() const { return count ? sum_s / static_cast<double>(count) : 0; }

  obs::Json to_json() const;
};

/// Cumulative counters of one AlignService instance.  Externally
/// synchronized (the service updates them under its own mutex).
struct ServiceStats {
  // -- admission --------------------------------------------------------
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;      ///< backpressure: queue at capacity
  std::uint64_t rejected_closed = 0;    ///< submitted during shutdown
  std::uint64_t rejected_deadline = 0;  ///< expired before dispatch
  // -- completion -------------------------------------------------------
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      ///< node-program failure or divergence
  std::uint64_t recoveries = 0;  ///< failed jobs the pool absorbed
  // -- residency --------------------------------------------------------
  // Queries whose strategy reads the resident subject's DSM pages
  // (wavefront, blocked) only: blocked_mp and exact copy the subject out of
  // band, and a database's shards are read in place by their owners, so
  // those are neither warm nor cold.
  std::uint64_t warm_queries = 0;  ///< subject cached from an earlier query
  std::uint64_t cold_queries = 0;
  std::uint64_t cache_hits = 0;    ///< summed DSM cache hits of dispatches
  std::uint64_t read_faults = 0;   ///< summed DSM read faults of dispatches
  // -- queue ------------------------------------------------------------
  std::uint64_t depth_samples = 0;  ///< one sample per admission
  std::uint64_t depth_sum = 0;
  std::uint64_t depth_max = 0;
  // -- per-strategy dispatch counts (index = StrategyKind) ---------------
  std::array<std::uint64_t, kNumStrategies> by_strategy{};
  // -- kernel (v4) -------------------------------------------------------
  std::string kernel_backend;  ///< SIMD backend the kernels dispatched to
  // -- gap models (v6) ---------------------------------------------------
  std::uint64_t linear_queries = 0;  ///< completed with gap_open == 0
  std::uint64_t affine_queries = 0;  ///< completed with affine (Gotoh) gaps
  // -- database serving (v7) ---------------------------------------------
  std::uint64_t db_queries = 0;             ///< completed db scans
  std::uint64_t db_fragments_scanned = 0;   ///< fragments considered
  std::uint64_t db_fragments_rejected = 0;  ///< pruned by the q-gram bound
  std::uint64_t db_fragments_aligned = 0;   ///< survivors that reached DP
  std::uint64_t db_hits = 0;                ///< hits across all db scans

  LatencyHistogram total_latency;  ///< admission -> completion
  LatencyHistogram run_latency;    ///< dispatch -> completion

  obs::Json to_json() const;
};

}  // namespace gdsm::svc
