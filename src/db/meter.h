// Process-global database-pipeline counters, mirroring the kernel
// (simd::kernel_stats) and comm (dsm::comm_totals) metering pattern: every
// db_query / DbShards in the process accumulates here, and the run-report
// layer snapshots the totals into the run report's "db" section
// (obs/snapshots.h db_stats_json, docs/METRICS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gdsm::db {

struct DbMeterSnapshot {
  std::uint64_t queries = 0;             ///< db_query calls
  std::uint64_t fragments_scanned = 0;   ///< filtration bound evaluations
  std::uint64_t fragments_rejected = 0;  ///< discarded before any DP
  std::uint64_t fragments_aligned = 0;   ///< survivors fed to the kernels
  std::uint64_t hits = 0;                ///< fragments reported >= min_score
  std::uint64_t index_opens = 0;  ///< warm load_db via a persisted index
  /// Residency and work placement per cluster node, for the shard-balance
  /// picture: bases resident (summed over every DbShards built) and
  /// fragments aligned on each node.  Sized to the widest cluster seen.
  std::vector<std::uint64_t> node_bases;
  std::vector<std::uint64_t> node_aligned;

  double filtration_rate() const {
    return fragments_scanned == 0
               ? 0.0
               : static_cast<double>(fragments_rejected) /
                     static_cast<double>(fragments_scanned);
  }
};

DbMeterSnapshot db_meter_snapshot();

/// Accumulation hooks (db_align.cpp / service load path).
void db_meter_record_query(std::size_t scanned, std::size_t rejected,
                           std::size_t aligned, std::size_t hits,
                           const std::vector<std::uint64_t>& per_node_aligned);
void db_meter_record_shards(const std::vector<std::uint64_t>& per_node_bases);
/// One successful warm open of a persisted q-gram index (load path).
void db_meter_record_index_open();

}  // namespace gdsm::db
