// Machine-readable run reports: the JSON counterpart of the ASCII tables
// every bench binary prints.
//
// A RunReport is one experiment execution: identity (experiment id, title),
// build provenance (git describe), the parameters the run was invoked with,
// flat scalar metrics, and named row series mirroring the human tables.
// The full schema is documented in docs/METRICS.md; kSchemaVersion is bumped
// whenever a field changes meaning, so downstream consumers (the perf
// trajectory in BENCH_baseline.json) can detect incompatible files.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/json.h"

namespace gdsm::obs {

/// Identifies the document layout described in docs/METRICS.md.
inline constexpr const char* kReportSchema = "gdsm.run_report";
/// v2: NodeStats gained the retry-layer counters (request_timeouts,
/// request_retries, stale_replies) and DsmStats/strategy snapshots gained
/// the injected-fault block ("faults": drops, retransmits, delays, ...).
/// v3: NodeStats gained cache_hits (page-cache residency) and service
/// reports emit the "service" section (admission, batching, latency
/// histograms — docs/SERVICE.md).
/// v4: every report carries the "kernel" section (active SIMD backend plus
/// per-kernel call/cell counters; throughput only under params.host_clock)
/// and NodeStats gained dp_cells — docs/KERNELS.md.
/// v5: every report carries the "comm" section (data-plane mode plus the
/// batched-plane and read-ahead counters) and NodeStats gained the same
/// per-node counters — docs/METRICS.md "comm".
/// v6: affine (Gotoh) gap support — the "kernel" section gained the
/// nw_affine counters and a "gap_models" object naming the gap models the
/// run dispatched; service reports add gap_models counters and benches that
/// sweep gap models carry a gap_model column in their series
/// (docs/METRICS.md "gap models", docs/ALGORITHMS.md).
/// v7: database serving — every report carries the "db" section (queries,
/// fragments scanned/rejected/aligned, filtration_rate, hits, and a
/// shard_balance object with per-node resident bases and aligned-fragment
/// counts — docs/METRICS.md "db", docs/SERVICE.md "Database serving").
/// v8: multi-process DSM backend — every report carries the "dsm" section
/// (backend: "threads"|"process", plus the process-backend totals:
/// peer_failures, segv_faults, pages_mapped/protected, twins_created,
/// socket bytes) and NodeStats gained the same per-node counters
/// (docs/METRICS.md "dsm", DESIGN.md "Process backend").
/// v9: striped query-profile kernels — the "kernel" section gained a
/// "striped" object (8/16-bit sweep and cell counts, overflow re-runs,
/// 32-bit fallbacks, delegated blocks, query-profile cache builds/hits) and
/// the backend vocabulary grew the striped-* names
/// (docs/METRICS.md "kernel.striped", docs/KERNELS.md "Striped
/// query-profile kernels").
/// v10: cascaded seed-and-extend db scan — the "db" section gained
/// fragments_resolved and a "cascade" object (seeds, chains, extensions,
/// dp_skipped_by_bound, dp_confirmed and a persisted-index open count)
/// covering the certified middle stage and the persisted mmap q-gram index
/// (removed again in v13).
/// v11: one DSM data plane — the "comm" section lost "mode" and the
/// read-ahead counters (NodeStats too), and the persisted-index open count
/// moved out of the per-query cascade funnel to "db.index_opens".  Tools
/// accept the current version only (docs/METRICS.md v11).
/// v12: one dispatch per query — the "service" section lost its
/// "batching" object, and residency.warm_queries/cold_queries count subject
/// queries only: database scans are neither (docs/METRICS.md v12).
/// v13: the seed-and-extend cascade is gone — the "db" section lost
/// "cascade" (its dp_confirmed always equalled "db.hits") and the service's
/// fragments_resolved; the "kernel" section gained the "batch" counters of
/// the inter-sequence kernel; residency.warm_queries/cold_queries count
/// only queries that read the subject's DSM pages (wavefront, blocked)
/// (docs/METRICS.md v13).
inline constexpr int kSchemaVersion = 13;

/// Schema of the merged baseline produced by tools/merge_reports.
inline constexpr const char* kBaselineSchema = "gdsm.baseline";

/// `git describe --always --dirty` of the tree this binary was configured
/// from ("unknown" outside a git checkout).  Captured at CMake configure
/// time; re-run cmake after committing to refresh it.
const char* build_version() noexcept;

/// Flat name -> scalar metric store.  Names use dotted lower_snake paths
/// ("phase1.total_s"); units are part of the name suffix (docs/METRICS.md).
class MetricsRegistry {
 public:
  void set(const std::string& name, Json value);
  /// Accumulates onto an existing numeric metric (0 if absent).
  void add(const std::string& name, double delta);
  bool has(const std::string& name) const { return values_.has(name); }

  /// Insertion-ordered {name: value} object.
  const Json& to_json() const { return values_; }

 private:
  Json values_ = Json::object();
};

class RunReport {
 public:
  /// `experiment` is the stable machine id (the bench binary's name);
  /// `title` is the human table caption.
  RunReport(std::string experiment, std::string title);

  const std::string& experiment() const noexcept { return experiment_; }

  /// Invocation parameter (sequence size, processor counts, ...).
  void set_param(const std::string& key, Json value);

  MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Appends one row to the named series (creating it on first use).
  /// Rows must be objects; series mirror the bench's printed tables.
  void add_row(const std::string& series, Json row);

  /// Attaches a named free-form section (environment snapshots, notes).
  void set_section(const std::string& name, Json value);

  /// The full schema-versioned document.
  Json to_json() const;

  void write(std::ostream& out) const;
  /// Writes the document to `path`; returns false (and reports on stderr)
  /// when the file cannot be written.
  bool write_file(const std::string& path) const;

 private:
  std::string experiment_;
  std::string title_;
  Json params_ = Json::object();
  MetricsRegistry metrics_;
  Json series_ = Json::object();
  Json sections_ = Json::object();
};

}  // namespace gdsm::obs
