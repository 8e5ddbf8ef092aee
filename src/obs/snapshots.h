// Json snapshots of the runtime counters the rest of the system already
// keeps: DSM protocol activity (dsm::NodeStats/DsmStats), per-message-type
// wire traffic (net::TrafficCounters), simulator time breakdowns
// (sim::Breakdown), and shared-space usage (dsm::GlobalSpace).
//
// Field names and units are part of the report schema — see docs/METRICS.md
// before renaming anything here.
#pragma once

#include "dsm/global_space.h"
#include "dsm/stats.h"
#include "net/transport.h"
#include "obs/json.h"
#include "sim/engine.h"

namespace gdsm::obs {

/// {messages, bytes, by_type: {GETPAGE: {messages, bytes}, ...}}.
/// Message types with zero traffic are omitted from by_type.
Json to_json(const net::TrafficCounters& tc);

/// Every FaultCounters counter, verbatim (faulted_messages, drops, ...).
Json to_json(const net::FaultCounters& fc);

/// Every NodeStats counter, verbatim (read_faults, write_faults, ...).
Json to_json(const dsm::NodeStats& ns);

/// {nodes: [NodeStats...], traffic: [TrafficCounters...], totals: {...},
///  home_migrations} — the per-node protocol picture of one Cluster run.
Json to_json(const dsm::DsmStats& stats);

/// {computation_s, communication_s, lock_cv_s, barrier_s, io_s, total_s} —
/// the Fig. 10 categories, in simulated seconds.
Json to_json(const sim::Breakdown& bd);

/// {pages, pages_free, bytes, page_bytes, pages_per_node} of the
/// cluster-wide shared address space: `pages` counts every page ever
/// allocated, `pages_free` the released job scratch pooled among them
/// (home distribution reflects migration).
Json space_usage_json(const dsm::GlobalSpace& space);

/// {backend, best: {calls, cells[, seconds, cells_per_second]}, count: ...,
/// hits: ..., nw: ..., nw_affine: ..., batch: ...} — the dispatched-kernel counters since process start
/// (simd::kernel_stats()).  Timing fields are emitted only when
/// `host_clock` is true: call counts and cell totals replay
/// deterministically, wall-clock inside the kernels does not.
Json kernel_stats_json(bool host_clock);

/// {diff_batches_sent, diff_pages_batched, bulk_fetches, bulk_pages_fetched,
/// empty_diffs_suppressed, grant_pages, round_trips_saved} — the batched
/// data-plane totals since process start (dsm::comm_totals()).
Json comm_stats_json();

/// {queries, fragments_scanned, fragments_rejected, fragments_aligned,
/// filtration_rate, hits, index_opens,
/// shard_balance: {node_bases: [...],
/// node_aligned: [...]}} — the database-serving totals since process start
/// (db::db_meter_snapshot()): how many fragments the q-gram filter rejected
/// before DP and how evenly the sharded scan spread over the cluster.
Json db_stats_json();

/// {backend, peer_failures, segv_faults, pages_mapped, pages_protected,
/// twins_created, socket_bytes_sent, socket_bytes_received} — the DSM
/// execution backend the process defaults to (GDSM_BACKEND) plus the
/// process-backend totals since process start (dsm::comm_totals(); all
/// zero under the thread backend).
Json dsm_backend_json();

}  // namespace gdsm::obs
