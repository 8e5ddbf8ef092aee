// Protocol activity counters, per node and cluster-wide.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/backend.h"
#include "net/frame.h"
#include "net/transport.h"

namespace gdsm::dsm {

/// One node program's failure, with the exception taxonomy preserved across
/// backends: thread-backend failures classify the live exception object,
/// process-backend failures carry the ErrorKind tag of the child's kDone
/// frame (net::make_error rebuilds the typed exception parent-side).
struct NodeFailure {
  int node = -1;
  net::ErrorKind kind = net::ErrorKind::kRuntime;
  std::string what;
};

struct NodeStats {
  std::uint64_t read_faults = 0;    ///< remote page fetches
  std::uint64_t cache_hits = 0;     ///< remote-page accesses served from the
                                    ///< local page cache (v3; the residency
                                    ///< signal of the alignment service)
  std::uint64_t write_faults = 0;   ///< twin creations (first write to a page)
  std::uint64_t diffs_sent = 0;
  std::uint64_t diff_bytes = 0;     ///< payload bytes of diffs
  std::uint64_t invalidations = 0;  ///< pages dropped due to write notices
  std::uint64_t evictions = 0;      ///< frames evicted by the replacement policy
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_releases = 0;
  std::uint64_t barriers = 0;
  std::uint64_t cv_signals = 0;
  std::uint64_t cv_waits = 0;
  std::uint64_t request_timeouts = 0;  ///< reply waits that hit the timeout
  std::uint64_t request_retries = 0;   ///< idempotent requests retransmitted
  std::uint64_t stale_replies = 0;     ///< superseded replies dropped by id
  std::uint64_t dp_cells = 0;  ///< DP cell updates this node pushed through
                               ///< the dispatched kernels (v4; attributes
                               ///< compute volume to the strategy loops)

  // -- batched data plane (v5; see docs/METRICS.md "comm" section) ---------
  std::uint64_t diff_batches_sent = 0;   ///< kDiffBatch messages sent
  std::uint64_t diff_pages_batched = 0;  ///< dirty pages carried by batches
  std::uint64_t bulk_fetches = 0;        ///< kGetPages demand requests sent
  std::uint64_t bulk_pages_fetched = 0;  ///< pages carried by bulk fetches
  std::uint64_t empty_diffs_suppressed = 0;  ///< no-op diff round-trips skipped

  // -- process backend (v8; see docs/METRICS.md "dsm" section) -------------
  std::uint64_t peer_failures = 0;   ///< remote-peer deaths observed (socket
                                     ///< EOF/ECONNRESET/EPIPE, child exit)
  std::uint64_t segv_faults = 0;     ///< SIGSEGV traps taken by the handler
  std::uint64_t pages_mapped = 0;    ///< cache pages made readable by a fault
  std::uint64_t pages_protected = 0; ///< pages downgraded back to PROT_NONE
  std::uint64_t twins_created = 0;   ///< write-fault twin copies made
  std::uint64_t socket_bytes_sent = 0;      ///< data-plane socket traffic out
  std::uint64_t socket_bytes_received = 0;  ///< data-plane socket traffic in

  // -- cv grants (v14; see docs/METRICS.md "comm" section) -----------------
  std::uint64_t grant_pages = 0;  ///< pages installed from a kCvGrant (each
                                  ///< also counts one read_faults)

  NodeStats& operator+=(const NodeStats& o) noexcept {
    read_faults += o.read_faults;
    cache_hits += o.cache_hits;
    write_faults += o.write_faults;
    diffs_sent += o.diffs_sent;
    diff_bytes += o.diff_bytes;
    invalidations += o.invalidations;
    evictions += o.evictions;
    lock_acquires += o.lock_acquires;
    lock_releases += o.lock_releases;
    barriers += o.barriers;
    cv_signals += o.cv_signals;
    cv_waits += o.cv_waits;
    request_timeouts += o.request_timeouts;
    request_retries += o.request_retries;
    stale_replies += o.stale_replies;
    dp_cells += o.dp_cells;
    diff_batches_sent += o.diff_batches_sent;
    diff_pages_batched += o.diff_pages_batched;
    bulk_fetches += o.bulk_fetches;
    bulk_pages_fetched += o.bulk_pages_fetched;
    empty_diffs_suppressed += o.empty_diffs_suppressed;
    peer_failures += o.peer_failures;
    segv_faults += o.segv_faults;
    pages_mapped += o.pages_mapped;
    pages_protected += o.pages_protected;
    twins_created += o.twins_created;
    socket_bytes_sent += o.socket_bytes_sent;
    socket_bytes_received += o.socket_bytes_received;
    grant_pages += o.grant_pages;
    return *this;
  }

  /// Round-trips the batched plane saves over one exchange per page: extra
  /// pages riding an already-paid batch/bulk exchange, and suppressed empty
  /// diffs.
  std::uint64_t round_trips_saved() const noexcept {
    const std::uint64_t diff_saved =
        diff_pages_batched > diff_batches_sent
            ? diff_pages_batched - diff_batches_sent : 0;
    const std::uint64_t bulk_saved =
        bulk_pages_fetched > bulk_fetches
            ? bulk_pages_fetched - bulk_fetches : 0;
    return diff_saved + bulk_saved + empty_diffs_suppressed;
  }
};

struct DsmStats {
  Backend backend = Backend::kThreads;           ///< which backend ran the job
  std::vector<NodeStats> node;                   ///< per application node
  std::vector<net::TrafficCounters> traffic;     ///< per node, messages sent
  std::uint64_t home_migrations = 0;             ///< pages whose home moved
  net::FaultCounters faults;                     ///< injected-fault activity
  NodeStats total_node() const {
    NodeStats t;
    for (const auto& n : node) t += n;
    return t;
  }
  net::TrafficCounters total_traffic() const {
    net::TrafficCounters t;
    for (const auto& c : traffic) t += c;
    return t;
  }
};

/// Process-wide accumulation of the data-plane counters, mirroring the
/// simd kernel meters: every Node folds its per-job counters in at
/// end_of_job, and the run-report "comm" section snapshots the totals
/// (obs::comm_stats_json).  All functions are thread-safe.
void account_comm_totals(const NodeStats& per_job) noexcept;
NodeStats comm_totals() noexcept;

}  // namespace gdsm::dsm
