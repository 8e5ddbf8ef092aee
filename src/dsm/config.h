// DSM system configuration, mirroring JIAJIA's tunables.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsm/backend.h"
#include "net/fault.h"

namespace gdsm::dsm {

/// Timeout/retry policy for a node's blocking protocol requests, the DSM
/// side of fault tolerance: when a reply does not arrive within the timeout,
/// idempotent requests (page fetch, diff) are retransmitted with linear
/// backoff; non-idempotent requests (locks, barriers, cvs, allocation) keep
/// waiting — the transport guarantees eventual delivery, the retry layer
/// only shortcuts *slow* paths.  Stale replies from superseded attempts are
/// matched by request id and dropped (NodeStats::stale_replies).
struct RetryPolicy {
  std::uint32_t timeout_us = 0;  ///< 0 = wait forever (retry layer off)
  std::uint32_t max_retries = 3; ///< resends per request before waiting it out
  std::uint32_t backoff_us = 200;///< timeout grows by this much per attempt
};

/// The DSM data plane's aggregation/pipelining knobs — the page-level
/// counterpart of the paper's block-aggregation lesson (§4.3): one exchange
/// per *batch* of pages instead of one blocking round-trip per page.
///
/// With everything off the node behaves bit-identically to the legacy
/// serial plane (one kGetPage per faulting page, one kDiff + ack per dirty
/// page), which is what the differential oracle compares against.  The
/// process-wide default comes from default_comm(), which honours
/// GDSM_COMM=legacy|batched|batched+prefetch once at first use; explicit
/// assignments in a DsmConfig always win over the environment.
struct CommConfig {
  /// Release-time diff propagation groups dirty pages by home node and
  /// ships one kDiffBatch per home, collecting the acks concurrently.
  bool batch_diffs = true;
  /// read_bytes spanning several uncached remote pages issues one kGetPages
  /// bulk fetch per home instead of one serial kGetPage fault per page.
  bool bulk_fetch = true;
  /// Sequential read-ahead depth: when a read fault extends a forward page
  /// scan, the next `prefetch_pages` pages are requested asynchronously so
  /// the fetch latency overlaps the caller's compute.  0 = off.
  std::uint32_t prefetch_pages = 0;
  /// Outstanding-request window for batched release acks and bulk fetches
  /// (send up to this many before the first reply must arrive).
  std::uint32_t max_outstanding = 8;
  /// Upper bound on pages carried by one kGetPages request (also caps the
  /// prefetch issue size); bounded by the page-cache capacity at use sites.
  std::uint32_t max_batch_pages = 64;

  friend bool operator==(const CommConfig&, const CommConfig&) = default;
};

/// The process-wide CommConfig defaults: CommConfig{} unless GDSM_COMM
/// forces a mode ("legacy" all-off, "batched" coalescing only,
/// "batched+prefetch" coalescing plus depth-4 read-ahead).  Parsed once;
/// unknown values warn on stderr and fall back to the built-in default.
CommConfig default_comm() noexcept;

/// Canonical mode name of a CommConfig ("legacy", "batched",
/// "batched+prefetch") — the string the run-report comm section carries.
const char* comm_mode_name(const CommConfig& comm) noexcept;

struct DsmConfig {
  /// Shared page size.  JIAJIA used the host VM page (4 KiB on the paper's
  /// Pentium II cluster).
  std::size_t page_bytes = 4096;

  /// Number of remote-page frames each node may cache ("there is a fixed
  /// number of remote pages that can be placed at the memory of a remote
  /// node; when this part of the memory is full, a replacement algorithm is
  /// executed").
  std::size_t cache_pages = 4096;

  /// Lock and condition-variable identifier spaces.  Managers are assigned
  /// id % n_nodes, as JIAJIA statically assigns each lock to a manager.
  int n_locks = 256;
  int n_cvs = 256;

  /// jia_config-style home migration, default OFF as JIAJIA sets all
  /// features at startup: at each barrier, a page written by exactly one
  /// node in the interval migrates its home to that writer, eliminating its
  /// future diffs.
  bool home_migration = false;

  /// Reply timeout/retry policy of the nodes (off by default).
  RetryPolicy retry{};

  /// Data-plane aggregation knobs; the default honours GDSM_COMM.
  CommConfig comm = default_comm();

  /// Simulated network misbehaviour of the cluster interconnect
  /// (net/fault.h); a default plan injects nothing.
  net::FaultPlan faults{};

  /// Execution backend; the default honours GDSM_BACKEND=threads|process
  /// (dsm/backend.h).  Both backends run the same protocol and must be
  /// bit-identical; "process" maps shared pages via shm_open/mmap and traps
  /// remote access with mprotect+SIGSEGV (src/dsm/proc).
  Backend backend = default_backend();

  /// Capacity of the process backend's shared data segment (the global
  /// space all nodes allocate from).  tmpfs backs it lazily, so a generous
  /// default costs only address space; alloc beyond it throws.  Ignored by
  /// the thread backend, which grows its heap-backed space on demand.
  std::size_t proc_space_bytes = 256ull << 20;
};

}  // namespace gdsm::dsm
