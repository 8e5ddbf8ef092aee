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
