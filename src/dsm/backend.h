// DSM execution-backend selection: threads (in-process, the original) vs
// process (fork + shm_open/mmap pages + mprotect/SIGSEGV fault traps + a
// Unix-domain-socket data plane — src/dsm/proc).
//
// Both backends run the same protocol code (dsm::Node) and must produce
// bit-identical alignment results; the differential oracle and the fault
// plans gate the process backend.  The environment variable only seeds the
// *default* — an explicit DsmConfig::backend assignment always wins.
#pragma once

namespace gdsm::dsm {

enum class Backend {
  kThreads,  ///< one engine + service thread pair per node, shared heap
  kProcess,  ///< one OS process per node, shm segments, fetch-on-fault
};

/// The process-wide default backend: Backend::kThreads unless
/// GDSM_BACKEND=threads|process overrides it.  Parsed once at first use;
/// unknown values warn on stderr and fall back to threads.
Backend default_backend() noexcept;

/// Canonical name ("threads", "process") — carried by the run-report
/// dsm.backend field (schema v8).
const char* backend_name(Backend backend) noexcept;

}  // namespace gdsm::dsm
