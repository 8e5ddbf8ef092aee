// The DSM backends a test can run on in this build.
//
// ThreadSanitizer refuses to start threads in a child forked from a
// multi-threaded process, so the process backend cannot run under it: TSan
// builds cover the thread backend, and the Release build plus the
// proc_smoke CI stage cover the process backend.
#pragma once

#include <vector>

#include "dsm/backend.h"

namespace gdsm::dsm {

#if defined(__SANITIZE_THREAD__)
inline constexpr bool kProcessBackendRuns = false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kProcessBackendRuns = false;
#else
inline constexpr bool kProcessBackendRuns = true;
#endif
#else
inline constexpr bool kProcessBackendRuns = true;
#endif

inline std::vector<Backend> testable_backends() {
  if (kProcessBackendRuns) return {Backend::kThreads, Backend::kProcess};
  return {Backend::kThreads};
}

}  // namespace gdsm::dsm
