// Backend default resolution (GDSM_BACKEND): parsed once, explicit config
// assignments always win.
#include "dsm/backend.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gdsm::dsm {

namespace {

Backend env_default() {
  static const Backend resolved = [] {
    Backend pick = Backend::kThreads;
    if (const char* env = std::getenv("GDSM_BACKEND"); env != nullptr) {
      if (std::strcmp(env, "threads") == 0) {
        pick = Backend::kThreads;
      } else if (std::strcmp(env, "process") == 0) {
        pick = Backend::kProcess;
      } else {
        std::fprintf(stderr,
                     "gdsm: GDSM_BACKEND=%s unknown (threads|process), "
                     "using %s\n",
                     env, backend_name(pick));
      }
    }
    return pick;
  }();
  return resolved;
}

}  // namespace

Backend default_backend() noexcept { return env_default(); }

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kThreads: return "threads";
    case Backend::kProcess: return "process";
  }
  return "unknown";
}

}  // namespace gdsm::dsm
