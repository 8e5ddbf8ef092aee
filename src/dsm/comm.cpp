// The process-wide comm totals that feed the run-report "comm" and "dsm"
// sections.
#include <mutex>

#include "dsm/stats.h"

namespace gdsm::dsm {

namespace {

// The process-backend counters are accounted by the supervisor when it
// folds child stats back in, so the run report sees them even though they
// were incurred in other address spaces.
std::mutex g_mu;
NodeStats g_totals;

}  // namespace

void account_comm_totals(const NodeStats& per_job) noexcept {
  const std::scoped_lock guard(g_mu);
  g_totals += per_job;
}

NodeStats comm_totals() noexcept {
  const std::scoped_lock guard(g_mu);
  return g_totals;
}

}  // namespace gdsm::dsm
