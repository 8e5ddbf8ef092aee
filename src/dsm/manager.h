// The service-side protocol state machine of one node: page serving, diff
// application, lock/barrier/cv management for the ids this node manages
// (id % n_nodes), and node-0 allocation.
//
// Extracted from Cluster so both backends run the identical code: the
// thread backend gives each node's service thread a ProtocolManager wired
// to the in-process transport; the process backend (src/dsm/proc)
// instantiates the same class inside each node process, wired to the
// socket plane.  A ProtocolManager is single-threaded by construction —
// only the owning node's service loop calls handle_message — which is the
// same discipline the Cluster members had ("each element is touched only
// by the service thread of its managing node").
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "dsm/global_space.h"
#include "net/message.h"

namespace gdsm::dsm {

class ProtocolManager {
 public:
  /// How this manager emits protocol messages (grants, replies, acks).
  using SendFn = std::function<void(net::Message)>;

  /// `node` is the managing node's id; it serves lock/cv ids with
  /// id % n_nodes == node, the barrier iff node == 0, and kAllocate iff
  /// node == 0.  `home_migration` enables the barrier-time migration policy.
  ProtocolManager(int node, int n_nodes, int n_locks, int n_cvs,
                  bool home_migration, GlobalSpace& space, SendFn send);

  /// Clears all lock/cv/barrier state (between jobs).  Home-migration
  /// totals survive — they are cumulative like the traffic counters.
  void reset();

  /// Serves one protocol message addressed to this node's service box.
  void handle_message(net::Message msg);

  /// Pages whose home this manager migrated (nonzero only at node 0).
  std::uint64_t home_migrations() const noexcept {
    return home_migrations_.load(std::memory_order_relaxed);
  }

 private:
  /// A node blocked in a request, remembered with the request id its grant
  /// must echo (replies are matched by id on the requester side, so retried
  /// requests cannot be satisfied by a stale reply).
  struct Waiter {
    int node = -1;
    std::uint64_t req_id = 0;
  };
  struct LockState {
    bool held = false;
    int holder = -1;
    std::deque<Waiter> waiting;
    std::vector<PageId> notice_log;
    std::vector<std::size_t> last_seen;  // per node, index into notice_log
  };
  struct CvState {
    int count = 0;
    std::deque<Waiter> waiters;
    std::vector<PageId> pending_notices;
  };
  struct BarrierState {
    int arrived = 0;
    std::vector<std::uint64_t> arrival_req;  // per node, echoed in the grant
    std::vector<PageId> notices;
    /// page -> single writer this interval, or -1 once multiple nodes wrote
    /// it (used by the home-migration policy).
    std::map<PageId, int> writers;
  };

  void grant_lock(int lock_id, const Waiter& to);
  /// Grants cv `cv_id` to `to` with the cv's pending write notices, plus
  /// the current contents of up to Node::kMaxBatchPages noticed pages homed
  /// at this manager (wire::decode_cv_grant); clears the notices.
  void grant_cv(int cv_id, const Waiter& to);

  int node_;
  int n_nodes_;
  bool home_migration_;
  GlobalSpace& space_;
  SendFn send_;

  std::vector<LockState> locks_;  // [lock_id / n_nodes]
  std::vector<CvState> cvs_;      // [cv_id / n_nodes]
  BarrierState barrier_;          // used only when node_ == 0
  /// Atomic because stats() readers race the node-0 service thread.
  std::atomic<std::uint64_t> home_migrations_{0};
};

}  // namespace gdsm::dsm
