// The DSM cluster runner: SPMD programs over N simulated workstation nodes.
//
// Each node gets two threads: an *application* (engine) thread running the
// user's programs and a *service* thread standing in for JIAJIA's SIGIO
// handler, serving page fetches, diffs and lock/barrier/cv management for
// the ids it manages (id % n_nodes).
//
// The cluster is *persistent*: nodes and their threads are created once and
// survive across programs.  Programs ("jobs") are admitted one at a time
// through submit()/await(); between jobs the manager state is reset and
// each node's page cache is swept down to the clean frames of explicitly
// retained pages (retain_range), so a long-lived alignment service can keep
// a subject genome warm while every other page reverts to the cold-cache
// semantics of a fresh node.  A job that throws does not poison the pool:
// its peers are unwound by closing the reply boxes only, the boxes are
// drained and re-armed, and the next job is admitted as if the failure
// never happened (request ids are never reused, so a reply that raced the
// abort can only ever be dropped as stale).
//
// Global memory has two lifetimes.  alloc()/alloc_striped() give resident
// pages (a subject genome, database shards) that live as long as the
// cluster.  Per-call buffers come from scratch(): the holder rides along
// with submit(), and its pages return to the space's free pool right after
// the job's end-of-job sweep (finalize_job on threads, after
// Supervisor::run_job on process), failed jobs included.  A long-running
// service's global memory therefore stays bounded by its peak job.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dsm/config.h"
#include "dsm/global_space.h"
#include "dsm/manager.h"
#include "dsm/node.h"
#include "dsm/stats.h"
#include "net/transport.h"

namespace gdsm::dsm {

namespace proc {
class Supervisor;
}

class Cluster {
  struct Job;  // defined privately below; Ticket only carries a handle

 public:
  explicit Cluster(int n_nodes, DsmConfig cfg = {});
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int nodes() const noexcept { return n_nodes_; }
  const DsmConfig& config() const noexcept { return cfg_; }

  /// Host-side allocation (between jobs); same semantics as Node::alloc.
  GlobalAddr alloc(std::size_t bytes, int home = -1) {
    return space_.alloc(bytes, home);
  }
  GlobalAddr alloc_striped(std::size_t bytes) { return space_.alloc_striped(bytes); }

  /// A job-scoped holder for per-call buffers; hand it to submit().
  Scratch scratch() { return Scratch(space_); }

  /// Opaque handle to a submitted job; await() redeems it.
  class Ticket {
   public:
    Ticket() = default;
    explicit operator bool() const noexcept { return job_ != nullptr; }

   private:
    friend class Cluster;
    std::shared_ptr<Job> job_;
  };

  /// Enqueues `program` to run once on every node (SPMD).  Jobs execute
  /// strictly one at a time in submission order; the persistent node pool
  /// (threads, warm retained pages, cumulative traffic counters) carries
  /// over between them.  Lazily starts the engine on first use.  The job
  /// takes `scratch` over and releases its pages to the pool once its
  /// end-of-job cache sweep is done, before await() returns.
  Ticket submit(std::function<void(Node&)> program, Scratch scratch = {});

  /// What a finished job hands back to its submitter.
  struct JobResult {
    /// Per-node counters are per-job; traffic/fault counters cumulative.
    DsmStats stats;
    /// One payload per node, as its program passed it to Node::set_result
    /// (empty for a node that set none).
    std::vector<std::vector<std::byte>> results;
  };

  /// Blocks until the ticket's job has finished and returns its stats and
  /// node results.  Exceptions thrown by node programs are rethrown here:
  /// a single failure rethrows the original exception, multiple failures
  /// throw one aggregate std::runtime_error listing every culprit.  May be
  /// called at most once per ticket and from one thread.
  JobResult await(const Ticket& ticket);

  /// submit() + await(): runs `program` once on every node and joins.  May
  /// be called multiple times; manager state is reset between runs, traffic
  /// counters accumulate.  Exceptions thrown by any node program are
  /// rethrown here.
  void run(const std::function<void(Node&)>& program);

  /// Marks every page overlapping [addr, addr+bytes) as *resident*: the
  /// end-of-job sweep keeps their clean cached frames, so read-only data
  /// (an alignment service's subject genome) stays warm across jobs.
  /// After a failed job the frames are dropped anyway (cold restart) but
  /// the range stays marked and re-warms on the next touch.  Throws
  /// std::invalid_argument for scratch pages: a pooled page is reused, so
  /// its frames must never outlive its job.
  void retain_range(GlobalAddr addr, std::size_t bytes);

  /// Host-side write straight into the home copies (no coherence traffic).
  /// Only legal between jobs and only for ranges no node has cached — i.e.
  /// freshly allocated regions being seeded with service data.
  void host_write(GlobalAddr addr, const void* data, std::size_t bytes);

  /// Stops the engine after draining all queued jobs and joins every
  /// thread.  Idempotent; also run by the destructor.  submit() after
  /// stop() restarts the engine.
  void stop();

  /// Stats of the most recent job (node counters) plus cumulative traffic.
  DsmStats stats() const;

  /// Cumulative per-node wire traffic (the src/obs report hook; cheaper
  /// than stats() when only the transport picture is wanted).  Backed by
  /// the transport (threads) or the supervisor's router (process).
  std::vector<net::TrafficCounters> traffic_snapshot() const;

  GlobalSpace& space() noexcept { return space_; }

 private:
  friend class ThreadNode;

  /// One SPMD program moving through the engine.  All fields are guarded
  /// by jobs_mu_ except `program`, which is only read by engine threads
  /// after they claim the job.
  struct Job {
    std::function<void(Node&)> program;
    Scratch scratch;            ///< released right after the end-of-job sweep
    std::vector<char> started;  ///< per node: engine thread claimed it
    int finished = 0;           ///< engine threads done (success or failure)
    bool done = false;          ///< finalized; stats valid, safe to await
    std::exception_ptr first_error;
    std::vector<NodeFailure> failures;  ///< typed (node, kind, what)
    std::vector<NodeStats> stats;  ///< per-job node counters (take-and-zero)
    std::vector<std::vector<std::byte>> results;  ///< per node set_result()
  };

  void reset_manager_state();
  void service_loop(int node);
  std::uint64_t home_migrations() const;  ///< summed over the managers

  void ensure_started_locked();   ///< spawns threads; jobs_mu_ held
  void engine_loop(int node);     ///< persistent application thread
  void proc_engine_loop();        ///< process backend: job dispatcher
  void finalize_job(Job& job);    ///< last finisher; jobs_mu_ held
  void sync_service_threads();    ///< barrier: service boxes fully drained
  [[noreturn]] static void throw_failures(const Job& job);

  int n_nodes_;
  DsmConfig cfg_;
  GlobalSpace space_;
  net::Transport transport_;

  /// One protocol state machine per node, each touched only by that node's
  /// service thread (dsm/manager.h — shared with the process backend).
  std::vector<std::unique_ptr<ProtocolManager>> managers_;

  // --- persistent engine ----------------------------------------------
  mutable std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;  ///< engine threads: new job / stopping
  std::condition_variable done_cv_;  ///< awaiters and stop(): job finalized
  bool engine_running_ = false;
  bool stopping_ = false;
  std::shared_ptr<Job> current_;            ///< job being executed, if any
  std::deque<std::shared_ptr<Job>> queued_;
  std::vector<std::unique_ptr<ThreadNode>> nodes_;
  /// Process backend only: launcher + node 0 + router, persistent across
  /// jobs AND across stop() (like transport_/managers_, its cumulative
  /// traffic and home-migration counters survive engine restarts).
  std::unique_ptr<proc::Supervisor> supervisor_;
  std::vector<std::thread> service_threads_;
  std::vector<std::thread> engine_threads_;
  std::set<PageId> retained_pages_;  ///< survive the end-of-job cache sweep

  std::mutex sync_mu_;  ///< service-drain barrier (leaf lock)
  std::condition_variable sync_cv_;
  int sync_acks_ = 0;

  std::vector<NodeStats> last_run_stats_;
};

}  // namespace gdsm::dsm
