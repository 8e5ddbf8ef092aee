// The process backend's launcher and data plane.
//
// The supervisor lives in the parent process, which doubles as node 0: its
// ProcNode (and the retained-page warmth in it), the node-0 ProtocolManager,
// the fault injector and the cumulative traffic counters all persist across
// jobs, mirroring the thread backend's persistent transport and managers.
// Nodes 1..n-1 are real OS processes fork()ed per job *before* any per-job
// parent thread starts (so no inherited mutex can be held mid-fork), each
// wired to the parent by one Unix-domain stream socketpair speaking the
// net::frame encoding.
//
// Message routing is star-shaped: every node (including node 0 and each
// child's service loop) hands its messages to the supervisor, which counts
// traffic by source, offers the message to the fault injector, and delivers
// it — into node 0's mailboxes directly, or framed onto the destination
// child's socket.  Per-child writes go through a dedicated writer thread
// draining an Outbox so the router never blocks on a full socket buffer;
// a dedicated reader thread per child demultiplexes the opposite direction
// (kMessage -> route, kResult/kDone/kDrained/kStats -> job control) and converts
// socket EOF into a node failure instead of a hang.
//
// Job lifecycle (mirrors Cluster::finalize_job):
//   fork children -> start reader/writer/service threads -> run node 0's
//   program on the calling thread -> await every kDone (a child that
//   succeeded sends its kResult payload first) -> injector drain ->
//   kStop drain markers (ack'd by kDrained) -> injector drain -> kHalt ->
//   children ship NodeStats and _exit(0) -> join/waitpid -> end_of_job.
// A failure anywhere (program exception, service error, child death) closes
// node 0's reply box and sends kAbort to every child; unwound requesters
// throw "reply box closed mid-request" and the job finishes with the
// failure list instead of hanging.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsm/config.h"
#include "dsm/global_space.h"
#include "dsm/manager.h"
#include "dsm/proc/proc_node.h"
#include "dsm/stats.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/mailbox.h"
#include "net/transport.h"

namespace gdsm::dsm::proc {

class Supervisor {
 public:
  /// Everything one job produced; the Cluster folds this into its Job.
  struct Outcome {
    std::vector<NodeFailure> failures;  ///< typed (node, kind, what)
    std::exception_ptr node0_error;  ///< node 0's original exception, if any
    std::vector<NodeStats> stats;    ///< per node; zeros for a dead child
    std::vector<std::vector<std::byte>> results;  ///< per node set_result()
  };

  Supervisor(int n_nodes, const DsmConfig& cfg, GlobalSpace& space);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Runs one SPMD job: node 0's instance on the calling thread, every other
  /// node in a fresh child process.  Serialized by the Cluster (one job at a
  /// time).  `retained` pages survive node 0's end-of-job sweep on success.
  Outcome run_job(const std::function<void(Node&)>& program,
                  const std::set<PageId>& retained);

  /// Cumulative per-source traffic (same counting rules as net::Transport).
  std::vector<net::TrafficCounters> traffic() const;
  net::FaultCounters fault_counters() const;
  std::uint64_t home_migrations() const noexcept {
    return manager0_->home_migrations();
  }

 private:
  /// Frames queued for one child's socket, drained by its writer thread —
  /// the router and the injector must never block on a socket write.
  struct Outbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<net::Frame> q;
    bool closed = false;

    void push(net::FrameKind kind, std::vector<std::byte> body);
    void close();
  };

  /// One child node's shell: persistent across jobs, per-job fields reset by
  /// run_job.  Flags are guarded by mu_.
  struct Child {
    int node = -1;
    pid_t pid = -1;
    int fd = -1;
    std::thread reader;
    std::thread writer;
    std::unique_ptr<Outbox> outbox;
    bool done = false;       ///< program finished (kDone) or process died
    bool drained = false;    ///< drain marker acknowledged (kDrained)
    bool got_stats = false;  ///< final NodeStats received (kStats)
    bool dead = false;       ///< socket EOF observed
    NodeStats stats;
    std::vector<std::byte> result;  ///< the program's kResult payload
  };

  struct NodeTraffic {
    std::array<std::atomic<std::uint64_t>, net::kNumMsgTypes> messages{};
    std::array<std::atomic<std::uint64_t>, net::kNumMsgTypes> bytes{};
  };

  /// Node 0's Plane: sends go straight to the router, replies come from the
  /// supervisor-owned reply mailbox.
  class ParentPlane final : public Plane {
   public:
    explicit ParentPlane(Supervisor& s) : s_(s) {}
    void send(net::Message msg) override { s_.route(std::move(msg)); }
    net::Mailbox& reply_box() override { return s_.reply0_; }

   private:
    Supervisor& s_;
  };

  /// Counts traffic by source, offers the message to the injector, delivers.
  /// Mirrors net::Transport::send exactly (src < 0 = control, uncounted and
  /// uninjected; self-sends injected but not counted).
  void route(net::Message msg);
  void deliver(net::Message msg);

  void service_loop0();          ///< node 0's protocol service (per job)
  void reader_loop(Child& c);    ///< child -> parent demux (per job)
  void writer_loop(Child& c);    ///< Outbox -> child socket (per job)

  void fail_locked(int node, net::ErrorKind kind, std::string what);
  /// Closes node 0's reply box and sends kAbort to every child; idempotent.
  void abort_locked();

  int n_nodes_;
  const DsmConfig cfg_;
  GlobalSpace& space_;

  ParentPlane plane0_{*this};
  net::Mailbox reply0_;
  net::Mailbox service0_;
  std::unique_ptr<ProcNode> node0_;
  std::unique_ptr<ProtocolManager> manager0_;
  std::unique_ptr<net::FaultInjector> injector_;  ///< null when plan is off

  std::vector<std::unique_ptr<Child>> children_;  ///< [0] unused (parent)
  std::vector<std::unique_ptr<NodeTraffic>> traffic_;
  std::atomic<std::uint64_t> bytes_sent_{0};      ///< parent-side socket out
  std::atomic<std::uint64_t> bytes_received_{0};  ///< parent-side socket in

  mutable std::mutex mu_;       ///< job state: flags, failures, abort
  std::condition_variable cv_;
  std::vector<NodeFailure> failures_;
  std::exception_ptr node0_error_;
  bool aborted_ = false;
  bool parent_drained_ = false;
  std::uint64_t peer_failures_ = 0;  ///< this job's observed peer deaths
};

}  // namespace gdsm::dsm::proc
