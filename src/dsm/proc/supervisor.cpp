#include "dsm/proc/supervisor.h"

#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <type_traits>
#include <utility>

#include "dsm/proc/fault.h"

namespace gdsm::dsm::proc {

namespace {

/// Frame overhead on the wire: u32 body_len + u8 kind.
constexpr std::size_t kFrameOverhead = 5;

/// Socket bytes of a kMessage frame (fixed 38-byte message body header).
std::size_t message_frame_bytes(const net::Message& msg) {
  return kFrameOverhead + 38 + msg.payload.size();
}

// ---------------------------------------------------------------------------
// Child-process side.

/// A child node's communication surface: everything goes over the one
/// socket to the supervisor (even self-addressed messages — the parent
/// routes them back, keeping injection and counting uniform across
/// backends).  The application thread and the service thread both write, so
/// frames are serialized by a mutex.
class ChildPlane final : public Plane {
 public:
  explicit ChildPlane(int fd) : fd_(fd) {}

  void send(net::Message msg) override {
    const std::size_t n = message_frame_bytes(msg);
    const std::scoped_lock guard(write_mu_);
    net::write_message_frame(fd_, msg);
    bytes_sent_.fetch_add(n, std::memory_order_relaxed);
  }

  net::Mailbox& reply_box() override { return reply_; }

  void write_control(net::FrameKind kind, const std::byte* body,
                     std::size_t len) {
    const std::scoped_lock guard(write_mu_);
    net::write_frame(fd_, kind, body, len);
    bytes_sent_.fetch_add(kFrameOverhead + len, std::memory_order_relaxed);
  }

  net::Mailbox reply_;
  net::Mailbox service_;
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};

 private:
  int fd_;
  std::mutex write_mu_;
};

/// A helper thread of a forked node process, run on a stack the child maps
/// itself.  In a forked child, glibc's thread-stack cache holds the stacks
/// of the parent's other threads — the submitter's among them — and a
/// std::thread would reuse one, overwriting the frame that the node
/// program's by-reference captures point into.
class ChildThread {
 public:
  /// A child that cannot start its helpers cannot serve: it exits, and the
  /// parent sees the EOF as a peer failure.
  explicit ChildThread(std::function<void()> body) : body_(std::move(body)) {
    stack_ = ::mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (stack_ == MAP_FAILED) ::_exit(1);
    ::mprotect(stack_, kGuardBytes, PROT_NONE);  // overflow faults, not
                                                 // corrupts
    pthread_attr_t attr;
    ::pthread_attr_init(&attr);
    ::pthread_attr_setstack(&attr, stack_, kStackBytes);
    const int rc = ::pthread_create(&tid_, &attr, &ChildThread::run, this);
    ::pthread_attr_destroy(&attr);
    if (rc != 0) ::_exit(1);
  }
  ~ChildThread() {
    ::pthread_join(tid_, nullptr);
    ::munmap(stack_, kStackBytes);
  }
  ChildThread(const ChildThread&) = delete;
  ChildThread& operator=(const ChildThread&) = delete;

 private:
  static constexpr std::size_t kStackBytes = 8u << 20;
  static constexpr std::size_t kGuardBytes = 64u << 10;
  static void* run(void* self) {
    static_cast<ChildThread*>(self)->body_();
    return nullptr;
  }

  std::function<void()> body_;
  void* stack_ = nullptr;
  pthread_t tid_{};
};

/// Entry point of a forked node process.  Three threads, mirroring one
/// node's slice of the thread backend: a demux thread (the socket stand-in
/// for the transport's deliver), a service thread (protocol manager), and
/// the application on the main thread.  Exits via _exit — the parent's
/// C++/at-exit state must not run twice.
[[noreturn]] void child_main(int node, int fd, int n_nodes,
                             const DsmConfig& cfg, GlobalSpace& space,
                             const std::function<void(Node&)>& program) {
  // Die with the supervisor: an orphaned node process must never outlive
  // the test/benchmark that spawned it.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  install_fault_handler();

  ChildPlane plane(fd);
  ProcNode node_obj(node, n_nodes, cfg, space, plane);
  ProtocolManager manager(
      node, n_nodes, cfg.n_locks, cfg.n_cvs, cfg.home_migration, space,
      [&plane](net::Message m) { plane.send(std::move(m)); });

  std::mutex halt_mu;
  std::condition_variable halt_cv;
  bool halted = false;

  // kDone body: empty = success, otherwise the typed failure encoding —
  // the parent rebuilds the exception type from the kind tag.
  std::vector<std::byte> done_body;
  {  // the helper threads' scope: leaving it joins service, then demux
    ChildThread demux([&] {
      try {
        for (;;) {
          auto f = net::read_frame(fd);
          if (!f) ::_exit(1);  // supervisor vanished
          plane.bytes_received_.fetch_add(kFrameOverhead + f->body.size(),
                                          std::memory_order_relaxed);
          switch (f->kind) {
            case net::FrameKind::kMessage: {
              net::Message m = net::decode_message(f->body);
              if (m.to_reply_box) {
                plane.reply_.push(std::move(m));
              } else {
                plane.service_.push(std::move(m));
              }
              break;
            }
            case net::FrameKind::kAbort:
              // Unwind: blocked requesters throw, exactly as the thread
              // backend's abort_requests().
              plane.reply_.close();
              break;
            case net::FrameKind::kHalt: {
              net::Message stop;
              stop.src = -1;
              stop.dst = node;
              stop.type = net::MsgType::kStop;
              stop.a = 0;
              plane.service_.push(std::move(stop));
              {
                const std::scoped_lock guard(halt_mu);
                halted = true;
              }
              halt_cv.notify_all();
              return;
            }
            default:
              break;
          }
        }
      } catch (...) {
        ::_exit(1);  // torn frame or read error: the parent sees EOF
      }
    });

    ChildThread service([&] {
      while (auto msg = plane.service_.pop()) {
        if (msg->type == net::MsgType::kStop) {
          if (msg->a == 0) break;
          // Drain marker: everything queued before it has been handled.
          plane.write_control(net::FrameKind::kDrained, nullptr, 0);
          continue;
        }
        try {
          manager.handle_message(*std::move(msg));
        } catch (const std::exception& e) {
          // A service failure (e.g. malformed diff) fails the job but keeps
          // this loop serving so the drain handshake still completes.
          const std::vector<std::byte> body = net::encode_error_body(
              net::classify_error(e), std::string("DSM service: ") + e.what());
          plane.write_control(net::FrameKind::kDone, body.data(), body.size());
        }
      }
    });

    set_thread_fault_sink(&node_obj);
    try {
      program(node_obj);
      // The result rides its own frame ahead of the success kDone, so the
      // parent holds it by the time it sees this node done.
      const std::vector<std::byte> result = node_obj.take_result();
      plane.write_control(net::FrameKind::kResult, result.data(),
                          result.size());
    } catch (const std::exception& e) {
      done_body = net::encode_error_body(net::classify_error(e), e.what());
    } catch (...) {
      done_body =
          net::encode_error_body(net::ErrorKind::kUnknown, "unknown exception");
    }
    set_thread_fault_sink(nullptr);
    plane.write_control(net::FrameKind::kDone, done_body.data(),
                        done_body.size());

    {
      std::unique_lock<std::mutex> lk(halt_mu);
      halt_cv.wait(lk, [&] { return halted; });
    }
  }

  NodeStats stats = node_obj.end_of_job({});
  stats.socket_bytes_sent = plane.bytes_sent_.load(std::memory_order_relaxed);
  stats.socket_bytes_received =
      plane.bytes_received_.load(std::memory_order_relaxed);
  static_assert(std::is_trivially_copyable_v<NodeStats>,
                "NodeStats crosses the process boundary as raw bytes");
  plane.write_control(net::FrameKind::kStats,
                      reinterpret_cast<const std::byte*>(&stats),
                      sizeof(stats));
  ::_exit(0);
}

}  // namespace

// ---------------------------------------------------------------------------
// Outbox.

void Supervisor::Outbox::push(net::FrameKind kind,
                              std::vector<std::byte> body) {
  {
    const std::scoped_lock guard(mu);
    if (closed) return;
    net::Frame f;
    f.kind = kind;
    f.body = std::move(body);
    q.push_back(std::move(f));
  }
  cv.notify_one();
}

void Supervisor::Outbox::close() {
  {
    const std::scoped_lock guard(mu);
    closed = true;
  }
  cv.notify_all();
}

// ---------------------------------------------------------------------------
// Supervisor.

Supervisor::Supervisor(int n_nodes, const DsmConfig& cfg, GlobalSpace& space)
    : n_nodes_(n_nodes), cfg_(cfg), space_(space) {
  install_fault_handler();
  traffic_.reserve(static_cast<std::size_t>(n_nodes));
  for (int i = 0; i < n_nodes; ++i) {
    traffic_.push_back(std::make_unique<NodeTraffic>());
  }
  children_.resize(static_cast<std::size_t>(n_nodes));
  for (int i = 1; i < n_nodes; ++i) {
    children_[static_cast<std::size_t>(i)] = std::make_unique<Child>();
    children_[static_cast<std::size_t>(i)]->node = i;
  }
  node0_ = std::make_unique<ProcNode>(0, n_nodes, cfg_, space, plane0_);
  manager0_ = std::make_unique<ProtocolManager>(
      0, n_nodes, cfg_.n_locks, cfg_.n_cvs, cfg_.home_migration, space,
      [this](net::Message m) { route(std::move(m)); });
  if (cfg_.faults.enabled()) {
    injector_ = std::make_unique<net::FaultInjector>(
        cfg_.faults, n_nodes, [this](net::Message m) { deliver(std::move(m)); });
  }
}

Supervisor::~Supervisor() = default;

void Supervisor::route(net::Message msg) {
  if (msg.src >= 0 && msg.src != msg.dst) {
    NodeTraffic& t = *traffic_[static_cast<std::size_t>(msg.src)];
    const auto ti = static_cast<std::size_t>(msg.type);
    t.messages[ti].fetch_add(1, std::memory_order_relaxed);
    t.bytes[ti].fetch_add(msg.wire_size(), std::memory_order_relaxed);
  }
  if (injector_ && msg.src >= 0 && msg.type != net::MsgType::kStop) {
    if (injector_->submit(msg)) return;  // delivered later by the injector
  }
  deliver(std::move(msg));
}

void Supervisor::deliver(net::Message msg) {
  if (msg.dst == 0) {
    if (msg.to_reply_box) {
      reply0_.push(std::move(msg));
    } else {
      service0_.push(std::move(msg));
    }
    return;
  }
  Child& c = *children_[static_cast<std::size_t>(msg.dst)];
  if (c.outbox) {
    c.outbox->push(net::FrameKind::kMessage, net::encode_message(msg));
  }
}

void Supervisor::service_loop0() {
  while (auto msg = service0_.pop()) {
    if (msg->type == net::MsgType::kStop) {
      if (msg->a == 0) break;
      {
        const std::scoped_lock guard(mu_);
        parent_drained_ = true;
      }
      cv_.notify_all();
      continue;
    }
    try {
      manager0_->handle_message(*std::move(msg));
    } catch (const std::exception& e) {
      // e.g. placed-mode allocation exhaustion in kAllocate: fail the job
      // and unblock the requester (whose reply will never come) via abort.
      {
        const std::scoped_lock guard(mu_);
        fail_locked(0, net::classify_error(e),
                    std::string("DSM service: ") + e.what());
        abort_locked();
      }
      cv_.notify_all();
    }
  }
}

void Supervisor::writer_loop(Child& c) {
  Outbox& ob = *c.outbox;
  for (;;) {
    net::Frame f;
    {
      std::unique_lock<std::mutex> lk(ob.mu);
      ob.cv.wait(lk, [&] { return ob.closed || !ob.q.empty(); });
      if (ob.q.empty()) return;  // closed and drained
      f = std::move(ob.q.front());
      ob.q.pop_front();
    }
    try {
      net::write_frame(c.fd, f.kind, f.body.data(), f.body.size());
      bytes_sent_.fetch_add(kFrameOverhead + f.body.size(),
                            std::memory_order_relaxed);
    } catch (...) {
      return;  // EPIPE: the reader's EOF path reports the death
    }
  }
}

void Supervisor::reader_loop(Child& c) {
  try {
    for (;;) {
      auto f = net::read_frame(c.fd);
      if (!f) break;  // clean EOF
      bytes_received_.fetch_add(kFrameOverhead + f->body.size(),
                                std::memory_order_relaxed);
      switch (f->kind) {
        case net::FrameKind::kMessage:
          route(net::decode_message(f->body));
          break;
        case net::FrameKind::kDone: {
          const bool failed = !f->body.empty();
          auto [kind, what] =
              net::decode_error_body(f->body.data(), f->body.size());
          {
            const std::scoped_lock guard(mu_);
            c.done = true;
            if (failed) {
              fail_locked(c.node, kind, std::move(what));
              abort_locked();
            }
          }
          cv_.notify_all();
          break;
        }
        case net::FrameKind::kResult: {
          const std::scoped_lock guard(mu_);
          c.result = std::move(f->body);
          break;
        }
        case net::FrameKind::kDrained:
          {
            const std::scoped_lock guard(mu_);
            c.drained = true;
          }
          cv_.notify_all();
          break;
        case net::FrameKind::kStats:
          if (f->body.size() == sizeof(NodeStats)) {
            std::memcpy(&c.stats, f->body.data(), sizeof(NodeStats));
            {
              const std::scoped_lock guard(mu_);
              c.got_stats = true;
            }
            cv_.notify_all();
          }
          break;
        default:
          break;
      }
    }
  } catch (...) {
    // Torn frame / ECONNRESET: same as EOF — the peer is gone.
  }
  {
    const std::scoped_lock guard(mu_);
    c.dead = true;
    if (!c.got_stats) {
      // EOF without the final stats frame: the process died rather than
      // completing the shutdown handshake.  Surface it as a node failure
      // and unwind everyone who might be waiting on this peer.
      ++peer_failures_;
      if (!c.done) {
        fail_locked(c.node, net::ErrorKind::kSystem,
                    "node process " + std::to_string(c.node) +
                        " died unexpectedly (socket EOF before completion)");
      } else {
        fail_locked(c.node, net::ErrorKind::kSystem,
                    "node process " + std::to_string(c.node) +
                        " exited before reporting stats");
      }
      abort_locked();
    }
    c.done = true;
    c.drained = true;
  }
  cv_.notify_all();
}

void Supervisor::fail_locked(int node, net::ErrorKind kind, std::string what) {
  failures_.push_back(NodeFailure{node, kind, std::move(what)});
}

void Supervisor::abort_locked() {
  if (aborted_) return;
  aborted_ = true;
  reply0_.close();
  static const char kReason[] = "job aborted";
  const auto* rb = reinterpret_cast<const std::byte*>(kReason);
  for (int i = 1; i < n_nodes_; ++i) {
    Child& c = *children_[static_cast<std::size_t>(i)];
    if (c.outbox) {
      c.outbox->push(net::FrameKind::kAbort,
                     std::vector<std::byte>(rb, rb + sizeof(kReason) - 1));
    }
  }
}

Supervisor::Outcome Supervisor::run_job(
    const std::function<void(Node&)>& program,
    const std::set<PageId>& retained) {
  {
    const std::scoped_lock guard(mu_);
    failures_.clear();
    node0_error_ = nullptr;
    aborted_ = false;
    parent_drained_ = false;
    peer_failures_ = 0;
  }

  // ---- fork every child BEFORE starting any per-job parent thread, so no
  // parent-held mutex (space shards, outboxes, malloc arenas) can be
  // inherited in a locked state.  Only this thread and the idle (drained)
  // injector exist right now.
  std::fflush(nullptr);
  std::vector<int> parent_fds;
  for (int i = 1; i < n_nodes_; ++i) {
    Child& c = *children_[static_cast<std::size_t>(i)];
    c.outbox = std::make_unique<Outbox>();
    c.done = c.drained = c.got_stats = c.dead = false;
    c.stats = NodeStats{};
    c.result.clear();
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "Supervisor: socketpair");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      ::close(sv[0]);
      ::close(sv[1]);
      // Reap the children already launched; their PDEATHSIG covers leaks.
      for (int k = 1; k < i; ++k) {
        Child& prev = *children_[static_cast<std::size_t>(k)];
        ::kill(prev.pid, SIGKILL);
        ::waitpid(prev.pid, nullptr, 0);
        ::close(prev.fd);
        prev.pid = -1;
        prev.fd = -1;
      }
      throw std::system_error(err, std::generic_category(),
                              "Supervisor: fork");
    }
    if (pid == 0) {
      ::close(sv[0]);
      for (const int fd : parent_fds) ::close(fd);
      child_main(i, sv[1], n_nodes_, cfg_, space_, program);  // never returns
    }
    ::close(sv[1]);
    c.pid = pid;
    c.fd = sv[0];
    parent_fds.push_back(sv[0]);
  }

  // ---- per-job parent threads.
  for (int i = 1; i < n_nodes_; ++i) {
    Child& c = *children_[static_cast<std::size_t>(i)];
    c.writer = std::thread([this, &c] { writer_loop(c); });
    c.reader = std::thread([this, &c] { reader_loop(c); });
  }
  std::thread service0([this] { service_loop0(); });

  // ---- node 0's program runs right here, on the Cluster's dispatcher
  // thread (persistent ProcNode: retained pages stay warm across jobs).
  set_thread_fault_sink(node0_.get());
  try {
    program(*node0_);
  } catch (...) {
    std::string what = "unknown exception";
    net::ErrorKind kind = net::ErrorKind::kUnknown;
    try {
      throw;
    } catch (const std::exception& e) {
      what = e.what();
      kind = net::classify_error(e);
    } catch (...) {
    }
    {
      const std::scoped_lock guard(mu_);
      if (!node0_error_) node0_error_ = std::current_exception();
      fail_locked(0, kind, std::move(what));
      abort_locked();
    }
    cv_.notify_all();
  }
  set_thread_fault_sink(nullptr);

  // ---- wait for every node's program.  No deadline here: a genuinely
  // deadlocked program hangs exactly as it would on the thread backend, but
  // any failure or child death triggers the abort above, which guarantees
  // progress (closed reply boxes unwind all blocked requesters).
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      for (int i = 1; i < n_nodes_; ++i) {
        if (!children_[static_cast<std::size_t>(i)]->done) return false;
      }
      return true;
    });
  }

  // ---- quiesce -> drain markers -> quiesce, mirroring finalize_job: every
  // fault-delayed message lands, then each service loop proves it has
  // applied everything queued before the marker.
  if (injector_) injector_->drain();
  for (int i = 0; i < n_nodes_; ++i) {
    net::Message marker;
    marker.src = -1;  // control: bypasses the injector and the counters
    marker.dst = i;
    marker.type = net::MsgType::kStop;
    marker.a = 1;
    route(std::move(marker));
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    const auto all_drained = [&] {
      if (!parent_drained_) return false;
      for (int i = 1; i < n_nodes_; ++i) {
        Child& c = *children_[static_cast<std::size_t>(i)];
        if (!c.drained && !c.dead) return false;
      }
      return true;
    };
    if (!cv_.wait_for(lk, std::chrono::seconds(60), all_drained)) {
      // A child is wedged (not merely dead — death self-reports).  Kill it;
      // its reader's EOF path marks it dead and the wait below completes.
      for (int i = 1; i < n_nodes_; ++i) {
        Child& c = *children_[static_cast<std::size_t>(i)];
        if (!c.drained && !c.dead && c.pid > 0) ::kill(c.pid, SIGKILL);
      }
      cv_.wait(lk, all_drained);
    }
  }
  if (injector_) injector_->drain();

  // ---- stats collection: halt the live children, each ships its NodeStats
  // and exits.
  for (int i = 1; i < n_nodes_; ++i) {
    Child& c = *children_[static_cast<std::size_t>(i)];
    bool live;
    {
      const std::scoped_lock guard(mu_);
      live = !c.dead;
    }
    if (live) c.outbox->push(net::FrameKind::kHalt, {});
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    const auto all_reported = [&] {
      for (int i = 1; i < n_nodes_; ++i) {
        Child& c = *children_[static_cast<std::size_t>(i)];
        if (!c.got_stats && !c.dead) return false;
      }
      return true;
    };
    if (!cv_.wait_for(lk, std::chrono::seconds(60), all_reported)) {
      for (int i = 1; i < n_nodes_; ++i) {
        Child& c = *children_[static_cast<std::size_t>(i)];
        if (!c.got_stats && !c.dead && c.pid > 0) ::kill(c.pid, SIGKILL);
      }
      cv_.wait(lk, all_reported);
    }
  }

  // ---- stop the parent service loop (drain-ordered behind any remaining
  // deliveries) and tear the per-job plumbing down.
  {
    net::Message halt;
    halt.src = -1;
    halt.dst = 0;
    halt.type = net::MsgType::kStop;
    halt.a = 0;
    route(std::move(halt));
  }
  service0.join();
  for (int i = 1; i < n_nodes_; ++i) {
    children_[static_cast<std::size_t>(i)]->outbox->close();
  }
  for (int i = 1; i < n_nodes_; ++i) {
    Child& c = *children_[static_cast<std::size_t>(i)];
    c.writer.join();
    c.reader.join();  // returns at EOF once the child exited
    ::close(c.fd);
    c.fd = -1;
    ::waitpid(c.pid, nullptr, 0);
    c.pid = -1;
    c.outbox.reset();
  }

  // ---- finalize.
  Outcome out;
  std::uint64_t job_peer_failures = 0;
  bool was_aborted = false;
  {
    const std::scoped_lock guard(mu_);
    out.failures = failures_;
    out.node0_error = node0_error_;
    job_peer_failures = peer_failures_;
    was_aborted = aborted_;
  }
  const bool failed = !out.failures.empty();
  const std::set<PageId> keep = failed ? std::set<PageId>{} : retained;
  out.stats.resize(static_cast<std::size_t>(n_nodes_));
  out.results.resize(static_cast<std::size_t>(n_nodes_));
  out.results[0] = node0_->take_result();
  out.stats[0] = node0_->end_of_job(keep);
  // Supervisor-level counters ride on node 0's row; account them into the
  // process-wide comm totals too (end_of_job already folded the rest).
  NodeStats extra;
  extra.peer_failures = job_peer_failures;
  extra.socket_bytes_sent = bytes_sent_.exchange(0);
  extra.socket_bytes_received = bytes_received_.exchange(0);
  account_comm_totals(extra);
  out.stats[0] += extra;
  for (int i = 1; i < n_nodes_; ++i) {
    // A dead child's stats stay zero.  The child accounted its comm totals
    // only in its own (now gone) process, so fold them here.
    out.stats[static_cast<std::size_t>(i)] =
        children_[static_cast<std::size_t>(i)]->stats;
    out.results[static_cast<std::size_t>(i)] =
        std::move(children_[static_cast<std::size_t>(i)]->result);
    account_comm_totals(out.stats[static_cast<std::size_t>(i)]);
  }

  manager0_->reset();
  // Re-arm node 0's reply path: drop any reply that raced an abort (ids are
  // never reused, so survivors could only ever be dropped as stale).
  reply0_.drain();
  if (was_aborted) reply0_.reopen();
  service0_.drain();
  return out;
}

std::vector<net::TrafficCounters> Supervisor::traffic() const {
  std::vector<net::TrafficCounters> out;
  out.reserve(traffic_.size());
  for (const auto& t : traffic_) {
    net::TrafficCounters c;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(net::kNumMsgTypes); ++k) {
      c.messages[k] = t->messages[k].load(std::memory_order_relaxed);
      c.bytes[k] = t->bytes[k].load(std::memory_order_relaxed);
    }
    out.push_back(c);
  }
  return out;
}

net::FaultCounters Supervisor::fault_counters() const {
  return injector_ ? injector_->counters() : net::FaultCounters{};
}

}  // namespace gdsm::dsm::proc
