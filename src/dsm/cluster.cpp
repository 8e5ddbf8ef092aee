#include "dsm/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "dsm/proc/supervisor.h"
#include "dsm/wire.h"

namespace gdsm::dsm {

Cluster::Cluster(int n_nodes, DsmConfig cfg)
    : n_nodes_(n_nodes),
      cfg_(cfg),
      space_(n_nodes, cfg),
      // The process backend runs its own injector inside the supervisor;
      // don't spin up a second delivery thread in the unused transport.
      transport_(n_nodes, cfg.backend == Backend::kThreads ? cfg.faults
                                                          : net::FaultPlan{}) {
  if (n_nodes <= 0) throw std::invalid_argument("Cluster: need >= 1 node");
  reset_manager_state();
}

Cluster::~Cluster() { stop(); }

void Cluster::reset_manager_state() {
  // The process backend's per-node managers live in the node processes (and
  // node 0's in the supervisor, which resets it per job).
  if (cfg_.backend == Backend::kProcess) return;
  if (managers_.empty()) {
    managers_.reserve(static_cast<std::size_t>(n_nodes_));
    for (int n = 0; n < n_nodes_; ++n) {
      managers_.push_back(std::make_unique<ProtocolManager>(
          n, n_nodes_, cfg_.n_locks, cfg_.n_cvs, cfg_.home_migration, space_,
          [this](net::Message msg) { transport_.send(std::move(msg)); }));
    }
    return;  // construction already leaves each manager reset
  }
  for (auto& m : managers_) m->reset();
}

std::uint64_t Cluster::home_migrations() const {
  if (cfg_.backend == Backend::kProcess) {
    // Only node 0's manager ever migrates homes (barrier owner), and that
    // manager lives in the supervisor.
    return supervisor_ ? supervisor_->home_migrations() : 0;
  }
  std::uint64_t total = 0;
  for (const auto& m : managers_) total += m->home_migrations();
  return total;
}

void Cluster::service_loop(int node) {
  while (auto msg = transport_.service_box(node).pop()) {
    if (msg->type == net::MsgType::kStop) {
      if (msg->a == 0) break;
      // Drain marker (a == 1): everything queued before it has now been
      // fully handled; acknowledge so the finalizer may reset manager state.
      {
        const std::scoped_lock guard(sync_mu_);
        ++sync_acks_;
      }
      sync_cv_.notify_all();
      continue;
    }
    managers_[static_cast<std::size_t>(node)]->handle_message(*std::move(msg));
  }
}

void Cluster::sync_service_threads() {
  {
    const std::scoped_lock guard(sync_mu_);
    sync_acks_ = 0;
  }
  for (int i = 0; i < n_nodes_; ++i) {
    net::Message marker;
    marker.src = -1;  // control: bypasses the fault injector
    marker.dst = i;
    marker.type = net::MsgType::kStop;
    marker.a = 1;
    transport_.send(std::move(marker));
  }
  std::unique_lock<std::mutex> lk(sync_mu_);
  sync_cv_.wait(lk, [&] { return sync_acks_ == n_nodes_; });
}

void Cluster::ensure_started_locked() {
  if (engine_running_) return;
  if (cfg_.backend == Backend::kProcess) {
    if (!supervisor_) {
      supervisor_ = std::make_unique<proc::Supervisor>(n_nodes_, cfg_, space_);
    }
    engine_threads_.emplace_back([this] { proc_engine_loop(); });
    engine_running_ = true;
    return;
  }
  nodes_.clear();
  nodes_.reserve(static_cast<std::size_t>(n_nodes_));
  for (int i = 0; i < n_nodes_; ++i) {
    nodes_.push_back(std::make_unique<ThreadNode>(*this, i));
  }
  reset_manager_state();
  service_threads_.reserve(static_cast<std::size_t>(n_nodes_));
  engine_threads_.reserve(static_cast<std::size_t>(n_nodes_));
  for (int i = 0; i < n_nodes_; ++i) {
    service_threads_.emplace_back([this, i] { service_loop(i); });
    engine_threads_.emplace_back([this, i] { engine_loop(i); });
  }
  engine_running_ = true;
}

void Cluster::engine_loop(int node) {
  std::unique_lock<std::mutex> lk(jobs_mu_);
  for (;;) {
    jobs_cv_.wait(lk, [&] {
      return (current_ &&
              !current_->started[static_cast<std::size_t>(node)]) ||
             (stopping_ && !current_);
    });
    if (!current_) return;  // stopping, queue drained
    const std::shared_ptr<Job> job = current_;
    job->started[static_cast<std::size_t>(node)] = 1;
    lk.unlock();
    try {
      job->program(*nodes_[static_cast<std::size_t>(node)]);
    } catch (...) {
      // Failures are collected per node so a multi-node crash reports every
      // culprit, not just whichever thread lost the race to store its
      // exception.
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
        const std::scoped_lock guard(jobs_mu_);
        if (!job->first_error) job->first_error = std::current_exception();
        job->failures.push_back(NodeFailure{node, kind, std::move(what)});
      }
      // Unblock peers stuck in barriers/cv waits so the job can unwind.
      // Only the reply boxes close: the service threads stay alive, and
      // finalize_job() re-arms the boxes before the next job is admitted.
      transport_.abort_requests();
    }
    lk.lock();
    if (++job->finished == n_nodes_) finalize_job(*job);
  }
}

void Cluster::proc_engine_loop() {
  // One dispatcher thread stands in for all per-node engine threads: the
  // supervisor runs node 0's program on this thread and forks a process per
  // other node, so job admission stays strictly serial by construction.
  std::unique_lock<std::mutex> lk(jobs_mu_);
  for (;;) {
    jobs_cv_.wait(lk, [&] { return current_ != nullptr || stopping_; });
    if (!current_) return;  // stopping, queue drained
    const std::shared_ptr<Job> job = current_;
    std::fill(job->started.begin(), job->started.end(), 1);
    const std::set<PageId> keep = retained_pages_;
    lk.unlock();
    proc::Supervisor::Outcome out = supervisor_->run_job(job->program, keep);
    lk.lock();
    job->scratch.release();  // children exited, node 0's cache swept
    job->failures = std::move(out.failures);
    job->stats = std::move(out.stats);
    job->results = std::move(out.results);
    if (!job->failures.empty()) {
      // throw_failures rethrows first_error verbatim for a single failure:
      // preserve node 0's original exception when it is the culprit, and
      // rebuild a child's exception from its typed kDone tag otherwise (the
      // original object died with the process, but the type survives).
      if (job->failures.size() == 1 && job->failures.front().node == 0 &&
          out.node0_error) {
        job->first_error = out.node0_error;
      } else {
        const NodeFailure& f = job->failures.front();
        job->first_error = net::make_error(f.kind, f.what);
      }
    }
    last_run_stats_ = job->stats;
    job->finished = n_nodes_;
    job->done = true;
    if (queued_.empty()) {
      current_ = nullptr;
    } else {
      current_ = queued_.front();
      queued_.pop_front();
    }
    jobs_cv_.notify_all();
    done_cv_.notify_all();
  }
}

void Cluster::finalize_job(Job& job) {
  // All engine threads are done with this job; only service threads are
  // still active.  Let fault-delayed messages land, then force every
  // service thread through a drain marker so queued protocol work (stray
  // releases/signals of this job) is applied before the manager reset.
  transport_.quiesce();
  sync_service_threads();
  transport_.quiesce();  // replies emitted during the drain settle too

  const bool failed = !job.failures.empty();
  if (failed) {
    // Unwound requesters saw closed reply boxes; drop any reply that raced
    // the abort (ids are never reused, so a survivor could only ever be
    // dropped as stale) and re-arm the boxes for the next job.
    transport_.reset_reply_boxes();
  }
  // Sweep every cache.  A failed job forfeits even the retained pages
  // (cold restart — the range stays marked and re-warms on next touch);
  // a clean job keeps resident data warm.
  const std::set<PageId> keep = failed ? std::set<PageId>{} : retained_pages_;
  job.stats.clear();
  job.results.clear();
  for (auto& n : nodes_) {
    job.results.push_back(n->take_result());
    job.stats.push_back(n->end_of_job(keep));
  }
  reset_manager_state();
  job.scratch.release();  // no cache holds a frame of these pages any more
  last_run_stats_ = job.stats;
  job.done = true;

  if (queued_.empty()) {
    current_ = nullptr;
  } else {
    current_ = queued_.front();
    queued_.pop_front();
  }
  jobs_cv_.notify_all();
  done_cv_.notify_all();
}

Cluster::Ticket Cluster::submit(std::function<void(Node&)> program,
                                Scratch scratch) {
  const std::scoped_lock guard(jobs_mu_);
  if (stopping_) throw std::logic_error("Cluster: submit during stop()");
  ensure_started_locked();
  auto job = std::make_shared<Job>();
  job->program = std::move(program);
  job->scratch = std::move(scratch);
  job->started.assign(static_cast<std::size_t>(n_nodes_), 0);
  if (current_) {
    queued_.push_back(job);
  } else {
    current_ = job;
  }
  jobs_cv_.notify_all();
  Ticket t;
  t.job_ = std::move(job);
  return t;
}

void Cluster::throw_failures(const Job& job) {
  if (job.failures.size() == 1) std::rethrow_exception(job.first_error);
  auto failures = job.failures;
  std::sort(failures.begin(), failures.end(),
            [](const NodeFailure& a, const NodeFailure& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.what < b.what;
            });
  std::string combined = "DSM: " + std::to_string(failures.size()) +
                         " node programs failed:";
  for (const auto& f : failures) {
    combined += "\n  node " + std::to_string(f.node) + " [" +
                net::error_kind_name(f.kind) + "]: " + f.what;
  }
  throw std::runtime_error(combined);
}

Cluster::JobResult Cluster::await(const Ticket& ticket) {
  if (!ticket.job_) throw std::logic_error("Cluster: await on empty ticket");
  std::unique_lock<std::mutex> lk(jobs_mu_);
  done_cv_.wait(lk, [&] { return ticket.job_->done; });
  Job& job = *ticket.job_;
  if (!job.failures.empty()) throw_failures(job);
  JobResult out;
  out.stats.backend = cfg_.backend;
  out.stats.node = job.stats;
  out.stats.home_migrations = home_migrations();
  if (cfg_.backend == Backend::kProcess) {
    out.stats.traffic = supervisor_->traffic();
    out.stats.faults = supervisor_->fault_counters();
  } else {
    out.stats.traffic = transport_.per_node_counters();
    out.stats.faults = transport_.fault_counters();
  }
  out.results = std::move(job.results);
  return out;
}

void Cluster::run(const std::function<void(Node&)>& program) {
  await(submit(program));
}

void Cluster::retain_range(GlobalAddr addr, std::size_t bytes) {
  if (bytes == 0) return;
  const std::scoped_lock guard(jobs_mu_);
  const PageId first = space_.page_of(addr);
  const PageId last = space_.page_of(addr + bytes - 1);
  for (PageId p = first; p <= last; ++p) {
    if (space_.scratch_page(p)) {
      throw std::invalid_argument("Cluster: retain_range over scratch page " +
                                  std::to_string(p));
    }
  }
  for (PageId p = first; p <= last; ++p) retained_pages_.insert(p);
}

void Cluster::host_write(GlobalAddr addr, const void* data, std::size_t bytes) {
  const auto* in = static_cast<const std::byte*>(data);
  const std::size_t page_bytes = space_.page_bytes();
  while (bytes > 0) {
    const PageId p = space_.page_of(addr);
    const std::size_t off = space_.offset_in_page(addr);
    const std::size_t chunk = std::min(bytes, page_bytes - off);
    {
      const std::scoped_lock guard(space_.page_mutex(p));
      std::memcpy(space_.home_data(p) + off, in, chunk);
    }
    addr += chunk;
    in += chunk;
    bytes -= chunk;
  }
}

void Cluster::stop() {
  std::unique_lock<std::mutex> lk(jobs_mu_);
  if (!engine_running_) return;
  stopping_ = true;
  jobs_cv_.notify_all();
  // finalize_job() keeps promoting queued jobs while we wait, so the queue
  // drains before the engine threads see (stopping_ && !current_) and exit.
  done_cv_.wait(lk, [&] { return current_ == nullptr; });
  std::vector<std::thread> engines = std::move(engine_threads_);
  std::vector<std::thread> services = std::move(service_threads_);
  engine_threads_.clear();
  service_threads_.clear();
  lk.unlock();
  for (auto& t : engines) t.join();
  if (cfg_.backend == Backend::kThreads) {
    for (int i = 0; i < n_nodes_; ++i) {
      net::Message halt;
      halt.src = -1;
      halt.dst = i;
      halt.type = net::MsgType::kStop;
      halt.a = 0;
      transport_.send(std::move(halt));
    }
  }
  for (auto& t : services) t.join();
  lk.lock();
  nodes_.clear();
  stopping_ = false;
  engine_running_ = false;
}

DsmStats Cluster::stats() const {
  const std::scoped_lock guard(jobs_mu_);
  DsmStats out;
  out.backend = cfg_.backend;
  out.node = last_run_stats_;
  out.home_migrations = home_migrations();
  if (cfg_.backend == Backend::kProcess) {
    if (supervisor_) {
      out.traffic = supervisor_->traffic();
      out.faults = supervisor_->fault_counters();
    }
  } else {
    out.traffic = transport_.per_node_counters();
    out.faults = transport_.fault_counters();
  }
  return out;
}

std::vector<net::TrafficCounters> Cluster::traffic_snapshot() const {
  if (cfg_.backend == Backend::kProcess) {
    return supervisor_ ? supervisor_->traffic()
                       : std::vector<net::TrafficCounters>(
                             static_cast<std::size_t>(n_nodes_));
  }
  return transport_.per_node_counters();
}

}  // namespace gdsm::dsm
