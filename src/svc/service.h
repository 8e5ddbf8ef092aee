// The multi-query alignment service: admission and dispatch over one
// persistent DSM cluster.
//
// The paper runs one alignment per cluster boot.  This subsystem turns the
// reproduction into a long-lived service: subject genomes are loaded into
// DSM global memory once (host_write + retain_range keeps their pages warm
// across jobs), queries are admitted through a bounded queue with
// backpressure and per-query deadlines, and a worker pool dispatches each
// one as its own job, in admission order.  A kAuto subject query runs the
// blocked strategy on message passing (blocked_mp), the measured fastest;
// the other strategies run only when a query names them.  A failed query
// (node-program exception) is absorbed by the cluster's recovery path and
// does not poison the pool for its neighbours.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/db_align.h"
#include "db/subject_db.h"
#include "dsm/cluster.h"
#include "svc/query.h"
#include "svc/queue.h"
#include "svc/stats.h"

namespace gdsm::svc {

struct ServiceConfig {
  int nprocs = 4;                  ///< cluster nodes (and strategy procs)
  std::size_t queue_capacity = 64; ///< admission bound (backpressure)
  int workers = 2;                 ///< dispatcher threads
  /// Blocked decomposition for service dispatches (bands = mult_h * P,
  /// blocks = mult_w * P).
  std::size_t mult_w = 2;
  std::size_t mult_h = 2;
  dsm::DsmConfig dsm{};     ///< persistent cluster config (n_cvs is raised
                            ///< automatically to what blocked needs)
  /// Re-derive every answer with the serial reference and fail the query on
  /// any divergence (the service-path correctness oracle; used by loadgen,
  /// CI and the fuzzer's --service mode).
  bool verify = false;
};

class AlignService {
 public:
  explicit AlignService(ServiceConfig cfg);
  ~AlignService();
  AlignService(const AlignService&) = delete;
  AlignService& operator=(const AlignService&) = delete;

  /// Installs a subject genome: allocates striped global memory, seeds the
  /// home pages, and marks the range resident so it survives end-of-job
  /// cache sweeps.  The subject's name() is the key queries use; loading a
  /// name twice throws.
  void load_subject(const Sequence& subject);
  bool has_subject(const std::string& name) const;

  /// Installs a multi-sequence subject database under `name`: fragments the
  /// sequences, builds the q-gram filtration index, and shards the
  /// fragments across the cluster nodes (per-node arenas homed at their
  /// owners, which read them in place).  Queries select it with
  /// QuerySpec::database.  Loading a name twice throws.
  void load_db(const std::string& name, std::vector<Sequence> sequences,
               db::DbConfig db_cfg = {});
  bool has_db(const std::string& name) const;

  struct Admission {
    TicketPtr ticket;          ///< always non-null; resolved on reject too
    std::string reject;        ///< non-empty when admission refused
    bool admitted() const { return reject.empty(); }
  };
  /// Non-blocking admission; rejects (with reason) when the queue is full
  /// or the service is shutting down.
  Admission submit(QuerySpec spec);

  /// Blocks until every admitted query has been resolved.
  void drain();

  /// Stops admission, drains the queue, joins the workers and stops the
  /// cluster.  Idempotent; also run by the destructor.
  void shutdown();

  ServiceStats stats() const;
  int nprocs() const noexcept { return cfg_.nprocs; }
  std::size_t queue_capacity() const noexcept { return queue_.capacity(); }

 private:
  struct Subject {
    Sequence seq;
    dsm::GlobalAddr addr = 0;
    bool warm = false;  ///< pages cached on the nodes by an earlier query
  };

  struct Database {
    db::SubjectDb db;
    db::DbShards shards;
  };

  static ServiceConfig normalize(ServiceConfig cfg);
  dsm::DsmConfig cluster_config() const;
  void worker_loop();
  void execute_one(PendingQuery& q);

  ServiceConfig cfg_;
  dsm::Cluster cluster_;
  QueryQueue queue_;

  mutable std::mutex mu_;  ///< subjects_, stats_, pending_
  std::condition_variable idle_cv_;
  std::map<std::string, Subject> subjects_;
  std::map<std::string, Database> databases_;
  ServiceStats stats_;
  std::uint64_t next_id_ = 0;
  std::uint64_t pending_ = 0;  ///< admitted, not yet resolved

  std::vector<std::thread> workers_;
  bool stopped_ = false;
};

}  // namespace gdsm::svc
