#include "svc/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/blocked.h"
#include "core/blocked_mp.h"
#include "core/exact_parallel.h"
#include "core/wavefront.h"
#include "db/meter.h"
#include "simd/dispatch.h"
#include "sw/affine.h"

namespace gdsm::svc {
namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

ServiceConfig AlignService::normalize(ServiceConfig cfg) {
  if (cfg.nprocs < 1) cfg.nprocs = 1;
  if (cfg.workers < 1) cfg.workers = 1;
  if (cfg.queue_capacity == 0) cfg.queue_capacity = 1;
  if (cfg.mult_w == 0) cfg.mult_w = 1;
  if (cfg.mult_h == 0) cfg.mult_h = 1;
  return cfg;
}

dsm::DsmConfig AlignService::cluster_config() const {
  dsm::DsmConfig d = cfg_.dsm;
  // Wavefront needs 2P+2 cvs, blocked needs bands+1 = mult_h*P + 1; size
  // the shared pool once for whichever strategy any query may pick.
  const int p = cfg_.nprocs;
  const int need = std::max(2 * p + 2,
                            static_cast<int>(cfg_.mult_h) * p + 1);
  d.n_cvs = std::max(d.n_cvs, need);
  return d;
}

AlignService::AlignService(ServiceConfig cfg)
    : cfg_(normalize(std::move(cfg))),
      cluster_(cfg_.nprocs, cluster_config()),
      scheduler_(cfg_.cost, cfg_.nprocs, cfg_.mult_w, cfg_.mult_h),
      queue_(cfg_.queue_capacity) {
  stats_.kernel_backend = simd::active_backend_name();
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AlignService::~AlignService() { shutdown(); }

void AlignService::load_subject(const Sequence& subject) {
  if (subject.name().empty()) {
    throw std::invalid_argument("AlignService: subject sequence needs a name");
  }
  if (subject.empty()) {
    throw std::invalid_argument("AlignService: subject sequence is empty");
  }
  {
    const std::scoped_lock lk(mu_);
    if (subjects_.count(subject.name()) != 0) {
      throw std::invalid_argument("AlignService: subject already loaded: " +
                                  subject.name());
    }
  }
  Subject s;
  s.seq = subject;
  const std::size_t bytes = subject.size() * sizeof(Base);
  s.addr = cluster_.alloc_striped(bytes);
  cluster_.host_write(s.addr, subject.data(), bytes);
  cluster_.retain_range(s.addr, bytes);
  const std::scoped_lock lk(mu_);
  if (!subjects_.emplace(subject.name(), std::move(s)).second) {
    throw std::invalid_argument("AlignService: subject already loaded: " +
                                subject.name());
  }
}

bool AlignService::has_subject(const std::string& name) const {
  const std::scoped_lock lk(mu_);
  return subjects_.count(name) != 0;
}

void AlignService::load_db(const std::string& name,
                           std::vector<Sequence> sequences,
                           db::DbConfig db_cfg) {
  if (name.empty()) {
    throw std::invalid_argument("AlignService: database needs a name");
  }
  if (sequences.empty()) {
    throw std::invalid_argument("AlignService: database needs sequences");
  }
  {
    const std::scoped_lock lk(mu_);
    if (databases_.count(name) != 0) {
      throw std::invalid_argument("AlignService: database already loaded: " +
                                  name);
    }
  }
  Database d;
  if (!db_cfg.index_path.empty()) {
    // Warm path: adopt the persisted q-gram index (checksummed against the
    // sequences) instead of rebuilding it.  Any mismatch — missing file,
    // version/geometry drift, content change, corruption — falls back to a
    // cold build that refreshes the file for the next load.
    try {
      d.db = db::SubjectDb::open_index(sequences, db_cfg.index_path, db_cfg);
      db::db_meter_record_index_open();
    } catch (const std::exception&) {
      d.db = db::SubjectDb(std::move(sequences), db_cfg);
      try {
        d.db.save_index(db_cfg.index_path);
      } catch (const std::exception&) {
        // Serving works without persistence; the next load rebuilds again.
      }
    }
  } else {
    d.db = db::SubjectDb(std::move(sequences), db_cfg);
  }
  if (d.db.fragments().empty()) {
    throw std::invalid_argument("AlignService: database has no fragments: " +
                                name);
  }
  // Like load_subject: host_write runs between jobs, so databases load
  // before (or between) query traffic.
  d.shards = db::DbShards(cluster_, d.db);
  const std::scoped_lock lk(mu_);
  if (!databases_.emplace(name, std::move(d)).second) {
    throw std::invalid_argument("AlignService: database already loaded: " +
                                name);
  }
}

bool AlignService::has_db(const std::string& name) const {
  const std::scoped_lock lk(mu_);
  return databases_.count(name) != 0;
}

AlignService::Admission AlignService::submit(QuerySpec spec) {
  Admission out;
  out.ticket = std::make_shared<QueryTicket>();
  PendingQuery q;
  q.spec = std::move(spec);
  q.admitted_at = std::chrono::steady_clock::now();
  q.ticket = out.ticket;
  {
    const std::scoped_lock lk(mu_);
    q.id = ++next_id_;
    ++pending_;  // before the push: a worker may resolve it immediately
  }
  const QueryQueue::Reject r = queue_.try_push(std::move(q));
  const std::scoped_lock lk(mu_);
  if (r == QueryQueue::Reject::kNone) {
    ++stats_.admitted;
    const auto depth = static_cast<std::uint64_t>(queue_.depth());
    ++stats_.depth_samples;
    stats_.depth_sum += depth;
    stats_.depth_max = std::max(stats_.depth_max, depth);
  } else {
    if (--pending_ == 0) idle_cv_.notify_all();
    out.reject = QueryQueue::reject_reason(r);
    if (r == QueryQueue::Reject::kFull) {
      ++stats_.rejected_full;
    } else {
      ++stats_.rejected_closed;
    }
    QueryOutcome o;
    o.error = out.reject;
    out.ticket->fulfill(std::move(o));
  }
  return out;
}

void AlignService::worker_loop() {
  while (std::optional<PendingQuery> q = queue_.pop()) execute_one(*q);
}

void AlignService::execute_one(PendingQuery& q) {
  const auto dispatched = std::chrono::steady_clock::now();
  QueryOutcome out;
  out.result.id = q.id;
  out.result.wait_s = seconds_between(q.admitted_at, dispatched);

  bool deadline_reject = false;
  bool cluster_failed = false;
  const Subject* subj = nullptr;
  const Database* dbp = nullptr;
  bool warm = false;
  bool resident_used = false;
  StrategyKind chosen = q.spec.strategy;

  if (q.spec.deadline_s > 0 && out.result.wait_s > q.spec.deadline_s) {
    deadline_reject = true;
    out.error = "deadline expired before dispatch";
  } else if (!q.spec.database.empty()) {
    const std::scoped_lock lk(mu_);
    const auto it = databases_.find(q.spec.database);
    if (it == databases_.end()) {
      out.error = "unknown database: " + q.spec.database;
    } else {
      dbp = &it->second;  // map entries are never erased: stable address
    }
  } else {
    const std::scoped_lock lk(mu_);
    const auto it = subjects_.find(q.spec.subject);
    if (it == subjects_.end()) {
      out.error = "unknown subject: " + q.spec.subject;
    } else {
      subj = &it->second;
      warm = subj->warm;
    }
  }

  if (dbp != nullptr) {
    chosen = StrategyKind::kDbScan;
    out.result.strategy = chosen;
    if (q.spec.strategy != StrategyKind::kAuto &&
        q.spec.strategy != StrategyKind::kDbScan) {
      out.error = "database queries use the db_scan strategy";
    } else if (q.spec.min_score < 1) {
      out.error = "database queries need min_score >= 1";
    } else {
      try {
        db::DbQueryResult r =
            db::db_query(cluster_, dbp->db, dbp->shards, q.spec.query,
                         q.spec.scheme, q.spec.min_score);
        out.result.db_hits = std::move(r.hits);
        out.result.db_fragments_scanned = r.fragments_scanned;
        out.result.db_fragments_rejected = r.fragments_rejected;
        out.result.db_fragments_aligned = r.fragments_aligned;
        out.result.cache_hits = r.cache_hits;
        out.result.read_faults = r.read_faults;
        out.ok = true;
      } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
        cluster_failed = true;
      }
      if (out.ok && cfg_.verify) {
        // The no-filter all-pairs serial scan is the database oracle: the
        // filtered sharded result must match it hit-for-hit.
        const std::vector<db::DbHit> ref = db::brute_force_hits(
            dbp->db, q.spec.query, q.spec.scheme, q.spec.min_score);
        if (ref != out.result.db_hits) {
          out.ok = false;
          out.error =
              "service divergence: db scan != brute-force hit set";
        }
      }
    }
  } else if (subj != nullptr) {
    if (chosen == StrategyKind::kAuto) {
      chosen = scheduler_
                   .choose({q.spec.query.size(), subj->seq.size(), warm,
                            q.spec.scheme.affine()})
                   .strategy;
    }
    out.result.strategy = chosen;
    try {
      if (q.spec.inject_failure_node >= 0) {
        const int bad = q.spec.inject_failure_node % cfg_.nprocs;
        cluster_.run([bad](dsm::Node& node) {
          if (node.id() == bad) {
            throw std::runtime_error("injected query failure");
          }
        });
        cluster_failed = true;  // run() above always throws
        out.error = "injected query failure";
      } else {
        switch (chosen) {
          case StrategyKind::kWavefront: {
            core::WavefrontConfig wc;
            wc.nprocs = cfg_.nprocs;
            wc.scheme = q.spec.scheme;
            wc.params = q.spec.params;
            wc.cluster = &cluster_;
            wc.resident_t_addr = subj->addr;
            wc.resident_t_size = subj->seq.size();
            resident_used = true;
            core::StrategyResult r =
                core::wavefront_align(q.spec.query, subj->seq, wc);
            out.result.candidates = std::move(r.candidates);
            out.result.overflow = r.overflow;
            const dsm::NodeStats tot = r.dsm_stats.total_node();
            out.result.cache_hits = tot.cache_hits;
            out.result.read_faults = tot.read_faults;
            out.ok = true;
            break;
          }
          case StrategyKind::kBlocked: {
            core::BlockedConfig bc;
            bc.nprocs = cfg_.nprocs;
            bc.mult_w = cfg_.mult_w;
            bc.mult_h = cfg_.mult_h;
            bc.scheme = q.spec.scheme;
            bc.params = q.spec.params;
            bc.cluster = &cluster_;
            bc.resident_t_addr = subj->addr;
            bc.resident_t_size = subj->seq.size();
            resident_used = true;
            core::StrategyResult r =
                core::blocked_align(q.spec.query, subj->seq, bc);
            out.result.candidates = std::move(r.candidates);
            out.result.overflow = r.overflow;
            const dsm::NodeStats tot = r.dsm_stats.total_node();
            out.result.cache_hits = tot.cache_hits;
            out.result.read_faults = tot.read_faults;
            out.ok = true;
            break;
          }
          case StrategyKind::kBlockedMp: {
            core::BlockedConfig bc;
            bc.nprocs = cfg_.nprocs;
            bc.mult_w = cfg_.mult_w;
            bc.mult_h = cfg_.mult_h;
            bc.scheme = q.spec.scheme;
            bc.params = q.spec.params;
            bc.dsm = cfg_.dsm;  // mp uses only the fault plan
            core::MpStrategyResult r =
                core::blocked_align_mp(q.spec.query, subj->seq, bc);
            out.result.candidates = std::move(r.candidates);
            out.ok = true;
            break;
          }
          case StrategyKind::kExact: {
            core::ExactParallelConfig ec;
            ec.nprocs = cfg_.nprocs;
            ec.scheme = q.spec.scheme;
            ec.mult_w = cfg_.mult_w;
            ec.mult_h = cfg_.mult_h;
            ec.faults = cfg_.dsm.faults;
            core::ExactParallelResult r =
                core::exact_align_parallel(q.spec.query, subj->seq, ec);
            out.result.best = r.best;
            out.result.rebuilt = std::move(r.rebuilt);
            out.ok = true;
            break;
          }
          case StrategyKind::kDbScan:
            out.error = "db_scan needs a database query";
            break;
          case StrategyKind::kAuto:
            out.error = "internal: auto strategy not resolved";
            break;
        }
      }
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = e.what();
      if (resident_used || q.spec.inject_failure_node >= 0) {
        cluster_failed = true;
      }
    }
    out.result.warm = warm && resident_used;

    if (out.ok && cfg_.verify) {
      if (chosen == StrategyKind::kExact) {
        // Under affine gaps the reference is the serial scalar Gotoh scan —
        // deliberately independent of the SIMD kernels the parallel run
        // dispatched, so a kernel bug cannot agree with itself.
        const BestLocal ref =
            q.spec.scheme.affine()
                ? sw_best_score_affine_linear(q.spec.query, subj->seq,
                                              to_affine(q.spec.scheme))
                : sw_best_score_linear(q.spec.query, subj->seq, q.spec.scheme);
        if (ref.score != out.result.best.score ||
            ref.end_i != out.result.best.end_i ||
            ref.end_j != out.result.best.end_j) {
          out.ok = false;
          out.error =
              "service divergence: exact best != serial best-score scan";
        }
      } else {
        const std::vector<Candidate> ref = heuristic_scan(
            q.spec.query, subj->seq, q.spec.scheme, q.spec.params);
        if (ref != out.result.candidates) {
          out.ok = false;
          out.error =
              "service divergence: candidate queue != heuristic_scan";
        }
      }
    }
  }

  const auto ended = std::chrono::steady_clock::now();
  out.result.run_s = seconds_between(dispatched, ended);
  out.result.total_s = seconds_between(q.admitted_at, ended);

  {
    const std::scoped_lock lk(mu_);
    if (deadline_reject) {
      ++stats_.rejected_deadline;
    } else if (out.ok) {
      ++stats_.completed;
      ++stats_.by_strategy[static_cast<std::size_t>(chosen)];
      if (q.spec.scheme.affine()) {
        ++stats_.affine_queries;
      } else {
        ++stats_.linear_queries;
      }
      if (resident_used) {
        // Only wavefront and blocked read the subject's DSM pages: they
        // count as warm or cold, and pull the pages into the node caches,
        // so the next such query on the subject runs warm.
        ++(warm ? stats_.warm_queries : stats_.cold_queries);
        subjects_.at(q.spec.subject).warm = true;
      }
      stats_.cache_hits += out.result.cache_hits;
      stats_.read_faults += out.result.read_faults;
      stats_.total_latency.record(out.result.total_s);
      stats_.run_latency.record(out.result.run_s);
      if (chosen == StrategyKind::kDbScan) {
        ++stats_.db_queries;
        stats_.db_fragments_scanned += out.result.db_fragments_scanned;
        stats_.db_fragments_rejected += out.result.db_fragments_rejected;
        stats_.db_fragments_aligned += out.result.db_fragments_aligned;
        stats_.db_hits += out.result.db_hits.size();
      }
    } else {
      ++stats_.failed;
      if (cluster_failed) {
        // The cluster absorbed a failed job by cold-restarting the node
        // caches: the pool keeps accepting work, but every subject must
        // re-warm on its next touch.
        ++stats_.recoveries;
        for (auto& [name, s] : subjects_) s.warm = false;
      }
    }
  }

  q.ticket->fulfill(std::move(out));
  const std::scoped_lock lk(mu_);
  if (--pending_ == 0) idle_cv_.notify_all();
}

void AlignService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return pending_ == 0; });
}

void AlignService::shutdown() {
  {
    const std::scoped_lock lk(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();  // pop() drains the remainder, then workers exit
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  cluster_.stop();
}

ServiceStats AlignService::stats() const {
  const std::scoped_lock lk(mu_);
  return stats_;
}

}  // namespace gdsm::svc
