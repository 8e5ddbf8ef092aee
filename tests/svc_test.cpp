// Alignment-service tests: admission backpressure, deadline rejection,
// one dispatch per query in admission order, the resident genome staying
// warm (DSM cache hits rising on the second query), failed-query recovery,
// and strategy answers matching the serial references through the whole
// service path.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "backends.h"
#include "simd/dispatch.h"
#include "svc/queue.h"
#include "svc/service.h"
#include "svc/stats.h"
#include "sw/heuristic_scan.h"
#include "sw/linear_score.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm::svc {
namespace {

Sequence make_subject(std::size_t len, std::uint64_t seed,
                      const std::string& name) {
  Rng rng(seed);
  return random_dna(len, rng, name);
}

Sequence make_probe(const Sequence& subject, std::size_t begin,
                    std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  Sequence probe =
      mutate(subject.slice(begin, begin + len), 0.05, 0.01, rng);
  probe.set_name("probe");
  return probe;
}

// ---------------------------------------------------------------- queue --

TEST(QueryQueue, BackpressureAndClose) {
  QueryQueue q(2);
  EXPECT_EQ(q.try_push({}), QueryQueue::Reject::kNone);
  EXPECT_EQ(q.try_push({}), QueryQueue::Reject::kNone);
  EXPECT_EQ(q.try_push({}), QueryQueue::Reject::kFull);
  EXPECT_EQ(q.depth(), 2u);
  q.close();
  EXPECT_EQ(q.try_push({}), QueryQueue::Reject::kClosed);
  // close() drains the remainder before pop() reports end-of-stream.
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

// ---------------------------------------------------------------- stats --

TEST(LatencyHistogram, QuantilesLandInTheRightBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(1e-3);   // ~1 ms
  for (int i = 0; i < 10; ++i) h.record(0.5);    // ~500 ms
  EXPECT_EQ(h.count, 100u);
  EXPECT_LT(h.quantile(0.5), 0.01);
  EXPECT_GT(h.quantile(0.99), 0.1);
  EXPECT_DOUBLE_EQ(h.max_s, 0.5);
  const obs::Json j = h.to_json();
  EXPECT_EQ(j.at("count").as_int(), 100);
}

TEST(ServiceStats, ToJsonCarriesEverySection) {
  ServiceStats s;
  s.admitted = 3;
  s.by_strategy[static_cast<std::size_t>(StrategyKind::kBlocked)] = 2;
  const obs::Json j = s.to_json();
  EXPECT_EQ(j.at("admission").at("admitted").as_int(), 3);
  EXPECT_EQ(j.at("dispatch_by_strategy").at("blocked").as_int(), 2);
  for (const char* key : {"completion", "residency", "queue",
                          "latency_total", "latency_run", "kernel_backend"}) {
    EXPECT_TRUE(j.has(key)) << key;
  }
  EXPECT_FALSE(j.has("batching"));  // removed in v12: no query groups
}

// -------------------------------------------------------------- service --

TEST(AlignService, AnswersMatchTheSerialReferencePerStrategy) {
  const Sequence subject = make_subject(2500, 11, "chr");
  const Sequence probe = make_probe(subject, 400, 300, 12);
  const std::vector<Candidate> ref = heuristic_scan(probe, subject);

  ServiceConfig cfg;
  cfg.nprocs = 4;
  cfg.verify = true;  // the in-service oracle must agree too
  AlignService service(cfg);
  service.load_subject(subject);
  EXPECT_TRUE(service.has_subject("chr"));

  for (const StrategyKind k :
       {StrategyKind::kBlocked, StrategyKind::kBlockedMp}) {
    QuerySpec spec;
    spec.subject = "chr";
    spec.query = probe;
    spec.strategy = k;
    const auto adm = service.submit(std::move(spec));
    ASSERT_TRUE(adm.admitted());
    const QueryOutcome& out = adm.ticket->wait();
    ASSERT_TRUE(out.ok) << strategy_name(k) << ": " << out.error;
    EXPECT_EQ(out.result.candidates, ref) << strategy_name(k);
  }

  QuerySpec exact;
  exact.subject = "chr";
  exact.query = probe;
  exact.strategy = StrategyKind::kExact;
  const auto adm = service.submit(std::move(exact));
  const QueryOutcome& out = adm.ticket->wait();
  ASSERT_TRUE(out.ok) << out.error;
  const BestLocal ref_best = sw_best_score_linear(probe, subject);
  EXPECT_EQ(out.result.best.score, ref_best.score);
  EXPECT_EQ(out.result.best.end_i, ref_best.end_i);
  EXPECT_EQ(out.result.best.end_j, ref_best.end_j);
}

TEST(AlignService, AutoRunsBlockedMp) {
  // A kAuto subject query runs blocked_mp whatever its shape, a short
  // probe on a long subject included.
  ServiceConfig cfg;
  cfg.nprocs = 2;
  cfg.verify = true;
  AlignService service(cfg);
  for (const std::size_t n : {4000u, 40000u}) {
    const std::string name = "chr" + std::to_string(n);
    const Sequence subject = make_subject(n, 13 + n, name);
    service.load_subject(subject);
    const Sequence probe = make_probe(subject, n / 3, 150, 14 + n);
    QuerySpec spec;
    spec.subject = name;
    spec.query = probe;
    const TicketPtr ticket = service.submit(std::move(spec)).ticket;
    const QueryOutcome& out = ticket->wait();
    ASSERT_TRUE(out.ok) << name << ": " << out.error;
    EXPECT_EQ(out.result.strategy, StrategyKind::kBlockedMp) << name;
    EXPECT_EQ(out.result.candidates, heuristic_scan(probe, subject)) << name;
  }
}

TEST(AlignService, ProcessBackendServesFromTwoWorkers) {
  // The service's worker threads submit to a process-backend cluster: the
  // forked nodes must see each submitter's program intact, whichever
  // worker thread it came from.
  if (!dsm::kProcessBackendRuns) GTEST_SKIP() << "no process backend here";
  const Sequence subject = make_subject(1500, 31, "chr");
  ServiceConfig cfg;
  cfg.nprocs = 3;
  cfg.workers = 2;
  cfg.dsm.backend = dsm::Backend::kProcess;
  AlignService service(cfg);
  service.load_subject(subject);

  std::vector<Sequence> probes;
  std::vector<TicketPtr> tickets;
  for (std::size_t k = 0; k < 6; ++k) {
    probes.push_back(make_probe(subject, 100 + 200 * k, 200, 40 + k));
    QuerySpec spec;
    spec.subject = "chr";
    spec.query = probes.back();
    spec.strategy = k % 2 == 0 ? StrategyKind::kBlocked : StrategyKind::kAuto;
    const auto adm = service.submit(std::move(spec));
    ASSERT_TRUE(adm.admitted());
    tickets.push_back(adm.ticket);
  }
  for (std::size_t k = 0; k < tickets.size(); ++k) {
    const QueryOutcome& out = tickets[k]->wait();
    ASSERT_TRUE(out.ok) << "query " << k << ": " << out.error;
    EXPECT_EQ(out.result.candidates, heuristic_scan(probes[k], subject))
        << "query " << k;
  }
}

TEST(AlignService, SecondQueryOnSameSubjectRunsWarm) {
  // Ten pages of subject, striped over the two nodes.  Each node of a
  // blocked query reads the whole subject, so a cold query faults in every
  // subject page homed on the other node: ten in all, five per node.
  const Sequence subject = make_subject(10 * 4096, 21, "chr");
  const Sequence probe = make_probe(subject, 1000, 250, 22);

  for (const dsm::Backend backend : dsm::testable_backends()) {
    SCOPED_TRACE(backend == dsm::Backend::kThreads ? "threads" : "process");
    ServiceConfig cfg;
    cfg.nprocs = 2;
    cfg.dsm.backend = backend;
    ASSERT_EQ(cfg.dsm.page_bytes, 4096u);
    AlignService service(cfg);
    service.load_subject(subject);

    const auto run_one = [&] {
      QuerySpec spec;
      spec.subject = "chr";
      spec.query = probe;
      spec.strategy = StrategyKind::kBlocked;  // DSM path with residency
      const auto adm = service.submit(std::move(spec));
      const QueryOutcome& out = adm.ticket->wait();
      EXPECT_TRUE(out.ok) << out.error;
      return out.result;
    };
    const QueryResult cold = run_one();
    const QueryResult warm = run_one();
    EXPECT_FALSE(cold.warm);
    EXPECT_TRUE(warm.warm);
    // The resident subject pages survived the job boundary in the caches of
    // the nodes that outlive a job, so the second query hits them instead
    // of re-faulting the genome in.  On the thread backend every node
    // persists, so the warm query skips all ten remote-page faults — more
    // than node 0 alone could save.  On the process backend only node 0
    // (the parent) persists; node 1 is forked fresh per job and re-faults
    // its five, so the guaranteed saving is node 0's share.
    EXPECT_GT(warm.cache_hits, 0u);
    ASSERT_LT(warm.read_faults, cold.read_faults);
    if (backend == dsm::Backend::kThreads) {
      EXPECT_GT(cold.read_faults - warm.read_faults, 5u);
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.warm_queries, 1u);
    EXPECT_EQ(stats.cold_queries, 1u);
  }
}

TEST(AlignService, MpAndExactQueriesNeverRunWarm) {
  // blocked_mp and exact copy the subject out of band and read no DSM page
  // of it, so even after a blocked query warmed the subject they are
  // neither warm nor counted in the residency totals.
  const Sequence subject = make_subject(3000, 23, "chr");
  const Sequence probe = make_probe(subject, 500, 200, 24);
  ServiceConfig cfg;
  cfg.nprocs = 2;
  AlignService service(cfg);
  service.load_subject(subject);
  for (const StrategyKind kind : {StrategyKind::kBlocked,
                                  StrategyKind::kBlockedMp,
                                  StrategyKind::kExact}) {
    QuerySpec spec;
    spec.subject = "chr";
    spec.query = probe;
    spec.strategy = kind;
    const auto adm = service.submit(std::move(spec));
    const QueryOutcome& out = adm.ticket->wait();
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_FALSE(out.result.warm) << strategy_name(kind);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.warm_queries, 0u);
  EXPECT_EQ(stats.cold_queries, 1u);  // the blocked query
}

TEST(AlignService, OneWorkerDispatchesInAdmissionOrder) {
  // Each query is its own dispatch, taken in admission order: a later
  // query on the subject the worker just used never overtakes an earlier
  // one on another subject.
  const Sequence a = make_subject(6000, 31, "a");
  const Sequence b = make_subject(1500, 32, "b");
  const Sequence head_probe = make_probe(a, 500, 1200, 33);
  const Sequence a_probe = make_probe(a, 2000, 150, 34);
  const Sequence b_probe = make_probe(b, 100, 150, 35);

  ServiceConfig cfg;
  cfg.nprocs = 2;
  cfg.workers = 1;  // one dispatcher: queries run one after another
  AlignService service(cfg);
  service.load_subject(a);
  service.load_subject(b);

  // Two clock reads bracket each admission, so a query's dispatch time
  // (admitted + wait_s) and end time (admitted + total_s) are known to
  // within its bracket.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  struct Sent {
    double before = 0;
    double after = 0;
    TicketPtr ticket;
  };
  std::vector<Sent> sent;
  const auto submit = [&](const std::string& subject, const Sequence& probe) {
    QuerySpec spec;
    spec.subject = subject;
    spec.query = probe;
    Sent s;
    s.before = now_s();
    const auto adm = service.submit(std::move(spec));
    s.after = now_s();
    EXPECT_TRUE(adm.admitted());
    s.ticket = adm.ticket;
    sent.push_back(std::move(s));
  };

  // The long head query on A keeps the only worker busy while B, A, B
  // queue behind it.
  submit("a", head_probe);
  submit("b", b_probe);
  submit("a", a_probe);
  submit("b", b_probe);

  for (std::size_t k = 0; k + 1 < sent.size(); ++k) {
    const QueryResult& x = sent[k].ticket->wait().result;
    const QueryOutcome& y = sent[k + 1].ticket->wait();
    ASSERT_TRUE(y.ok) << y.error;
    EXPECT_EQ(y.result.batch_size, 1u);
    // Query k must have ended before query k+1 was dispatched: its
    // earliest possible end is no later than k+1's latest possible
    // dispatch.
    EXPECT_LE(sent[k].before + x.total_s, sent[k + 1].after + y.result.wait_s)
        << "query " << k + 1 << " was dispatched before query " << k
        << " ended";
  }
}

TEST(AlignService, DeadlineExpiredQueriesAreRejectedBeforeDispatch) {
  const Sequence subject = make_subject(4000, 41, "chr");
  const Sequence big_probe = make_probe(subject, 0, 1500, 42);
  const Sequence probe = make_probe(subject, 200, 200, 43);

  ServiceConfig cfg;
  cfg.nprocs = 2;
  cfg.workers = 1;
  AlignService service(cfg);
  service.load_subject(subject);

  QuerySpec head;  // keeps the worker busy so the next query queues
  head.subject = "chr";
  head.query = big_probe;
  const auto head_adm = service.submit(std::move(head));

  QuerySpec doomed;
  doomed.subject = "chr";
  doomed.query = probe;
  doomed.strategy = StrategyKind::kExact;
  doomed.deadline_s = 1e-9;                // expires while queued
  const auto adm = service.submit(std::move(doomed));
  ASSERT_TRUE(adm.admitted());  // admission succeeded; dispatch rejects
  const QueryOutcome& out = adm.ticket->wait();
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, "deadline expired before dispatch");
  EXPECT_TRUE(head_adm.ticket->wait().ok);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.failed, 0u);  // a deadline reject is not a failure
}

TEST(AlignService, FullQueueRejectsWithBackpressure) {
  const Sequence subject = make_subject(2500, 51, "chr");
  const Sequence big_probe = make_probe(subject, 0, 800, 52);

  ServiceConfig cfg;
  cfg.nprocs = 2;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  AlignService service(cfg);
  service.load_subject(subject);

  int rejects = 0;
  std::string reason;
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 4; ++i) {
    QuerySpec spec;
    spec.subject = "chr";
    spec.query = big_probe;
    spec.strategy = StrategyKind::kExact;  // long: the queue stays full
    const auto adm = service.submit(std::move(spec));
    tickets.push_back(adm.ticket);
    if (!adm.admitted()) {
      ++rejects;
      reason = adm.reject;
      // A rejected ticket is resolved immediately with the reason.
      EXPECT_TRUE(adm.ticket->ready());
      EXPECT_FALSE(adm.ticket->wait().ok);
    }
  }
  EXPECT_GT(rejects, 0);
  EXPECT_EQ(reason, "queue full");
  EXPECT_GT(service.stats().rejected_full, 0u);
  for (const auto& t : tickets) t->wait();
}

TEST(AlignService, InjectedFailureIsAbsorbedAndThePoolKeepsServing) {
  const Sequence subject = make_subject(3000, 61, "chr");
  const Sequence probe = make_probe(subject, 300, 250, 62);

  ServiceConfig cfg;
  cfg.nprocs = 2;
  AlignService service(cfg);
  service.load_subject(subject);

  // Warm the subject first so the recovery's cold restart is observable.
  QuerySpec warmup;
  warmup.subject = "chr";
  warmup.query = probe;
  warmup.strategy = StrategyKind::kBlocked;
  EXPECT_TRUE(service.submit(std::move(warmup)).ticket->wait().ok);

  QuerySpec poison;
  poison.subject = "chr";
  poison.query = probe;
  poison.inject_failure_node = 1;
  const TicketPtr poison_ticket = service.submit(std::move(poison)).ticket;
  const QueryOutcome& failed = poison_ticket->wait();
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("injected query failure"), std::string::npos)
      << failed.error;

  // The node pool is back: the same service answers the next query, cold
  // again (the failed job dropped every cached frame).
  QuerySpec after;
  after.subject = "chr";
  after.query = probe;
  after.strategy = StrategyKind::kBlocked;
  const TicketPtr after_ticket = service.submit(std::move(after)).ticket;
  const QueryOutcome& out = after_ticket->wait();
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_FALSE(out.result.warm);
  EXPECT_EQ(out.result.candidates, heuristic_scan(probe, subject));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
}

TEST(AlignService, UnknownSubjectFailsTheQueryNotTheService) {
  ServiceConfig cfg;
  cfg.nprocs = 2;
  AlignService service(cfg);
  service.load_subject(make_subject(2000, 71, "known"));

  QuerySpec spec;
  spec.subject = "missing";
  spec.query = make_subject(100, 72, "probe");
  const TicketPtr ticket = service.submit(std::move(spec)).ticket;
  const QueryOutcome& out = ticket->wait();
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("unknown subject"), std::string::npos);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(AlignService, DbScanOnASubjectQueryFailsWithAnError) {
  ServiceConfig cfg;
  cfg.nprocs = 2;
  AlignService service(cfg);
  service.load_subject(make_subject(1000, 75, "chr"));

  QuerySpec spec;
  spec.subject = "chr";
  spec.query = make_subject(100, 76, "probe");
  spec.strategy = StrategyKind::kDbScan;
  const TicketPtr ticket = service.submit(std::move(spec)).ticket;
  const QueryOutcome& out = ticket->wait();
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.error.empty());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.recoveries, 0u);  // rejected before any cluster job
  // The report names the backend the kernels dispatch to.
  EXPECT_EQ(stats.kernel_backend, simd::active_backend_name());
}

TEST(AlignService, LoadSubjectRejectsDuplicatesAndAnonymous) {
  ServiceConfig cfg;
  cfg.nprocs = 2;
  AlignService service(cfg);
  service.load_subject(make_subject(1000, 81, "chr"));
  EXPECT_THROW(service.load_subject(make_subject(1000, 82, "chr")),
               std::invalid_argument);
  Sequence anonymous = make_subject(1000, 83, "x");
  anonymous.set_name("");
  EXPECT_THROW(service.load_subject(anonymous), std::invalid_argument);
}

TEST(AlignService, ShutdownRejectsNewQueriesAndDrains) {
  const Sequence subject = make_subject(2000, 91, "chr");
  const Sequence probe = make_probe(subject, 100, 200, 92);

  ServiceConfig cfg;
  cfg.nprocs = 2;
  AlignService service(cfg);
  service.load_subject(subject);
  QuerySpec spec;
  spec.subject = "chr";
  spec.query = probe;
  const auto adm = service.submit(std::move(spec));
  service.shutdown();
  EXPECT_TRUE(adm.ticket->ready());  // admitted work was drained first
  QuerySpec late;
  late.subject = "chr";
  late.query = probe;
  const auto rejected = service.submit(std::move(late));
  EXPECT_FALSE(rejected.admitted());
  EXPECT_EQ(rejected.reject, "service shutting down");
  EXPECT_FALSE(rejected.ticket->wait().ok);
}

}  // namespace
}  // namespace gdsm::svc
