// fuzz_align: differential fuzzer over (genome seed, fault plan) pairs.
//
// Replay one exact case (the line a previous run printed):
//   fuzz_align --seed=7 --faults="drop=0.2,retries=3,backoff_us=80"
//
// Fuzz for a time budget over the standard fault-plan matrix:
//   fuzz_align --budget-s=30
//
// Every case runs the cross-strategy differential oracle (src/testing): the
// serial references judge wavefront, blocked, blocked_mp and exact_parallel
// on the same seeded genome pair under the same fault plan.  On divergence
// the case is minimized and the exact `--seed=... --faults=...` repro line
// is printed; the exit code is 1.  `--report=<path>` additionally writes a
// gdsm.run_report JSON document (docs/METRICS.md).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "obs/report.h"
#include "obs/snapshots.h"
#include "svc/service.h"
#include "testing/db_oracle.h"
#include "testing/oracle.h"
#include "util/args.h"

namespace {

using gdsm::obs::Json;

constexpr const char* kUsage =
    "usage: fuzz_align [--seed=N] [--faults=SPEC] [--budget-s=S]\n"
    "                  [--len=N] [--procs=P] [--regions=R]\n"
    "                  [--strategies=MASK] [--service] [--report=PATH]\n"
    "                  [--quiet]\n"
    "  --seed + --faults  replay one case and exit (0 = match, 1 = diverged)\n"
    "  --budget-s         fuzz new (seed, plan) pairs for S seconds\n"
    "  --faults           fault-plan spec, e.g. \"drop=0.2,retries=3\" or "
    "\"none\"\n"
    "  --service          run each case through the alignment service\n"
    "                     (admission + dispatch + persistent cluster)\n"
    "                     instead of calling the strategies directly\n"
    "  --db               fuzz the database scan instead: db_query vs the\n"
    "                     serial all-pairs oracle (--db-seqs, --queries,\n"
    "                     --query-len, --min-score size the cases; --len is\n"
    "                     the per-sequence length)\n";

gdsm::testing::OracleCase base_case(const gdsm::Args& args) {
  gdsm::testing::OracleCase c;
  c.length_s = c.length_t =
      static_cast<std::size_t>(args.get_int("len", 600));
  c.nprocs = static_cast<int>(args.get_int("procs", 4));
  c.n_regions = static_cast<std::size_t>(args.get_int("regions", 4));
  // A tight reply timeout keeps the retry layer exercised whenever the plan
  // delays traffic; harmless (zero counters) when the plan is empty.
  c.retry.timeout_us = 2000;
  return c;
}

Json case_row(const gdsm::testing::OracleCase& c,
              const gdsm::testing::OracleVerdict& v) {
  Json row = Json::object();
  row.set("seed", c.seed);
  row.set("faults", c.faults.to_string());
  row.set("ok", v.ok);
  row.set("serial_best", v.serial_best);
  row.set("serial_candidates", v.serial_candidates);
  Json outcomes = Json::array();
  for (const auto& o : v.outcomes) {
    if (!o.ran) continue;
    Json oj = Json::object();
    oj.set("strategy", o.name);
    oj.set("ok", o.ok());
    oj.set("best_score", o.best_score);
    oj.set("faults", gdsm::obs::to_json(o.faults));
    outcomes.push(std::move(oj));
  }
  row.set("outcomes", std::move(outcomes));
  return row;
}

/// The service-path twin of testing::run_differential: the case's genome
/// pair is replayed through admission, dispatch and the persistent
/// cluster (one submit per unmasked strategy, all in flight together so
/// the service's workers run them concurrently), and every answer is
/// judged against the serial references.  The fault plan rides on the
/// service cluster's transport.
gdsm::testing::OracleVerdict run_service_case(
    const gdsm::testing::OracleCase& c, unsigned mask) {
  namespace svc = gdsm::svc;
  gdsm::testing::OracleVerdict v;

  const gdsm::HomologousPair pair = c.make_pair();
  gdsm::Sequence subject = pair.t;
  subject.set_name("t");

  // The scalar kernel whatever GDSM_KERNEL says (see testing/oracle.cpp).
  const std::vector<gdsm::Candidate> ref_candidates =
      gdsm::heuristic_scan_reference(pair.s, subject, c.scheme, c.params);
  const gdsm::BestLocal ref_best =
      gdsm::sw_best_score_linear(pair.s, subject, c.scheme);
  v.serial_best = ref_best.score;
  v.serial_candidates = ref_candidates.size();
  if (!ref_candidates.empty()) {
    for (const auto& cand : ref_candidates) {
      v.serial_heuristic_best = std::max(v.serial_heuristic_best, cand.score);
    }
  }

  svc::ServiceConfig scfg;
  scfg.nprocs = c.nprocs;
  scfg.dsm.retry = c.retry;
  scfg.dsm.faults = c.faults;
  svc::AlignService service(scfg);
  service.load_subject(subject);

  struct Probe {
    unsigned bit;
    svc::StrategyKind kind;
    const char* name;
  };
  const Probe probes[] = {
      {gdsm::testing::kBlocked, svc::StrategyKind::kBlocked, "blocked"},
      {gdsm::testing::kBlockedMp, svc::StrategyKind::kBlockedMp, "blocked_mp"},
      {gdsm::testing::kExactParallel, svc::StrategyKind::kExact, "exact"},
  };

  std::vector<std::pair<const Probe*, svc::TicketPtr>> in_flight;
  for (const Probe& p : probes) {
    gdsm::testing::StrategyOutcome o;
    o.name = std::string("service.") + p.name;
    o.ran = (mask & p.bit) != 0;
    v.outcomes.push_back(std::move(o));
    if ((mask & p.bit) == 0) continue;
    svc::QuerySpec spec;
    spec.subject = subject.name();
    spec.query = pair.s;
    spec.strategy = p.kind;
    spec.scheme = c.scheme;
    spec.params = c.params;
    svc::AlignService::Admission adm = service.submit(std::move(spec));
    if (!adm.admitted()) {
      v.outcomes.back().score_ok = false;
      v.outcomes.back().detail = "admission rejected: " + adm.reject;
      continue;
    }
    in_flight.emplace_back(&p, std::move(adm.ticket));
  }

  for (auto& [p, ticket] : in_flight) {
    const svc::QueryOutcome& out = ticket->wait();
    gdsm::testing::StrategyOutcome* o = nullptr;
    for (auto& candidate_o : v.outcomes) {
      if (candidate_o.name == std::string("service.") + p->name) {
        o = &candidate_o;
      }
    }
    if (!out.ok) {
      o->score_ok = false;
      o->detail = "query failed: " + out.error;
      continue;
    }
    if (p->kind == svc::StrategyKind::kExact) {
      o->best_score = out.result.best.score;
      if (out.result.best.score != ref_best.score ||
          out.result.best.end_i != ref_best.end_i ||
          out.result.best.end_j != ref_best.end_j) {
        o->score_ok = false;
        o->detail = "exact best != sw_best_score_linear";
      }
    } else {
      for (const auto& cand : out.result.candidates) {
        o->best_score = std::max(o->best_score, cand.score);
      }
      if (out.result.candidates != ref_candidates) {
        o->regions_ok = false;
        o->detail = "candidate queue != heuristic_scan_reference";
      }
    }
  }
  service.shutdown();

  for (const auto& o : v.outcomes) v.ok = v.ok && o.ok();
  return v;
}

gdsm::testing::DbOracleCase base_db_case(const gdsm::Args& args) {
  gdsm::testing::DbOracleCase c;
  c.n_sequences = static_cast<std::size_t>(args.get_int("db-seqs", 4));
  c.seq_len = static_cast<std::size_t>(args.get_int("len", 600));
  c.n_queries = static_cast<std::size_t>(args.get_int("queries", 5));
  c.query_len = static_cast<std::size_t>(args.get_int("query-len", 120));
  c.min_score = static_cast<int>(args.get_int("min-score", 30));
  c.nprocs = static_cast<int>(args.get_int("procs", 4));
  c.retry.timeout_us = 2000;
  return c;
}

Json db_case_row(const gdsm::testing::DbOracleCase& c,
                 const gdsm::testing::DbOracleVerdict& v) {
  Json row = Json::object();
  row.set("seed", c.seed);
  row.set("faults", c.faults.to_string());
  row.set("ok", v.ok);
  row.set("queries", v.queries);
  row.set("mismatched_queries", v.mismatched_queries);
  row.set("hits", v.total_hits);
  row.set("fragments_scanned", v.fragments_scanned);
  row.set("fragments_rejected", v.fragments_rejected);
  return row;
}

void report_db_divergence(const gdsm::testing::DbOracleCase& failing,
                          const gdsm::testing::DbOracleVerdict& verdict) {
  const gdsm::testing::DbOracleCase small = gdsm::testing::minimize_db(failing);
  std::cout << "DIVERGENCE (" << failing.to_string() << ")\n"
            << verdict.summary() << "\nminimized repro:\n"
            << "  fuzz_align --db --seed=" << small.seed << " --db-seqs="
            << small.n_sequences << " --len=" << small.seq_len << " --queries="
            << small.n_queries << " --query-len=" << small.query_len
            << " --min-score=" << small.min_score << " --procs="
            << small.nprocs << " --faults=\"" << small.faults.to_string()
            << "\"\n";
}

void report_divergence(const gdsm::testing::OracleCase& failing,
                       const gdsm::testing::OracleVerdict& verdict,
                       unsigned mask, bool service) {
  std::cout << "DIVERGENCE (" << failing.to_string() << ")\n"
            << verdict.summary();
  if (service) {
    // The minimizer replays through the direct strategy calls, which a
    // service-path divergence may not reproduce — print the case verbatim.
    std::cout << "repro:\n"
              << "  fuzz_align --service --seed=" << failing.seed << " --len="
              << failing.length_s << " --procs=" << failing.nprocs
              << " --regions=" << failing.n_regions << " --faults=\""
              << failing.faults.to_string() << "\"\n";
    return;
  }
  const gdsm::testing::OracleCase small =
      gdsm::testing::minimize(failing, mask);
  std::cout << "minimized repro:\n"
            << "  fuzz_align --seed=" << small.seed << " --len="
            << small.length_s << " --procs=" << small.nprocs << " --regions="
            << small.n_regions << " --faults=\"" << small.faults.to_string()
            << "\"\n";
}

}  // namespace

int main(int argc, char** argv) {
  const gdsm::Args args(argc, argv,
                        {"seed", "faults", "budget-s", "len", "procs",
                         "regions", "strategies", "db-seqs", "queries",
                         "query-len", "min-score", "report"});
  const auto unknown = args.unknown_keys({"seed", "faults", "budget-s", "len",
                                          "procs", "regions", "strategies",
                                          "service", "db", "db-seqs",
                                          "queries", "query-len", "min-score",
                                          "report", "quiet"});
  if (!unknown.empty()) {
    std::cerr << "fuzz_align: unknown option --" << unknown.front() << "\n"
              << kUsage;
    return 2;
  }
  const bool quiet = args.get_bool("quiet", false);
  const bool service = args.get_bool("service", false);
  const bool db_mode = args.get_bool("db", false);
  if (service && db_mode) {
    std::cerr << "fuzz_align: --service and --db are mutually exclusive\n";
    return 2;
  }
  const auto mask =
      static_cast<unsigned>(args.get_int("strategies",
                                         gdsm::testing::kAllStrategies));

  gdsm::obs::RunReport report("fuzz_align",
                              "Cross-strategy differential fuzzing");
  report.set_param("service", service);
  report.set_param("db", db_mode);
  report.set_param("len", args.get_int("len", 600));
  report.set_param("procs", args.get_int("procs", 4));
  report.set_param("regions", args.get_int("regions", 4));
  // Verdicts and scores replay deterministically, but the embedded fault
  // counters depend on live thread interleaving (how many retransmissions a
  // retry window catches varies run-to-run) — flag the report accordingly.
  report.set_param("host_clock", true);

  int divergences = 0;
  std::size_t cases = 0;

  const auto run_db_case = [&](gdsm::testing::DbOracleCase c) {
    const gdsm::testing::DbOracleVerdict v = run_db_differential(c);
    ++cases;
    report.add_row("cases", db_case_row(c, v));
    if (v.ok) {
      if (!quiet) {
        std::cout << "ok: " << c.to_string() << " (" << v.summary() << ")\n";
      }
    } else {
      ++divergences;
      report_db_divergence(c, v);
    }
    return v.ok;
  };

  const auto run_case = [&](gdsm::testing::OracleCase c) {
    const gdsm::testing::OracleVerdict v =
        service ? run_service_case(c, mask)
                : gdsm::testing::run_differential(c, mask);
    ++cases;
    report.add_row("cases", case_row(c, v));
    if (v.ok) {
      if (!quiet) {
        std::cout << "ok: " << c.to_string() << " (serial best "
                  << v.serial_best << ", " << v.serial_candidates
                  << " candidates)\n";
      }
    } else {
      ++divergences;
      report_divergence(c, v, mask, service);
    }
    return v.ok;
  };

  if (args.has("seed")) {
    // Replay mode: one exact (seed, plan) case.
    gdsm::net::FaultPlan plan;
    try {
      plan = gdsm::net::FaultPlan::parse(args.get("faults", "none"));
    } catch (const std::exception& e) {
      std::cerr << "fuzz_align: bad --faults spec: " << e.what() << "\n";
      return 2;
    }
    if (db_mode) {
      gdsm::testing::DbOracleCase c = base_db_case(args);
      c.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      c.faults = plan;
      run_db_case(c);
    } else {
      gdsm::testing::OracleCase c = base_case(args);
      c.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      c.faults = plan;
      run_case(c);
    }
  } else if (db_mode) {
    // Database fuzz mode: sweep seeds over the standard plan matrix, same
    // discipline as the strategy fuzz below.
    const double budget_s = args.get_double("budget-s", 10.0);
    const auto t0 = std::chrono::steady_clock::now();
    const auto elapsed_s = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    report.set_param("budget_s", budget_s);
    std::uint64_t seed = 1;
    while (elapsed_s() < budget_s) {
      gdsm::testing::DbOracleCase c = base_db_case(args);
      c.seed = seed;
      c.faults = gdsm::net::FaultPlan{};  // baseline: no faults
      if (!run_db_case(c) && elapsed_s() >= budget_s) break;
      for (gdsm::net::FaultPlan& plan :
           gdsm::testing::standard_fault_plans(seed * 1000)) {
        if (elapsed_s() >= budget_s) break;
        c.faults = plan;
        run_db_case(c);
      }
      ++seed;
    }
    report.set_param("seeds_swept", seed - 1);
  } else {
    // Fuzz mode: sweep seeds over the standard plan matrix until the budget
    // runs out.  Plans are re-derived per seed so their decision chains
    // differ between iterations too.
    const double budget_s = args.get_double("budget-s", 10.0);
    const auto t0 = std::chrono::steady_clock::now();
    const auto elapsed_s = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    report.set_param("budget_s", budget_s);
    std::uint64_t seed = 1;
    while (elapsed_s() < budget_s) {
      gdsm::testing::OracleCase c = base_case(args);
      c.seed = seed;
      c.faults = gdsm::net::FaultPlan{};  // baseline: no faults
      if (!run_case(c) && elapsed_s() >= budget_s) break;
      for (gdsm::net::FaultPlan& plan :
           gdsm::testing::standard_fault_plans(seed * 1000)) {
        if (elapsed_s() >= budget_s) break;
        c.faults = plan;
        run_case(c);
      }
      ++seed;
    }
    report.set_param("seeds_swept", seed - 1);
  }

  report.metrics().set("cases", cases);
  report.metrics().set("divergences", divergences);
  if (args.has("report") && !report.write_file(args.get("report"))) return 2;

  std::cout << "fuzz_align: " << cases << " case(s), " << divergences
            << " divergence(s)\n";
  return divergences == 0 ? 0 : 1;
}
