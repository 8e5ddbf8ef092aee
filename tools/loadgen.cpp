// loadgen: seeded open-loop load generator for the alignment service.
//
// Arrivals are generated on a fixed seeded schedule (exponential
// inter-arrival times at `--rate` queries/s) regardless of how fast the
// service drains them — the open-loop discipline that actually exposes
// queueing: when the service falls behind, the admission queue fills and
// try_push rejects with backpressure instead of the generator slowing down.
//
// Every completed query is verified against its single-query serial
// reference (heuristic_scan_reference / sw_best_score_linear) computed
// independently here; any mismatch fails the run.  `--report=<path>` writes a
// gdsm.run_report v3 document with throughput, latency and the full
// "service" section.
//
//   loadgen --rate=40 --duration-s=5 --verify-all --report=loadgen.json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "db/db_align.h"
#include "db/subject_db.h"
#include "obs/report.h"
#include "svc/service.h"
#include "sw/affine.h"
#include "sw/heuristic_scan.h"
#include "sw/linear_score.h"
#include "util/args.h"
#include "util/fasta.h"
#include "util/genome.h"
#include "util/rng.h"

namespace {

using gdsm::obs::Json;
using gdsm::svc::StrategyKind;

constexpr const char* kUsage =
    "usage: loadgen [--rate=QPS] [--duration-s=S] [--subjects=K]\n"
    "               [--subject-len=L] [--query-len=L] [--seed=S] [--procs=P]\n"
    "               [--workers=W] [--queue-cap=C]\n"
    "               [--deadline-s=D] [--exact-every=N] [--no-verify]\n"
    "               [--gap=MODEL] [--gap-open=O] [--gap-extend=E]\n"
    "               [--min-in-flight=N] [--db=FASTA | --db-gen=K]\n"
    "               [--min-score=N] [--report=PATH] [--quiet]\n"
    "  open-loop: arrivals follow the seeded schedule even when the service\n"
    "  falls behind; backpressure rejects are counted, not retried.\n"
    "  --exact-every=N    every Nth query runs the exact strategy (0 = never)\n"
    "  --gap=MODEL        linear (default) | affine | mixed: gap model of the\n"
    "                     offered queries (mixed alternates per arrival)\n"
    "  --min-in-flight=N  fail unless N queries were ever in flight at once\n"
    "  --db / --db-gen    offer database-scan traffic instead of subject\n"
    "                     queries: a FASTA database (or K generated\n"
    "                     sequences of --subject-len bases) served through\n"
    "                     the filtered sharded scan; each completed query is\n"
    "                     verified against the serial all-pairs oracle\n";

struct Flight {
  std::size_t subject_idx = 0;
  gdsm::Sequence query;
  StrategyKind strategy = StrategyKind::kAuto;
  gdsm::ScoreScheme scheme{};  ///< gap model this arrival carried
  gdsm::svc::TicketPtr ticket;
};

}  // namespace

int main(int argc, char** argv) {
  const gdsm::Args args(argc, argv,
                        {"rate", "duration-s", "subjects", "subject-len",
                         "query-len", "seed", "procs", "workers", "queue-cap",
                         "deadline-s", "exact-every", "gap", "gap-open",
                         "gap-extend", "min-in-flight", "db", "db-gen",
                         "min-score", "report"});
  const auto unknown = args.unknown_keys(
      {"rate", "duration-s", "subjects", "subject-len", "query-len", "seed",
       "procs", "workers", "queue-cap", "deadline-s", "exact-every", "gap",
       "gap-open", "gap-extend", "min-in-flight", "db", "db-gen",
       "min-score", "no-verify", "report", "quiet", "help"});
  if (!unknown.empty() || args.get_bool("help")) {
    std::cerr << kUsage;
    return unknown.empty() ? 0 : 2;
  }

  // Counts and lengths must be positive: zero subjects would divide by zero
  // when a probe picks its subject, a zero-length subject cannot load, and
  // a negative value would wrap to a huge size (a negative --db-gen would
  // generate sequences until memory runs out; a negative --queue-cap would
  // admit without bound).
  for (const char* key : {"subjects", "subject-len", "query-len", "db-gen",
                          "procs", "workers", "queue-cap"}) {
    if (args.get_int(key, 1) < 1) {
      std::cerr << "loadgen: --" << key << " must be positive\n";
      return 2;
    }
  }

  const double rate = args.get_double("rate", 20.0);
  const double duration_s = args.get_double("duration-s", 5.0);
  const auto n_subjects = static_cast<std::size_t>(args.get_int("subjects", 2));
  const auto subject_len =
      static_cast<std::size_t>(args.get_int("subject-len", 3000));
  const auto query_len =
      static_cast<std::size_t>(args.get_int("query-len", 300));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto exact_every =
      static_cast<std::size_t>(args.get_int("exact-every", 0));
  const bool verify = !args.get_bool("no-verify");
  const bool quiet = args.get_bool("quiet");
  if (rate <= 0 || duration_s <= 0) {
    std::cerr << "loadgen: --rate and --duration-s must be positive\n";
    return 2;
  }

  const std::string gap_mode = args.get("gap", "linear");
  if (gap_mode != "linear" && gap_mode != "affine" && gap_mode != "mixed") {
    std::cerr << "loadgen: unknown --gap\n" << kUsage;
    return 2;
  }
  gdsm::ScoreScheme affine_scheme;
  affine_scheme.gap_open = static_cast<int>(args.get_int("gap-open", -3));
  affine_scheme.gap = static_cast<int>(args.get_int("gap-extend", -1));
  if (gap_mode != "linear" && !affine_scheme.affine()) {
    std::cerr << "loadgen: --gap=" << gap_mode
              << " needs a non-zero --gap-open\n";
    return 2;
  }

  gdsm::svc::ServiceConfig cfg;
  cfg.nprocs = static_cast<int>(args.get_int("procs", 4));
  cfg.workers = static_cast<int>(args.get_int("workers", 2));
  cfg.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap", 64));
  gdsm::svc::AlignService service(cfg);

  const bool db_mode = args.has("db") || args.has("db-gen");
  const int min_score = static_cast<int>(args.get_int("min-score", 40));

  gdsm::Rng rng(seed);
  std::vector<gdsm::Sequence> subjects;  // db mode: the database sequences
  gdsm::db::SubjectDb reference_db;      // db mode: the verify oracle's copy
  if (db_mode) {
    if (args.has("db")) {
      try {
        subjects = gdsm::read_fasta_file(args.get("db"));
      } catch (const std::exception& e) {
        std::cerr << "loadgen: cannot read --db FASTA: " << e.what() << "\n";
        return 2;
      }
    } else {
      const auto n = static_cast<std::size_t>(args.get_int("db-gen", 4));
      for (std::size_t k = 0; k < n; ++k) {
        subjects.push_back(
            gdsm::random_dna(subject_len, rng, "db" + std::to_string(k)));
      }
    }
    if (subjects.empty()) {
      std::cerr << "loadgen: the database has no sequences\n";
      return 2;
    }
    service.load_db("db", subjects);
    if (verify) reference_db = gdsm::db::SubjectDb(subjects);
  } else {
    for (std::size_t k = 0; k < n_subjects; ++k) {
      gdsm::Sequence subject =
          gdsm::random_dna(subject_len, rng, "subject" + std::to_string(k));
      service.load_subject(subject);
      subjects.push_back(std::move(subject));
    }
  }

  // Open loop: the whole arrival schedule is derived from the seed before
  // any query runs, so two loadgen runs offer identical traffic.
  std::vector<double> arrival_s;
  for (double t = 0;;) {
    const double u =
        (static_cast<double>(rng() >> 11) + 0.5) * 0x1p-53;  // (0, 1)
    t += -std::log(u) / rate;  // exponential inter-arrival
    if (t >= duration_s) break;
    arrival_s.push_back(t);
  }

  std::vector<Flight> flights;
  flights.reserve(arrival_s.size());
  std::uint64_t offered = 0, rejected = 0;
  std::size_t max_in_flight = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const double at : arrival_s) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(at)));
    Flight f;
    f.subject_idx = rng() % subjects.size();
    const gdsm::Sequence& subject = subjects[f.subject_idx];
    const std::size_t len = std::min(query_len, subject.size());
    if (db_mode && offered % 2 == 1) {
      // Half the offered database traffic is pure random probes, so the
      // filtration front-end sees both regimes under load.
      f.query = gdsm::random_dna(len, rng, "probe" + std::to_string(offered));
    } else {
      const std::size_t begin =
          len < subject.size() ? rng() % (subject.size() - len) : 0;
      f.query =
          gdsm::mutate(subject.slice(begin, begin + len), 0.05, 0.01, rng);
      f.query.set_name("probe" + std::to_string(offered));
    }
    if (!db_mode && exact_every != 0 && (offered + 1) % exact_every == 0) {
      f.strategy = StrategyKind::kExact;
    }
    if (gap_mode == "affine" || (gap_mode == "mixed" && offered % 2 == 1)) {
      f.scheme = affine_scheme;
    }
    gdsm::svc::QuerySpec spec;
    if (db_mode) {
      spec.database = "db";
      spec.min_score = min_score;
    } else {
      spec.subject = subject.name();
      spec.strategy = f.strategy;
    }
    spec.query = f.query;
    spec.scheme = f.scheme;
    spec.deadline_s = args.get_double("deadline-s", 0.0);
    gdsm::svc::AlignService::Admission adm = service.submit(std::move(spec));
    ++offered;
    if (!adm.admitted()) {
      ++rejected;
      continue;
    }
    f.ticket = std::move(adm.ticket);
    flights.push_back(std::move(f));
    std::size_t in_flight = 0;
    for (const Flight& fl : flights) {
      if (!fl.ticket->ready()) ++in_flight;
    }
    max_in_flight = std::max(max_in_flight, in_flight);
  }

  service.drain();

  // Judge every admitted query against its independently computed
  // single-query reference.
  std::uint64_t completed = 0, failed = 0, mismatches = 0;
  std::vector<Json> rows;
  rows.reserve(flights.size());
  for (const Flight& f : flights) {
    const gdsm::svc::QueryOutcome& out = f.ticket->wait();
    Json row = Json::object();
    row.set("id", out.result.id);
    row.set("ok", out.ok);
    row.set("gap_model", gdsm::gap_model_name(f.scheme.gap_model()));
    if (out.ok) {
      row.set("strategy", gdsm::svc::strategy_name(out.result.strategy));
      row.set("warm", out.result.warm);
      row.set("wait_s", out.result.wait_s);
      row.set("total_s", out.result.total_s);
    } else {
      row.set("error", out.error);
    }
    rows.push_back(std::move(row));
    if (!out.ok) {
      ++failed;
      if (!quiet) std::cout << "loadgen: query failed: " << out.error << "\n";
      continue;
    }
    ++completed;
    if (!verify) continue;
    const gdsm::Sequence& subject = subjects[f.subject_idx];
    if (db_mode) {
      // The filtered sharded scan must reproduce the serial all-pairs hit
      // set exactly (same oracle as tests/db_test.cpp).
      if (out.result.db_hits !=
          gdsm::db::brute_force_hits(reference_db, f.query, f.scheme,
                                     min_score)) {
        ++mismatches;
        std::cout << "loadgen: ORACLE MISMATCH (db hits) on query "
                  << out.result.id << "\n";
      }
    } else if (out.result.strategy == StrategyKind::kExact) {
      // Affine queries are judged by the serial scalar Gotoh scan, which
      // shares no code with the SIMD kernels the service dispatched.
      const gdsm::BestLocal ref =
          f.scheme.affine()
              ? gdsm::sw_best_score_affine_linear(f.query, subject,
                                                  gdsm::to_affine(f.scheme))
              : gdsm::sw_best_score_linear(f.query, subject, f.scheme);
      if (ref.score != out.result.best.score ||
          ref.end_i != out.result.best.end_i ||
          ref.end_j != out.result.best.end_j) {
        ++mismatches;
        std::cout << "loadgen: ORACLE MISMATCH (exact) on query "
                  << out.result.id << "\n";
      }
    } else if (gdsm::heuristic_scan_reference(f.query, subject, f.scheme) !=
               out.result.candidates) {
      ++mismatches;
      std::cout << "loadgen: ORACLE MISMATCH (candidates) on query "
                << out.result.id << " via "
                << gdsm::svc::strategy_name(out.result.strategy) << "\n";
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const gdsm::svc::ServiceStats stats = service.stats();
  service.shutdown();

  const double throughput =
      wall_s > 0 ? static_cast<double>(completed) / wall_s : 0;
  if (!quiet) {
    std::cout << "loadgen: offered " << offered << ", completed " << completed
              << ", rejected " << rejected << ", failed " << failed
              << ", mismatches " << mismatches << "\n"
              << "  throughput " << throughput << " q/s, max in-flight "
              << max_in_flight << ", p50 "
              << stats.total_latency.quantile(0.5) * 1e3 << " ms, p99 "
              << stats.total_latency.quantile(0.99) * 1e3 << " ms\n";
  }

  if (args.has("report")) {
    gdsm::obs::RunReport report("loadgen",
                                "Open-loop service load generation");
    report.set_param("rate_qps", rate);
    report.set_param("duration_s", duration_s);
    report.set_param("subjects", args.get_int("subjects", 2));
    report.set_param("subject_len", args.get_int("subject-len", 3000));
    report.set_param("query_len", args.get_int("query-len", 300));
    report.set_param("seed", args.get_int("seed", 42));
    report.set_param("procs", args.get_int("procs", 4));
    report.set_param("workers", args.get_int("workers", 2));
    report.set_param("gap", gap_mode);
    if (gap_mode != "linear") {
      report.set_param("gap_open", affine_scheme.gap_open);
      report.set_param("gap_extend", affine_scheme.gap);
    }
    report.set_param("verify", verify);
    if (db_mode) {
      report.set_param("db", args.has("db") ? args.get("db") : "generated");
      report.set_param("db_sequences", subjects.size());
      report.set_param("min_score", min_score);
    }
    report.set_param("host_clock", true);  // wall-clock arrivals + latencies
    report.metrics().set("offered", offered);
    report.metrics().set("completed", completed);
    report.metrics().set("rejected", rejected);
    report.metrics().set("failed", failed);
    report.metrics().set("mismatches", mismatches);
    report.metrics().set("throughput_qps", throughput);
    report.metrics().set("max_in_flight", max_in_flight);
    report.metrics().set("latency.p50_s", stats.total_latency.quantile(0.5));
    report.metrics().set("latency.p99_s", stats.total_latency.quantile(0.99));
    for (Json& row : rows) report.add_row("queries", std::move(row));
    report.set_section("service", stats.to_json());
    if (!report.write_file(args.get("report"))) return 2;
  }
  const auto min_in_flight =
      static_cast<std::size_t>(args.get_int("min-in-flight", 0));
  if (max_in_flight < min_in_flight) {
    std::cout << "loadgen: max in-flight " << max_in_flight << " < required "
              << min_in_flight << " (raise --rate or lower --workers)\n";
    return 1;
  }
  return mismatches == 0 && failed == 0 ? 0 : 1;
}
