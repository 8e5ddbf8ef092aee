// align_serve: command-line front end of the multi-query alignment service
// (src/svc, docs/SERVICE.md).
//
// Loads one or more seeded subject genomes into the persistent DSM cluster,
// submits a batch of seeded probe queries through admission, and prints each
// outcome plus the service counters.  The default strategy is `auto`
// (blocked_mp for subject queries, db_scan for database ones); `--verify`
// re-derives every answer with the serial reference.  `--report=<path>`
// writes a gdsm.run_report v3 document with the "service" section
// (docs/METRICS.md).
//
//   align_serve --subjects=2 --queries=12 --subject-len=4000
//               --query-len=400 --verify --report=serve.json
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/report.h"
#include "svc/service.h"
#include "util/args.h"
#include "util/fasta.h"
#include "util/genome.h"
#include "util/rng.h"

namespace {

using gdsm::obs::Json;
using gdsm::svc::StrategyKind;

constexpr const char* kUsage =
    "usage: align_serve [--subjects=K] [--queries=N] [--subject-len=L]\n"
    "                   [--query-len=L] [--seed=S] [--procs=P] [--workers=W]\n"
    "                   [--queue-cap=C] [--strategy=NAME]\n"
    "                   [--gap=MODEL] [--gap-open=O] [--gap-extend=E]\n"
    "                   [--deadline-s=D] [--verify] [--report=PATH] [--quiet]\n"
    "                   [--db=FASTA | --db-gen=K] [--min-score=N]\n"
    "  --strategy  auto (= blocked_mp) | blocked | blocked_mp | exact\n"
    "  --gap       linear (default) | affine | mixed (alternate per query);\n"
    "              affine charges gap-open O (default -3) once per gap run\n"
    "              plus gap-extend E (default -1) per space\n"
    "  --db        serve a multi-sequence subject DATABASE from a FASTA file\n"
    "              instead of resident subjects: queries run the filtered\n"
    "              sharded scan and report per-fragment hits >= --min-score\n"
    "              (default 40).  --db-gen=K generates a seeded K-sequence\n"
    "              database of --subject-len bases each instead of reading\n"
    "              a file.\n";

bool parse_strategy(const std::string& name, StrategyKind& out) {
  for (int k = 0; k < gdsm::svc::kNumStrategies; ++k) {
    const auto kind = static_cast<StrategyKind>(k);
    if (name == gdsm::svc::strategy_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

/// A probe: a random slice of the subject, mutated, so it genuinely aligns.
gdsm::Sequence make_probe(const gdsm::Sequence& subject, std::size_t len,
                          gdsm::Rng& rng, std::uint64_t id) {
  len = std::min(len, subject.size());
  const std::size_t begin =
      len < subject.size() ? rng() % (subject.size() - len) : 0;
  gdsm::Sequence probe =
      gdsm::mutate(subject.slice(begin, begin + len), 0.05, 0.01, rng);
  probe.set_name("probe" + std::to_string(id));
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  const gdsm::Args args(argc, argv,
                        {"subjects", "queries", "subject-len", "query-len",
                         "seed", "procs", "workers", "queue-cap", "strategy",
                         "gap", "gap-open", "gap-extend", "deadline-s", "db",
                         "db-gen", "min-score", "report"});
  const auto unknown = args.unknown_keys(
      {"subjects", "queries", "subject-len", "query-len", "seed", "procs",
       "workers", "queue-cap", "strategy", "gap", "gap-open", "gap-extend",
       "deadline-s", "db", "db-gen", "min-score", "verify", "report", "quiet",
       "help"});
  if (!unknown.empty() || args.get_bool("help")) {
    std::cerr << kUsage;
    return unknown.empty() ? 0 : 2;
  }

  // Counts and lengths must be positive: zero subjects would divide by zero
  // when a probe picks its subject, a zero-length subject cannot load, and
  // a negative value would wrap to a huge size (a negative --db-gen would
  // generate sequences until memory runs out; a negative --queue-cap would
  // admit without bound).
  for (const char* key : {"subjects", "queries", "subject-len", "query-len",
                          "db-gen", "procs", "workers", "queue-cap"}) {
    if (args.get_int(key, 1) < 1) {
      std::cerr << "align_serve: --" << key << " must be positive\n";
      return 2;
    }
  }

  const auto n_subjects =
      static_cast<std::size_t>(args.get_int("subjects", 1));
  const auto n_queries = static_cast<std::size_t>(args.get_int("queries", 8));
  const auto subject_len =
      static_cast<std::size_t>(args.get_int("subject-len", 4000));
  const auto query_len =
      static_cast<std::size_t>(args.get_int("query-len", 400));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const bool quiet = args.get_bool("quiet");

  StrategyKind strategy = StrategyKind::kAuto;
  if (!parse_strategy(args.get("strategy", "auto"), strategy)) {
    std::cerr << "align_serve: unknown --strategy\n" << kUsage;
    return 2;
  }

  const std::string gap_mode = args.get("gap", "linear");
  if (gap_mode != "linear" && gap_mode != "affine" && gap_mode != "mixed") {
    std::cerr << "align_serve: unknown --gap\n" << kUsage;
    return 2;
  }
  gdsm::ScoreScheme affine_scheme;  // defaults except the open penalty
  affine_scheme.gap_open = static_cast<int>(args.get_int("gap-open", -3));
  affine_scheme.gap = static_cast<int>(args.get_int("gap-extend", -1));
  if (gap_mode != "linear" && !affine_scheme.affine()) {
    std::cerr << "align_serve: --gap=" << gap_mode
              << " needs a non-zero --gap-open\n";
    return 2;
  }

  gdsm::svc::ServiceConfig cfg;
  cfg.nprocs = static_cast<int>(args.get_int("procs", 4));
  cfg.workers = static_cast<int>(args.get_int("workers", 2));
  cfg.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap", 64));
  cfg.verify = args.get_bool("verify");
  gdsm::svc::AlignService service(cfg);

  const bool db_mode = args.has("db") || args.has("db-gen");
  const int min_score = static_cast<int>(args.get_int("min-score", 40));

  gdsm::Rng rng(seed);
  std::vector<gdsm::Sequence> subjects;  // db mode: the database sequences
  if (db_mode) {
    if (args.has("db")) {
      try {
        subjects = gdsm::read_fasta_file(args.get("db"));
      } catch (const std::exception& e) {
        std::cerr << "align_serve: cannot read --db FASTA: " << e.what()
                  << "\n";
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
      std::cerr << "align_serve: the database has no sequences\n";
      return 2;
    }
    service.load_db("db", subjects);
  } else {
    for (std::size_t k = 0; k < n_subjects; ++k) {
      gdsm::Sequence subject =
          gdsm::random_dna(subject_len, rng, "subject" + std::to_string(k));
      service.load_subject(subject);
      subjects.push_back(std::move(subject));
    }
  }

  std::vector<gdsm::svc::AlignService::Admission> admissions;
  admissions.reserve(n_queries);
  for (std::size_t i = 0; i < n_queries; ++i) {
    const gdsm::Sequence& subject = subjects[i % subjects.size()];
    gdsm::svc::QuerySpec spec;
    if (db_mode) {
      spec.database = "db";
      spec.min_score = min_score;
      // Alternate homologous probes (mutated database windows, which must
      // hit) with pure random probes (which mostly filter away).
      spec.query = i % 2 == 0
                       ? make_probe(subject, query_len, rng, i)
                       : gdsm::random_dna(query_len, rng,
                                          "probe" + std::to_string(i));
    } else {
      spec.subject = subject.name();
      spec.query = make_probe(subject, query_len, rng, i);
      spec.strategy = strategy;
    }
    // Mixed traffic alternates gap models so one service instance exercises
    // both dispatch paths (and, with --verify, both serial references).
    if (gap_mode == "affine" || (gap_mode == "mixed" && i % 2 == 1)) {
      spec.scheme = affine_scheme;
    }
    spec.deadline_s = args.get_double("deadline-s", 0.0);
    admissions.push_back(service.submit(std::move(spec)));
  }

  int failures = 0;
  std::vector<Json> rows;
  rows.reserve(admissions.size());
  for (std::size_t i = 0; i < admissions.size(); ++i) {
    const auto& adm = admissions[i];
    const bool affine_query =
        gap_mode == "affine" || (gap_mode == "mixed" && i % 2 == 1);
    const gdsm::svc::QueryOutcome& out = adm.ticket->wait();
    if (!out.ok) ++failures;
    Json row = Json::object();
    row.set("id", out.result.id);
    row.set("ok", out.ok);
    row.set("gap_model", affine_query ? "affine" : "linear");
    if (out.ok) {
      row.set("strategy", gdsm::svc::strategy_name(out.result.strategy));
      row.set("warm", out.result.warm);
      row.set("candidates", out.result.candidates.size());
      row.set("wait_s", out.result.wait_s);
      row.set("total_s", out.result.total_s);
      row.set("cache_hits", out.result.cache_hits);
      row.set("read_faults", out.result.read_faults);
      if (out.result.strategy == StrategyKind::kDbScan) {
        row.set("hits", out.result.db_hits.size());
        row.set("top_score",
                out.result.db_hits.empty() ? 0 : out.result.db_hits[0].score);
        row.set("fragments_scanned", out.result.db_fragments_scanned);
        row.set("fragments_rejected", out.result.db_fragments_rejected);
        row.set("fragments_aligned", out.result.db_fragments_aligned);
      }
    } else {
      row.set("error", out.error);
    }
    rows.push_back(std::move(row));
    if (quiet) continue;
    if (!out.ok) {
      std::cout << "query failed: " << out.error << "\n";
    } else if (out.result.strategy == StrategyKind::kDbScan) {
      std::cout << "query " << out.result.id << ": db_scan, "
                << out.result.db_hits.size() << " hit(s)"
                << (out.result.db_hits.empty()
                        ? ""
                        : " top " + std::to_string(out.result.db_hits[0].score))
                << ", " << out.result.db_fragments_rejected << "/"
                << out.result.db_fragments_scanned << " filtered, total "
                << out.result.total_s * 1e3 << " ms\n";
    } else {
      std::cout << "query " << out.result.id << ": "
                << gdsm::svc::strategy_name(out.result.strategy) << ", "
                << (out.result.warm ? "warm" : "cold") << ", "
                << out.result.candidates.size() << " candidate(s)"
                << (out.result.strategy == StrategyKind::kExact
                        ? " best " + std::to_string(out.result.best.score)
                        : "")
                << ", total " << out.result.total_s * 1e3 << " ms\n";
    }
  }

  service.drain();
  const gdsm::svc::ServiceStats stats = service.stats();
  service.shutdown();

  if (!quiet) {
    std::cout << "align_serve: " << stats.completed << " completed, "
              << stats.failed << " failed, " << stats.warm_queries
              << " warm / " << stats.cold_queries << " cold\n";
  }

  if (args.has("report")) {
    gdsm::obs::RunReport report("align_serve",
                                "Multi-query alignment service run");
    report.set_param("subjects", args.get_int("subjects", 1));
    report.set_param("queries", args.get_int("queries", 8));
    report.set_param("subject_len", args.get_int("subject-len", 4000));
    report.set_param("query_len", args.get_int("query-len", 400));
    report.set_param("seed", args.get_int("seed", 42));
    report.set_param("procs", args.get_int("procs", 4));
    report.set_param("workers", args.get_int("workers", 2));
    report.set_param("strategy", args.get("strategy", "auto"));
    report.set_param("gap", gap_mode);
    if (gap_mode != "linear") {
      report.set_param("gap_open", affine_scheme.gap_open);
      report.set_param("gap_extend", affine_scheme.gap);
    }
    report.set_param("verify", cfg.verify);
    if (db_mode) {
      report.set_param("db", args.has("db") ? args.get("db") : "generated");
      report.set_param("db_sequences", subjects.size());
      report.set_param("min_score", min_score);
    }
    report.set_param("host_clock", true);  // latencies are wall time
    report.metrics().set("completed", stats.completed);
    report.metrics().set("failed", stats.failed);
    report.metrics().set("latency.p50_s", stats.total_latency.quantile(0.5));
    report.metrics().set("latency.p99_s", stats.total_latency.quantile(0.99));
    for (Json& row : rows) report.add_row("queries", std::move(row));
    report.set_section("service", stats.to_json());
    if (!report.write_file(args.get("report"))) return 2;
  }
  return failures == 0 ? 0 : 1;
}
