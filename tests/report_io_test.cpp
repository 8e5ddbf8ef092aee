// Round-trips a run report carrying the v2 fault/retry counter blocks
// through the writer and the JSON parser, asserting the gdsm.run_report
// schema-version bump and the presence of the new counters end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/blocked.h"
#include "core/exact_parallel.h"
#include "core/report_io.h"
#include "obs/report.h"
#include "obs/snapshots.h"
#include "testing/oracle.h"

namespace gdsm {
namespace {

using obs::Json;

/// A small blocked run under a fault plan, so the counters are non-trivial.
core::StrategyResult faulted_blocked_run() {
  const testing::OracleCase c = [] {
    testing::OracleCase base;
    base.seed = 17;
    base.length_s = base.length_t = 300;
    base.n_regions = 2;
    base.nprocs = 2;
    return base;
  }();
  const HomologousPair pair = c.make_pair();
  core::BlockedConfig cfg;
  cfg.nprocs = c.nprocs;
  cfg.dsm.faults = testing::standard_fault_plans(17)[0];  // drop/retry
  cfg.dsm.retry.timeout_us = 2000;
  return core::blocked_align(pair.s, pair.t, cfg);
}

TEST(ReportIoTest, SchemaVersionIsBumpedToThirteen) {
  // v13 deletes the seed-and-extend cascade: the db section lost its
  // "cascade" funnel (its dp_confirmed is db.hits) and the service's
  // fragments_resolved, the kernel section gained the batch kernel's
  // counters, and residency counts only queries that read the subject's
  // DSM pages.  The tools accept the current version only
  // (docs/METRICS.md v13).
  EXPECT_EQ(obs::kSchemaVersion, 13);
}

TEST(ReportIoTest, NodeStatsJsonCarriesRetryCounters) {
  dsm::NodeStats ns;
  ns.request_timeouts = 3;
  ns.request_retries = 2;
  ns.stale_replies = 1;
  const Json j = obs::to_json(ns);
  EXPECT_EQ(j.at("request_timeouts").as_int(), 3);
  EXPECT_EQ(j.at("request_retries").as_int(), 2);
  EXPECT_EQ(j.at("stale_replies").as_int(), 1);
}

TEST(ReportIoTest, FaultCountersJsonIsComplete) {
  net::FaultCounters fc;
  fc.faulted_messages = 10;
  fc.drops = 1;
  fc.retransmits = 2;
  fc.delays = 3;
  fc.reorder_holds = 4;
  fc.duplicates_suppressed = 5;
  fc.partition_stalls = 6;
  const Json j = obs::to_json(fc);
  EXPECT_EQ(j.at("faulted_messages").as_int(), 10);
  EXPECT_EQ(j.at("drops").as_int(), 1);
  EXPECT_EQ(j.at("retransmits").as_int(), 2);
  EXPECT_EQ(j.at("delays").as_int(), 3);
  EXPECT_EQ(j.at("reorder_holds").as_int(), 4);
  EXPECT_EQ(j.at("duplicates_suppressed").as_int(), 5);
  EXPECT_EQ(j.at("partition_stalls").as_int(), 6);
}

TEST(ReportIoTest, StrategyResultJsonIncludesDsmFaultBlock) {
  const core::StrategyResult r = faulted_blocked_run();
  const Json j = core::strategy_result_json(r);
  ASSERT_TRUE(j.at("dsm").has("faults"));
  const Json& faults = j.at("dsm").at("faults");
  EXPECT_GT(faults.at("faulted_messages").as_int() + faults.at("delays").as_int() +
                faults.at("retransmits").as_int(),
            0)
      << "the drop/retry plan injected nothing";
}

TEST(ReportIoTest, ExactResultJsonIncludesFaultBlock) {
  core::ExactParallelResult r;
  r.faults.drops = 4;
  const Json j = core::exact_result_json(r);
  ASSERT_TRUE(j.has("faults"));
  EXPECT_EQ(j.at("faults").at("drops").as_int(), 4);
}

TEST(ReportIoTest, RunReportRoundTripsThroughDiskAtVersionTwo) {
  obs::RunReport report("report_io_test", "fault/retry counter round trip");
  report.set_param("seed", 17);
  report.metrics().set("cases", 1);
  const core::StrategyResult run = faulted_blocked_run();
  Json row = Json::object();
  row.set("strategy", "blocked");
  row.set("result", core::strategy_result_json(run));
  report.add_row("runs", std::move(row));

  const std::string path =
      ::testing::TempDir() + "/gdsm_report_io_test.json";
  ASSERT_TRUE(report.write_file(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  std::remove(path.c_str());

  EXPECT_EQ(doc.at("schema").as_string(), obs::kReportSchema);
  EXPECT_EQ(doc.at("schema_version").as_int(), obs::kSchemaVersion);
  // v4: every report auto-attaches the kernel section; this run had no
  // host_clock param, so only the deterministic counters appear.
  const Json& kernel = doc.at("sections").at("kernel");
  EXPECT_FALSE(kernel.at("backend").as_string().empty());
  EXPECT_TRUE(kernel.at("best").has("calls"));
  EXPECT_FALSE(kernel.at("best").has("seconds"));
  // Every report auto-attaches the comm section with the batched-plane
  // totals; since v11 there is one plane, so no mode is named.
  const Json& comm = doc.at("sections").at("comm");
  EXPECT_FALSE(comm.has("mode"));
  EXPECT_TRUE(comm.has("round_trips_saved"));
  EXPECT_TRUE(comm.has("empty_diffs_suppressed"));
  // v11: the index-open count sits in the db totals; v13: the cascade
  // funnel is gone, and its dp_confirmed with it (every hit is confirmed).
  const Json& db = doc.at("sections").at("db");
  EXPECT_TRUE(db.has("index_opens"));
  EXPECT_FALSE(db.has("dp_confirmed"));
  EXPECT_FALSE(db.has("cascade"));
  const Json& parsed_run =
      doc.at("series").at("runs").items().at(0).at("result");
  // The v2 additions survive serialization: the fault block and the
  // per-node retry counters.
  ASSERT_TRUE(parsed_run.at("dsm").has("faults"));
  const Json& node0 = parsed_run.at("dsm").at("nodes").items().at(0);
  EXPECT_TRUE(node0.has("request_timeouts"));
  EXPECT_TRUE(node0.has("request_retries"));
  EXPECT_TRUE(node0.has("stale_replies"));
}

}  // namespace
}  // namespace gdsm
