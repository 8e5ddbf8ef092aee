// Tests for the observability layer: the JSON document model (writer,
// parser, round-trips), the RunReport schema, and the DSM/sim snapshot
// conversions (docs/METRICS.md).
#include <cstdint>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "core/report_io.h"
#include "core/sim_strategies.h"
#include "dsm/cluster.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/snapshots.h"
#include "obs/validate.h"

namespace gdsm::obs {
namespace {

TEST(JsonEscape, ControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("line\nfeed"), "line\\nfeed");
  EXPECT_EQ(json_escape(std::string_view("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_escape("\x01\x1f"), "\\u0001\\u001f");
  // UTF-8 passes through unescaped.
  EXPECT_EQ(json_escape("séquence"), "séquence");
}

TEST(JsonWriter, ScalarForms) {
  EXPECT_EQ(Json().dump(0), "null");
  EXPECT_EQ(Json(true).dump(0), "true");
  EXPECT_EQ(Json(false).dump(0), "false");
  EXPECT_EQ(Json(42).dump(0), "42");
  EXPECT_EQ(Json(-7).dump(0), "-7");
  EXPECT_EQ(Json(1.5).dump(0), "1.5");
  // Whole doubles keep a trailing .0 so the type survives a round trip.
  EXPECT_EQ(Json(3.0).dump(0), "3.0");
  EXPECT_EQ(Json("hi").dump(0), "\"hi\"");
  // Non-finite doubles have no JSON form; they serialize as null.
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(0), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(0), "null");
}

TEST(JsonWriter, ObjectsPreserveInsertionOrder) {
  Json obj = Json::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(0), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  // set() on an existing key replaces in place, keeping the position.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(0), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonRoundTrip, Integers64Bit) {
  const std::int64_t int_min = std::numeric_limits<std::int64_t>::min();
  const std::uint64_t uint_max = std::numeric_limits<std::uint64_t>::max();
  Json doc = Json::object();
  doc.set("int_min", int_min);
  doc.set("uint_max", uint_max);
  doc.set("big_counter", std::uint64_t{9'007'199'254'740'993u});  // 2^53 + 1

  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back.at("int_min").as_int(), int_min);
  EXPECT_EQ(back.at("uint_max").as_uint(), uint_max);
  // 2^53 + 1 is NOT representable as a double; exact integer round-trip is
  // the point of keeping separate int/uint alternatives.
  EXPECT_EQ(back.at("big_counter").as_uint(), 9'007'199'254'740'993u);
  EXPECT_EQ(back, doc);
}

TEST(JsonRoundTrip, NestedDocument) {
  Json doc = Json::object();
  doc.set("title", "escaped \"quotes\" and\nnewlines\t\\");
  doc.set("pi", 3.14159);
  doc.set("flag", true);
  doc.set("nothing", nullptr);
  Json arr = Json::array();
  arr.push(1);
  arr.push("two");
  Json inner = Json::object();
  inner.set("deep", -12.5);
  arr.push(std::move(inner));
  doc.set("items", std::move(arr));

  for (const int indent : {0, 2, 4}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back, doc) << "indent=" << indent;
  }
}

TEST(JsonParser, UnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "é");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(), "\U0001F600");
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonParseError);
  EXPECT_THROW(Json::parse("{'a':1}"), JsonParseError);
  EXPECT_THROW(Json::parse("nul"), JsonParseError);
  EXPECT_THROW(Json::parse("1 2"), JsonParseError);  // trailing garbage
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(Json::parse("\"\\ud83d\""), JsonParseError);  // lone surrogate
  try {
    Json::parse("[1, oops]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GT(e.offset(), 0u);
  }
}

TEST(MetricsRegistryTest, SetAddAndSerialize) {
  MetricsRegistry metrics;
  metrics.set("runs", 1);
  metrics.add("runs", 2);
  metrics.add("fresh_counter", 5);
  metrics.set("ratio", 0.5);
  EXPECT_TRUE(metrics.has("runs"));
  EXPECT_FALSE(metrics.has("absent"));

  const Json j = metrics.to_json();
  EXPECT_DOUBLE_EQ(j.at("runs").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(j.at("fresh_counter").as_double(), 5.0);
  EXPECT_DOUBLE_EQ(j.at("ratio").as_double(), 0.5);
}

TEST(RunReportTest, SchemaFieldsPresent) {
  RunReport report("unit_test_experiment", "A unit-test report");
  report.set_param("size", 128);
  report.metrics().set("elapsed_s", 1.25);
  Json row = Json::object();
  row.set("x", 1);
  report.add_row("points", std::move(row));

  const Json doc = report.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), kReportSchema);
  EXPECT_EQ(doc.at("schema_version").as_int(), kSchemaVersion);
  EXPECT_EQ(doc.at("experiment").as_string(), "unit_test_experiment");
  EXPECT_EQ(doc.at("title").as_string(), "A unit-test report");
  EXPECT_FALSE(doc.at("build").at("git").as_string().empty());
  EXPECT_EQ(doc.at("params").at("size").as_int(), 128);
  EXPECT_EQ(doc.at("series").at("points").items().size(), 1u);

  // The document survives a serialize/parse cycle intact.
  std::ostringstream out;
  report.write(out);
  EXPECT_EQ(Json::parse(out.str()), doc);
}

TEST(RunReportTest, AddRowRequiresObjects) {
  RunReport report("x", "y");
  EXPECT_THROW(report.add_row("series", Json(1)), std::runtime_error);
}

// Object copy with one member dropped — for poking version-required fields
// out of otherwise-valid documents.
Json without_member(const Json& obj, const std::string& key) {
  Json out = Json::object();
  for (const auto& [k, v] : obj.members()) {
    if (k != key) out.set(k, v);
  }
  return out;
}

// The validator shared with tools/validate_report (obs/validate.h) must
// accept a well-formed document at the current schema version and nothing
// else: older reports are regenerated, not validated.
TEST(ValidateReportTest, AcceptsSupportedVersionsOnly) {
  RunReport report("validate_unit", "validator coverage");
  Json row = Json::object();
  row.set("x", 1);
  report.add_row("points", std::move(row));
  // to_json() auto-attaches every section, so a freshly emitted report is
  // valid at the current schema out of the box.
  Json doc = report.to_json();
  ASSERT_EQ(doc.at("schema_version").as_int(), 13);
  EXPECT_EQ(validate_run_report(doc), "");
  for (int v = 1; v <= kSchemaVersion + 1; ++v) {
    if (v == kSchemaVersion) continue;
    doc.set("schema_version", v);
    EXPECT_NE(validate_run_report(doc), "") << "schema_version=" << v;
  }
}

// Regression for the v6 gap-model requirement: a v6 document whose kernel
// section lost the affine fields must be rejected with an error that names
// the missing field (docs/METRICS.md v6).
TEST(ValidateReportTest, RejectsV6ReportMissingGapModelFields) {
  RunReport report("validate_unit_v6", "v6 gap-model regression");
  Json row = Json::object();
  row.set("x", 1);
  report.add_row("points", std::move(row));
  const Json good = report.to_json();
  ASSERT_GE(good.at("schema_version").as_int(), 6);
  ASSERT_EQ(validate_run_report(good), "");

  const Json& sections = good.at("sections");
  const Json& kernel = sections.at("kernel");

  {
    Json doc = good;
    Json s = without_member(sections, "kernel");
    s.set("kernel", without_member(kernel, "gap_models"));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("gap_models"), std::string::npos) << why;
  }
  {
    Json doc = good;
    Json s = without_member(sections, "kernel");
    s.set("kernel", without_member(kernel, "nw_affine"));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("nw_affine"), std::string::npos) << why;
  }
}

// Regression for the v7 database-serving requirement: a freshly emitted
// report auto-carries sections.db, and a v7 document that lost it (or its
// shard_balance arrays) must be rejected naming the missing field.
TEST(ValidateReportTest, RejectsV7ReportMissingDbSection) {
  RunReport report("validate_unit_v7", "v7 db-section regression");
  Json row = Json::object();
  row.set("x", 1);
  report.add_row("points", std::move(row));
  const Json good = report.to_json();
  ASSERT_GE(good.at("schema_version").as_int(), 7);
  ASSERT_EQ(validate_run_report(good), "");

  const Json& sections = good.at("sections");
  const Json& db = sections.at("db");
  for (const char* key : {"queries", "fragments_scanned", "fragments_rejected",
                          "fragments_aligned", "filtration_rate", "hits",
                          "index_opens", "shard_balance"}) {
    EXPECT_TRUE(db.has(key)) << key;
  }

  {
    Json doc = good;
    doc.set("sections", without_member(sections, "db"));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("sections.db"), std::string::npos) << why;
  }
  {
    Json doc = good;
    Json s = without_member(sections, "db");
    s.set("db", without_member(db, "filtration_rate"));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("filtration_rate"), std::string::npos) << why;
  }
  {
    Json doc = good;
    Json s = without_member(sections, "db");
    s.set("db", without_member(db, "shard_balance"));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("shard_balance"), std::string::npos) << why;
  }
}

// Regression for the v8 process-backend requirement: a freshly emitted
// report auto-carries sections.dsm with the backend name and the process
// counters, and a v8 document that lost them must be rejected by name.
TEST(ValidateReportTest, RejectsV8ReportMissingDsmSection) {
  RunReport report("validate_unit_v8", "v8 dsm-section regression");
  Json row = Json::object();
  row.set("x", 1);
  report.add_row("points", std::move(row));
  const Json good = report.to_json();
  ASSERT_GE(good.at("schema_version").as_int(), 8);
  ASSERT_EQ(validate_run_report(good), "");

  const Json& sections = good.at("sections");
  const Json& dsm = sections.at("dsm");
  const std::string backend = dsm.at("backend").as_string();
  EXPECT_TRUE(backend == "threads" || backend == "process") << backend;
  for (const char* key :
       {"peer_failures", "segv_faults", "pages_mapped", "pages_protected",
        "twins_created", "socket_bytes_sent", "socket_bytes_received"}) {
    EXPECT_TRUE(dsm.has(key)) << key;
  }

  {
    Json doc = good;
    doc.set("sections", without_member(sections, "dsm"));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("sections.dsm"), std::string::npos) << why;
  }
  {
    Json doc = good;
    Json s = without_member(sections, "dsm");
    s.set("dsm", without_member(dsm, "segv_faults"));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("segv_faults"), std::string::npos) << why;
  }
  {
    // An unknown backend name is as bad as a missing one.
    Json doc = good;
    Json s = without_member(sections, "dsm");
    Json bad = without_member(dsm, "backend");
    bad.set("backend", "carrier-pigeon");
    s.set("dsm", std::move(bad));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("backend"), std::string::npos) << why;
  }
}

// Regression for the v9 striped-kernel requirement: a freshly emitted
// report auto-carries sections.kernel.striped with the precision-ladder and
// profile-cache counters, and a v9 document that lost them must be rejected
// by name.
TEST(ValidateReportTest, RejectsV9ReportMissingStripedCounters) {
  RunReport report("validate_unit_v9", "v9 striped-kernel regression");
  Json row = Json::object();
  row.set("x", 1);
  report.add_row("points", std::move(row));
  const Json good = report.to_json();
  ASSERT_GE(good.at("schema_version").as_int(), 9);
  ASSERT_EQ(validate_run_report(good), "");

  const Json& sections = good.at("sections");
  const Json& kernel = sections.at("kernel");
  const Json& striped = kernel.at("striped");
  for (const char* key :
       {"sweeps8", "sweeps16", "cells8", "cells16", "overflow_reruns",
        "fallback32", "delegated", "profile_builds", "profile_hits"}) {
    EXPECT_TRUE(striped.has(key)) << key;
  }

  {
    Json doc = good;
    Json s = without_member(sections, "kernel");
    s.set("kernel", without_member(kernel, "striped"));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("sections.kernel.striped"), std::string::npos) << why;
  }
  {
    Json doc = good;
    Json s = without_member(sections, "kernel");
    Json k = without_member(kernel, "striped");
    k.set("striped", without_member(striped, "overflow_reruns"));
    s.set("kernel", std::move(k));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("overflow_reruns"), std::string::npos) << why;
  }
}

// v13: the cascade funnel is gone (its dp_confirmed was always db.hits),
// and the kernel section carries the inter-sequence kernel's counters; a
// document that lost them must be rejected by name.
TEST(ValidateReportTest, RejectsV13ReportMissingBatchCounters) {
  RunReport report("validate_unit_v13", "v13 db/kernel regression");
  Json row = Json::object();
  row.set("x", 1);
  report.add_row("points", std::move(row));
  const Json good = report.to_json();
  ASSERT_GE(good.at("schema_version").as_int(), 13);
  ASSERT_EQ(validate_run_report(good), "");

  const Json& sections = good.at("sections");
  const Json& db = sections.at("db");
  EXPECT_TRUE(db.has("hits"));
  EXPECT_FALSE(db.has("dp_confirmed"));
  EXPECT_FALSE(db.has("cascade"));
  EXPECT_FALSE(db.has("fragments_resolved"));
  {
    Json doc = good;
    Json s = without_member(sections, "kernel");
    s.set("kernel", without_member(sections.at("kernel"), "batch"));
    doc.set("sections", std::move(s));
    const std::string why = validate_run_report(doc);
    EXPECT_NE(why.find("sections.kernel.batch"), std::string::npos) << why;
  }
}

TEST(SnapshotsTest, DsmStatsFromRealClusterRun) {
  dsm::Cluster cluster(2);
  const dsm::GlobalAddr arr = cluster.alloc(16 * 1024, 0);
  cluster.run([&](dsm::Node& node) {
    if (node.id() == 0) {
      for (std::size_t i = 0; i < 16 * 1024 / sizeof(int); ++i) {
        node.write<int>(arr + i * sizeof(int), static_cast<int>(i));
      }
    }
    node.barrier();
    if (node.id() == 1) {
      long sum = 0;
      for (std::size_t i = 0; i < 16 * 1024 / sizeof(int); ++i) {
        sum += node.read<int>(arr + i * sizeof(int));
      }
      EXPECT_GT(sum, 0);
    }
    node.barrier();
  });

  const dsm::DsmStats stats = cluster.stats();
  const Json j = to_json(stats);
  // Round-trip through text, as a bench report would.
  const Json back = Json::parse(j.dump());
  ASSERT_EQ(back.at("nodes").items().size(), 2u);
  EXPECT_GT(back.at("totals").at("node").at("read_faults").as_uint(), 0u);
  EXPECT_GT(back.at("totals").at("node").at("barriers").as_uint(), 0u);
  EXPECT_GT(back.at("totals").at("traffic").at("messages").as_uint(), 0u);
  EXPECT_GT(back.at("totals").at("traffic").at("bytes").as_uint(), 0u);
  // Every NodeStats counter is present on each per-node entry.
  for (const char* key :
       {"read_faults", "write_faults", "diffs_sent", "diff_bytes",
        "invalidations", "evictions", "lock_acquires", "lock_releases",
        "barriers", "cv_signals", "cv_waits", "diff_batches_sent",
        "diff_pages_batched", "bulk_fetches", "bulk_pages_fetched",
        "empty_diffs_suppressed", "peer_failures", "segv_faults",
        "pages_mapped", "pages_protected", "twins_created",
        "socket_bytes_sent", "socket_bytes_received"}) {
    EXPECT_TRUE(back.at("nodes").items()[0].has(key)) << key;
  }
  // v8: the stats snapshot names the backend that ran the job.
  const std::string backend = back.at("backend").as_string();
  EXPECT_TRUE(backend == "threads" || backend == "process") << backend;
}

TEST(SnapshotsTest, SpaceUsageSplitsLiveFromPooledPages) {
  dsm::Cluster cluster(2);
  (void)cluster.alloc(2 * 4096, 0);  // resident: page 0 + 2 live pages
  {
    dsm::Scratch scratch = cluster.scratch();
    (void)scratch.alloc(3 * 4096, 1);
  }  // released unsubmitted: 3 pooled pages
  const Json j = Json::parse(space_usage_json(cluster.space()).dump());
  EXPECT_EQ(j.at("pages").as_uint(), 6u);
  EXPECT_EQ(j.at("pages_free").as_uint(), 3u);
  EXPECT_EQ(j.at("bytes").as_uint(), 6u * 4096u);
  ASSERT_EQ(j.at("pages_per_node").items().size(), 2u);
}

TEST(SnapshotsTest, SimReportJson) {
  const core::SimReport rep = core::sim_wavefront(2'000, 2'000, 4);
  const Json j = core::sim_report_json(rep, /*per_node=*/true);
  EXPECT_GT(j.at("total_s").as_double(), 0.0);
  const Json& bd = j.at("breakdown");
  for (const char* key : {"computation_s", "communication_s", "lock_cv_s",
                          "barrier_s", "io_s", "total_s"}) {
    EXPECT_TRUE(bd.has(key)) << key;
  }
  EXPECT_EQ(j.at("per_node").items().size(), 4u);
}

}  // namespace
}  // namespace gdsm::obs
