#include "obs/validate.h"

#include <initializer_list>
#include <string>

#include "obs/report.h"

namespace gdsm::obs {
namespace {

bool any_positive_read_faults(const Json& j) {
  switch (j.kind()) {
    case Json::Kind::kObject:
      for (const auto& [key, value] : j.members()) {
        if (key == "read_faults" && value.is_number() &&
            value.as_double() > 0) {
          return true;
        }
        if (any_positive_read_faults(value)) return true;
      }
      return false;
    case Json::Kind::kArray:
      for (const Json& item : j.items()) {
        if (any_positive_read_faults(item)) return true;
      }
      return false;
    default:
      return false;
  }
}

/// Empty when `obj` (at `path`) carries every key in `keys` as a number,
/// else the reason naming the first one missing.
std::string require_numbers(const Json& obj, const std::string& path,
                            std::initializer_list<const char*> keys) {
  for (const char* k : keys) {
    const Json* counter = obj.find(k);
    if (counter == nullptr || !counter->is_number()) {
      return path + "." + k + " missing or not a number";
    }
  }
  return {};
}

/// The sections every current report carries (docs/METRICS.md).
std::string validate_sections(const Json* sections) {
  const auto section = [&](const char* name) -> const Json* {
    const Json* s = sections != nullptr ? sections->find(name) : nullptr;
    return s != nullptr && s->is_object() ? s : nullptr;
  };

  // kernel: the dispatched backend, the per-kernel counter blocks, the gap
  // models dispatched and the striped precision-ladder counters.
  const Json* kernel = section("kernel");
  if (kernel == nullptr) return "report without sections.kernel";
  const Json* backend = kernel->find("backend");
  if (backend == nullptr || !backend->is_string() ||
      backend->as_string().empty()) {
    return "sections.kernel.backend missing or empty";
  }
  for (const char* k : {"best", "count", "hits", "nw", "nw_affine", "batch"}) {
    const Json* counters = kernel->find(k);
    if (counters == nullptr || !counters->is_object() ||
        counters->find("calls") == nullptr ||
        counters->find("cells") == nullptr) {
      return std::string("sections.kernel.") + k + " missing calls/cells";
    }
  }
  const Json* gaps = kernel->find("gap_models");
  if (gaps == nullptr || !gaps->is_object()) {
    return "report without sections.kernel.gap_models";
  }
  const Json* striped = kernel->find("striped");
  if (striped == nullptr || !striped->is_object()) {
    return "report without sections.kernel.striped";
  }
  std::string why = require_numbers(
      *striped, "sections.kernel.striped",
      {"sweeps8", "sweeps16", "cells8", "cells16", "overflow_reruns",
       "fallback32", "delegated", "profile_builds", "profile_hits"});
  if (!why.empty()) return why;

  // comm: the batched data-plane totals.
  const Json* comm = section("comm");
  if (comm == nullptr) return "report without sections.comm";
  why = require_numbers(*comm, "sections.comm",
                        {"diff_batches_sent", "diff_pages_batched",
                         "bulk_fetches", "bulk_pages_fetched",
                         "empty_diffs_suppressed", "round_trips_saved"});
  if (!why.empty()) return why;

  // db: filtration totals, index opens and shard balance.
  const Json* db = section("db");
  if (db == nullptr) return "report without sections.db";
  why = require_numbers(*db, "sections.db",
                        {"queries", "fragments_scanned", "fragments_rejected",
                         "fragments_aligned", "filtration_rate", "hits",
                         "index_opens"});
  if (!why.empty()) return why;
  const Json* balance = db->find("shard_balance");
  if (balance == nullptr || !balance->is_object() ||
      balance->find("node_bases") == nullptr ||
      !balance->find("node_bases")->is_array() ||
      balance->find("node_aligned") == nullptr ||
      !balance->find("node_aligned")->is_array()) {
    return "report without sections.db.shard_balance node_bases/"
           "node_aligned arrays";
  }

  // dsm: the execution backend and the process-backend counters.
  const Json* dsm = section("dsm");
  if (dsm == nullptr) return "report without sections.dsm";
  const Json* dsm_backend = dsm->find("backend");
  if (dsm_backend == nullptr || !dsm_backend->is_string() ||
      (dsm_backend->as_string() != "threads" &&
       dsm_backend->as_string() != "process")) {
    return "sections.dsm.backend missing or not threads|process";
  }
  return require_numbers(
      *dsm, "sections.dsm",
      {"peer_failures", "segv_faults", "pages_mapped", "pages_protected",
       "twins_created", "socket_bytes_sent", "socket_bytes_received"});
}

}  // namespace

std::string validate_run_report(const Json& doc, bool require_read_faults) {
  if (!doc.is_object()) return "top level is not an object";

  for (const char* key : {"schema", "schema_version", "experiment", "title",
                          "build", "params", "metrics", "series"}) {
    if (!doc.has(key)) return std::string("missing key '") + key + "'";
  }
  if (doc.at("schema").as_string() != kReportSchema) {
    return "schema is not " + std::string(kReportSchema);
  }
  if (!doc.at("schema_version").is_number() ||
      doc.at("schema_version").as_int() != kSchemaVersion) {
    return "schema_version is not " + std::to_string(kSchemaVersion);
  }
  if (doc.at("experiment").as_string().empty()) {
    return "empty experiment id";
  }
  if (!doc.at("build").is_object() || !doc.at("build").has("git") ||
      doc.at("build").at("git").as_string().empty()) {
    return "missing build.git provenance";
  }
  const Json& series = doc.at("series");
  if (!series.is_object()) return "series is not an object";
  if (series.members().empty()) return "series is empty";
  for (const auto& [name, arr] : series.members()) {
    if (!arr.is_array() || arr.items().empty()) {
      return "series '" + name + "' is not a non-empty array";
    }
    for (std::size_t r = 0; r < arr.items().size(); ++r) {
      if (!arr.items()[r].is_object()) {
        return "series '" + name + "' row " + std::to_string(r) +
               " is not an object";
      }
    }
  }

  if (std::string why = validate_sections(doc.find("sections"));
      !why.empty()) {
    return why;
  }

  if (require_read_faults && !any_positive_read_faults(doc)) {
    return "no positive read_faults counter found (--require-read-faults)";
  }

  return {};
}

}  // namespace gdsm::obs
