// Schema validation for gdsm.run_report documents (docs/METRICS.md).
//
// The rules live here, in the library, so both tools/validate_report (the
// CLI used by the bench_smoke ctest label and tools/ci.sh) and the unit
// tests (tests/obs_test.cpp) exercise the very same checks — a report the
// tests accept cannot be rejected by CI, and vice versa.
#pragma once

#include <string>

#include "obs/json.h"

namespace gdsm::obs {

/// Checks `doc` against the current gdsm.run_report schema: schema_version
/// must equal kSchemaVersion and every section (kernel, comm, db, dsm) must
/// carry its fields.  Older reports are regenerated, not validated.
///
/// Returns the empty string when the document is valid, otherwise a
/// one-line human-readable reason (the CLI prints it verbatim).
///
/// When `require_read_faults` is set, additionally demands some
/// "read_faults" counter anywhere in the document be > 0 — i.e. the run
/// really drove the DSM, not just the simulator.
std::string validate_run_report(const Json& doc,
                                bool require_read_faults = false);

}  // namespace gdsm::obs
