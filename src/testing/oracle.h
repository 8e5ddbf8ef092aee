// The cross-strategy differential oracle.
//
// Every parallel strategy in this repository claims to reproduce a serial
// reference bit-for-bit: the heuristic strategies (wavefront, blocked,
// blocked_mp) must emit exactly the scalar heuristic_scan_reference's
// candidate queue (whichever SIMD kernel the strategies ran), and the
// parallel exact scorer must find sw_best_score_linear's best cell.  The
// oracle runs all of them on a seeded random genome pair — optionally under
// an injected fault plan (net/fault.h) — and reports every divergence.
// tests/differential_oracle_test.cpp asserts the verdict; tools/fuzz_align
// searches the (seed, plan) space and minimizes failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/config.h"
#include "net/fault.h"
#include "sw/heuristic_scan.h"
#include "sw/scoring.h"
#include "util/genome.h"

namespace gdsm::testing {

/// Which parallel strategies a differential run exercises.
enum StrategyMask : unsigned {
  kWavefront = 1u << 0,
  kBlocked = 1u << 1,
  kBlockedMp = 1u << 2,
  kExactParallel = 1u << 3,
  kAllStrategies = kWavefront | kBlocked | kBlockedMp | kExactParallel,
};

/// One oracle input: a seeded genome pair plus the cluster, retry and fault
/// configuration under test.  Everything is deterministic in (the fields of)
/// this struct, so a failing case IS its own reproduction recipe.
struct OracleCase {
  std::uint64_t seed = 1;      ///< genome-pair seed (util/genome.h)
  std::size_t length_s = 600;
  std::size_t length_t = 600;
  std::size_t n_regions = 4;   ///< planted homologies
  int nprocs = 4;
  ScoreScheme scheme{};
  HeuristicParams params{};
  dsm::RetryPolicy retry{};    ///< DSM reply timeout/retransmit policy
  net::FaultPlan faults{};     ///< simulated interconnect misbehaviour

  /// The deterministic genome pair of this case.
  HomologousPair make_pair() const;

  /// "seed=N len=AxB regions=R procs=P gap=<model> faults=<plan>" (the
  /// repro line).
  std::string to_string() const;
};

/// How one strategy compared against its serial reference.
struct StrategyOutcome {
  std::string name;
  bool ran = false;        ///< false when masked out
  bool score_ok = true;    ///< best score equals the reference's
  bool regions_ok = true;  ///< candidate queue matches (heuristic strategies)
  int best_score = 0;
  std::string detail;      ///< human diagnosis, empty when everything matched
  net::FaultCounters faults;  ///< fault pressure the run absorbed

  bool ok() const noexcept { return !ran || (score_ok && regions_ok); }
};

struct OracleVerdict {
  bool ok = true;  ///< every strategy that ran agrees with its reference
  int serial_best = 0;               ///< sw_best_score_linear (== sw_fill)
  int serial_heuristic_best = 0;     ///< best candidate of the reference scan
  std::size_t serial_candidates = 0; ///< size of the serial candidate queue
  std::vector<StrategyOutcome> outcomes;

  /// One line per strategy ("strategy: OK" / the mismatch detail).
  std::string summary() const;
};

/// Runs the serial references and every masked-in strategy on `c`.  The two
/// serial exact scorers (sw_best_score_linear, sw_fill) are cross-checked
/// against each other first, so a bug in the reference itself cannot
/// silently validate the parallel runs.
OracleVerdict run_differential(const OracleCase& c,
                               unsigned mask = kAllStrategies);

/// Greedily shrinks a failing case (shorter sequences, fewer regions, fewer
/// processors — the fault plan is preserved, it is part of the repro) while
/// it keeps failing.  Returns the smallest failing case found; returns `c`
/// unchanged if it does not fail.
OracleCase minimize(OracleCase c, unsigned mask = kAllStrategies);

/// The standard fault-plan matrix of the acceptance suite, all chains keyed
/// on `seed`: {drop/retry, reorder, delay, everything-at-once + partition}.
std::vector<net::FaultPlan> standard_fault_plans(std::uint64_t seed);

}  // namespace gdsm::testing
