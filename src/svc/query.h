// Query and result value types of the multi-query alignment service.
//
// A query names a *resident subject* (a genome the service loaded into DSM
// global memory once) and carries the probe sequence plus scoring knobs.
// The service answers with the phase-1 candidate queue (heuristic
// strategies) or the exact best alignment (Section 6 strategy), together
// with a latency breakdown and the DSM residency counters that show whether
// the subject was served warm (page-cache hits) or cold (read faults).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/db_align.h"
#include "sw/heuristic_scan.h"
#include "sw/linear_score.h"
#include "sw/reverse_rebuild.h"
#include "util/sequence.h"

namespace gdsm::svc {

/// How a query is executed.  A kAuto subject query runs kBlockedMp and a
/// kAuto database query runs kDbScan (AlignService::execute_one); the
/// other kinds force a strategy.
enum class StrategyKind : int {
  kAuto = 0,
  kBlocked,     ///< Strategy 2: bands x blocks over DSM
  kBlockedMp,   ///< Strategy 2 on message passing (no DSM, no residency)
  kExact,       ///< Section 6 exact alignment (message passing)
  kDbScan,      ///< filtered scan of a sharded multi-sequence database
};

constexpr int kNumStrategies = 5;

constexpr const char* strategy_name(StrategyKind k) noexcept {
  switch (k) {
    case StrategyKind::kAuto: return "auto";
    case StrategyKind::kBlocked: return "blocked";
    case StrategyKind::kBlockedMp: return "blocked_mp";
    case StrategyKind::kExact: return "exact";
    case StrategyKind::kDbScan: return "db_scan";
  }
  return "?";
}

struct QuerySpec {
  std::string subject;  ///< name of a subject loaded with load_subject()
  /// Non-empty selects database mode: the query runs as a filtered scan of
  /// the named database (load_db()) instead of a single-subject alignment.
  /// `subject` is ignored, `strategy` must be kAuto or kDbScan, and
  /// `min_score` (>= 1) sets the hit threshold the filtration bound
  /// prunes against.
  std::string database;
  int min_score = 0;    ///< database mode: hit/filtration threshold
  Sequence query;       ///< the probe (s); the subject is t
  StrategyKind strategy = StrategyKind::kAuto;
  /// Scoring, including the gap model: scheme.gap_open == 0 is the paper's
  /// linear model; gap_open != 0 selects affine (Gotoh) gaps end-to-end —
  /// the strategies dispatch the affine kernels, and verify mode checks
  /// against the serial affine references.
  ScoreScheme scheme{};
  HeuristicParams params{};
  /// Seconds from admission after which the query is rejected instead of
  /// dispatched (0 = no deadline).
  double deadline_s = 0;
  /// Test hook: when >= 0, the dispatched cluster job throws on this node
  /// instead of aligning — exercises the failed-query recovery path.
  int inject_failure_node = -1;
};

struct QueryResult {
  std::uint64_t id = 0;
  StrategyKind strategy = StrategyKind::kAuto;  ///< what actually ran
  std::vector<Candidate> candidates;  ///< heuristic strategies
  BestLocal best{};                   ///< exact strategy
  RebuildResult rebuilt;              ///< exact strategy
  std::vector<db::DbHit> db_hits;     ///< db scan: exact hit set
  std::size_t db_fragments_scanned = 0;   ///< db scan: fragments considered
  std::size_t db_fragments_rejected = 0;  ///< db scan: pruned before DP
  std::size_t db_fragments_aligned = 0;   ///< db scan: filtration survivors
  bool overflow = false;
  /// The strategy read the resident subject's DSM pages (blocked only) and
  /// found them cached from an earlier query.  False for blocked_mp, exact
  /// and db scans, which read no DSM page of the subject.
  bool warm = false;
  /// Always 1: every query is its own dispatch.  Kept only because the
  /// serving benchmark's svc.batch_size_mean reads it; both go together.
  std::size_t batch_size = 1;
  double wait_s = 0;          ///< admission -> dispatch
  double run_s = 0;           ///< dispatch -> completion
  double total_s = 0;         ///< admission -> completion
  std::uint64_t cache_hits = 0;   ///< DSM pages served from node caches
  std::uint64_t read_faults = 0;  ///< DSM pages fetched from their homes
};

/// Terminal state of a query: either a result or an error string (admission
/// reject reason, deadline expiry, node-program failure, divergence).
struct QueryOutcome {
  bool ok = false;
  std::string error;
  QueryResult result;
};

/// One-shot completion slot shared between the submitting thread and the
/// service workers.
class QueryTicket {
 public:
  /// Blocks until the query reaches a terminal state.
  const QueryOutcome& wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return ready_; });
    return out_;
  }

  bool ready() const {
    const std::scoped_lock lk(mu_);
    return ready_;
  }

  /// Resolves the ticket (service side); must be called exactly once.
  void fulfill(QueryOutcome out) {
    {
      const std::scoped_lock lk(mu_);
      out_ = std::move(out);
      ready_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;
  QueryOutcome out_;
};

using TicketPtr = std::shared_ptr<QueryTicket>;

/// A query as it travels through the admission queue.
struct PendingQuery {
  std::uint64_t id = 0;
  QuerySpec spec;
  std::chrono::steady_clock::time_point admitted_at{};
  TicketPtr ticket;
};

}  // namespace gdsm::svc
