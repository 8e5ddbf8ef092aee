// Shard placement and the filtered database scan over the DSM cluster.
//
// plan_shards assigns fragments to nodes balancing resident bases;
// DbShards materializes that plan in cluster global memory — one per-node
// arena homed at its owner and seeded once with host_write.  Only the owner
// reads a fragment, straight from its home copy, so no shard page is ever
// cached on another node.  db_query then runs one SPMD job per query:
// node 0 publishes the query into shared memory, every node scores the
// filtration survivors resident in *its* shard with the inter-sequence
// batch kernel, 32 fragments per tile (simd/batch.h; local home reads —
// sharding is the data-locality play), the per-fragment results travel
// back through shared memory (diffs to home at the barrier, so the run
// exercises the comm plane and fault plans like every other strategy), and
// the host assembles the hit list.  The rare fragments that reach
// min_score are rerun through sw_best_score_linear for their end cell, so
// hits are the reference kernel's answer by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/subject_db.h"
#include "dsm/cluster.h"
#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm::db {

struct ShardPlan {
  int nodes = 0;
  std::vector<int> owner;                 ///< per fragment id: owning node
  std::vector<std::uint64_t> node_bases;  ///< resident bases per node
};

/// Greedy least-loaded assignment of fragments to `nodes` nodes, balancing
/// resident bases (fragments are near-uniform, so this is near-perfect).
ShardPlan plan_shards(const SubjectDb& db, int nodes);

/// The database resident in cluster DSM.  Construct between jobs (load
/// time): allocates one arena per node, homed there, and seeds it.
class DbShards {
 public:
  DbShards() = default;
  DbShards(dsm::Cluster& cluster, const SubjectDb& db);

  const ShardPlan& plan() const noexcept { return plan_; }
  bool empty() const noexcept { return plan_.owner.empty(); }

  dsm::GlobalAddr fragment_addr(std::uint32_t id) const {
    return arena_[static_cast<std::size_t>(plan_.owner[id])] +
           frag_offset_[id];
  }

 private:
  ShardPlan plan_;
  std::vector<dsm::GlobalAddr> arena_;    ///< per node
  std::vector<std::size_t> frag_offset_;  ///< per fragment, within its arena
};

/// One database hit: a fragment whose best local score reached min_score.
struct DbHit {
  std::uint32_t fragment = 0;
  std::uint32_t seq_index = 0;  ///< fragment's sequence in the SubjectDb
  std::uint32_t begin = 0;      ///< fragment start within that sequence
  int score = 0;
  std::uint32_t end_i = 0;  ///< 1-based end of the hit in the query
  std::uint32_t end_j = 0;  ///< 1-based end of the hit in the fragment

  friend bool operator==(const DbHit&, const DbHit&) = default;
};

struct DbQueryResult {
  std::vector<DbHit> hits;  ///< score descending, then fragment ascending
  std::size_t fragments_scanned = 0;
  std::size_t fragments_rejected = 0;
  std::size_t fragments_aligned = 0;  ///< candidates that ran full DP
  CascadeCounters cascade;  ///< dp_confirmed only; the rest is always 0
  std::uint64_t cache_hits = 0;  ///< DSM residency counters of the job
  std::uint64_t read_faults = 0;
};

/// Filter + shard-parallel scan.  `min_score` must be >= 1 (hits carry
/// positive scores; the filtration bound thresholds against it).  The hit
/// set is exact: identical to brute_force_hits on the same inputs.
DbQueryResult db_query(dsm::Cluster& cluster, const SubjectDb& db,
                       const DbShards& shards, const Sequence& query,
                       const ScoreScheme& scheme, int min_score);

/// The serial all-pairs reference: aligns the query against EVERY fragment
/// with no filtration, no cluster and no shared memory.  db_query must
/// match it hit-for-hit (tests/db_test.cpp).
std::vector<DbHit> brute_force_hits(const SubjectDb& db, const Sequence& query,
                                    const ScoreScheme& scheme, int min_score);

}  // namespace gdsm::db
