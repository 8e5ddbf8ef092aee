#include "db/db_align.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "db/meter.h"
#include "dsm/wire.h"
#include "simd/batch.h"
#include "sw/linear_score.h"

namespace gdsm::db {
namespace {

/// Scores fragments [0, count) against the query in tiles of
/// simd::kBatchLanes and hands each result to emit(k, BestLocal).
/// load(k, lane) returns fragment k's bases and length; the pointer must
/// stay valid until its tile is scored, and `lane` lets a caller that
/// copies fragments reuse one buffer slot per lane.
///
/// The batch kernel gives scores only: the rare fragments reaching
/// min_score are rerun through sw_best_score_linear for their end cell, and
/// the rerun must agree with the batch score.  Where the batch path does
/// not apply (scalar backend, a bound beyond 8 bits, an out-of-alphabet
/// query) every fragment takes sw_best_score_linear.  Either way a fragment
/// scoring >= min_score carries the reference kernel's exact BestLocal.
template <class Load, class Emit>
void score_in_tiles(const Sequence& query, const ScoreScheme& scheme,
                    int min_score, std::size_t count, Load&& load,
                    Emit&& emit) {
  const simd::ScoreParams sp{scheme.match, scheme.mismatch, scheme.gap,
                             scheme.gap_open};
  const Base* ptrs[simd::kBatchLanes];
  std::size_t lens[simd::kBatchLanes];
  std::int32_t scores[simd::kBatchLanes];
  for (std::size_t t = 0; t < count; t += simd::kBatchLanes) {
    const std::size_t n = std::min(simd::kBatchLanes, count - t);
    for (std::size_t l = 0; l < n; ++l) {
      std::tie(ptrs[l], lens[l]) = load(t + l, l);
    }
    const bool batched = simd::batch_best_scores(
        query.data(), query.size(), ptrs, lens, n, sp, scores);
    for (std::size_t l = 0; l < n; ++l) {
      if (batched && scores[l] < min_score) {
        emit(t + l, BestLocal{scores[l], 0, 0});
        continue;
      }
      const BestLocal b = sw_best_score_linear(
          query, Sequence("frag", std::basic_string<Base>(ptrs[l], lens[l])),
          scheme);
      if (batched && b.score != scores[l]) {
        throw std::logic_error("db_query: batch score " +
                               std::to_string(scores[l]) +
                               " != rerun score " + std::to_string(b.score));
      }
      emit(t + l, b);
    }
  }
}

DbHit make_hit(const Fragment& f, int score, std::size_t end_i,
               std::size_t end_j) {
  return DbHit{f.id,
               f.seq_index,
               f.begin,
               score,
               static_cast<std::uint32_t>(end_i),
               static_cast<std::uint32_t>(end_j)};
}

void sort_hits(std::vector<DbHit>& hits) {
  std::sort(hits.begin(), hits.end(), [](const DbHit& a, const DbHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.fragment < b.fragment;
  });
}

}  // namespace

ShardPlan plan_shards(const SubjectDb& db, int nodes) {
  if (nodes < 1) nodes = 1;
  ShardPlan plan;
  plan.nodes = nodes;
  plan.node_bases.assign(static_cast<std::size_t>(nodes), 0);
  plan.owner.reserve(db.fragments().size());
  for (const Fragment& f : db.fragments()) {
    int lightest = 0;
    for (int n = 1; n < nodes; ++n) {
      if (plan.node_bases[static_cast<std::size_t>(n)] <
          plan.node_bases[static_cast<std::size_t>(lightest)]) {
        lightest = n;
      }
    }
    plan.owner.push_back(lightest);
    plan.node_bases[static_cast<std::size_t>(lightest)] += f.end - f.begin;
  }
  return plan;
}

DbShards::DbShards(dsm::Cluster& cluster, const SubjectDb& db) {
  plan_ = plan_shards(db, cluster.nodes());
  const std::size_t nodes = static_cast<std::size_t>(plan_.nodes);
  arena_.assign(nodes, 0);
  frag_offset_.assign(db.fragments().size(), 0);

  // Concatenate each node's fragments into one arena homed there, so a
  // node's scan reads only pages it homes (no protocol traffic on the
  // database itself — that is the point of sharding).
  std::vector<std::vector<std::byte>> arena_bytes(nodes);
  for (const Fragment& f : db.fragments()) {
    const auto node = static_cast<std::size_t>(plan_.owner[f.id]);
    frag_offset_[f.id] = arena_bytes[node].size();
    const Sequence& seq = db.sequences()[f.seq_index];
    const auto* raw = reinterpret_cast<const std::byte*>(seq.data() + f.begin);
    arena_bytes[node].insert(arena_bytes[node].end(), raw,
                             raw + (f.end - f.begin) * sizeof(Base));
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    if (arena_bytes[n].empty()) continue;
    arena_[n] = cluster.alloc(arena_bytes[n].size(), static_cast<int>(n));
    cluster.host_write(arena_[n], arena_bytes[n].data(),
                       arena_bytes[n].size());
  }
  db_meter_record_shards(plan_.node_bases);
}

DbQueryResult db_query(dsm::Cluster& cluster, const SubjectDb& db,
                       const DbShards& shards, const Sequence& query,
                       const ScoreScheme& scheme, int min_score) {
  if (min_score < 1) {
    throw std::invalid_argument("db_query: min_score must be >= 1");
  }
  if (shards.plan().nodes != cluster.nodes()) {
    throw std::invalid_argument("db_query: shard plan size != cluster size");
  }
  if (shards.plan().owner.size() != db.fragments().size()) {
    throw std::invalid_argument("db_query: shard plan does not match db");
  }

  DbQueryResult out;
  const SubjectDb::Filtration filt = db.filter(query, scheme, min_score);
  out.fragments_scanned = filt.scanned;
  out.fragments_rejected = filt.rejected;
  out.fragments_aligned = filt.survivors.size();

  std::vector<std::uint64_t> per_node_aligned(
      static_cast<std::size_t>(cluster.nodes()), 0);

  if (!filt.survivors.empty() && !query.empty() &&
      filt.survivors.size() <= db.config().direct_align_max) {
    // Too few survivors to amortize a cluster dispatch (the job start and
    // the end-of-job sweep dominate a fragment or two of DP): score them in
    // place, straight from the host copy.  Hit-for-hit identical to the
    // cluster path — only the transport differs.
    score_in_tiles(
        query, scheme, min_score, filt.survivors.size(),
        [&](std::size_t k, std::size_t) {
          const Fragment& f = db.fragments()[filt.survivors[k]];
          return std::pair<const Base*, std::size_t>(
              db.sequences()[f.seq_index].data() + f.begin, f.end - f.begin);
        },
        [&](std::size_t k, const BestLocal& b) {
          if (b.score < min_score) return;
          out.hits.push_back(make_hit(db.fragments()[filt.survivors[k]],
                                      b.score, b.end_i, b.end_j));
        });
  } else if (!filt.survivors.empty() && !query.empty()) {
    const std::size_t m = query.size();
    struct Work {
      std::uint32_t fragment;
      int owner;
      dsm::GlobalAddr addr;
      std::size_t len;
    };
    std::vector<Work> work;
    work.reserve(filt.survivors.size());
    for (const std::uint32_t fid : filt.survivors) {
      const Fragment& f = db.fragments()[fid];
      work.push_back({fid, shards.plan().owner[fid],
                      shards.fragment_addr(fid),
                      static_cast<std::size_t>(f.end - f.begin)});
      ++per_node_aligned[static_cast<std::size_t>(shards.plan().owner[fid])];
    }
    const std::size_t frag_cap = db.config().fragment_len;

    // Each owner scores its survivors against the query from the program's
    // capture and hands back one record per hit with its end-of-job
    // message: no query or result pages, no barrier.
    struct HitRecord {
      std::uint32_t work_index;
      std::int32_t score;
      std::uint32_t end_i;
      std::uint32_t end_j;
    };
    const dsm::Cluster::Ticket ticket = cluster.submit([&](dsm::Node& node) {
      // This node's survivors stream through one tile buffer, 32 at a
      // time, straight from the home copies of its shard.
      std::vector<std::size_t> mine;
      for (std::size_t k = 0; k < work.size(); ++k) {
        if (work[k].owner == node.id()) mine.push_back(k);
      }
      std::vector<Base> fbuf(simd::kBatchLanes * frag_cap);
      std::vector<HitRecord> hits;
      score_in_tiles(
          query, scheme, min_score, mine.size(),
          [&](std::size_t k, std::size_t lane) {
            const Work& w = work[mine[k]];
            Base* dst = fbuf.data() + lane * frag_cap;
            node.read_bytes(w.addr, reinterpret_cast<std::byte*>(dst),
                            w.len * sizeof(Base));
            node.add_dp_cells(static_cast<std::uint64_t>(m) * w.len);
            return std::pair<const Base*, std::size_t>(dst, w.len);
          },
          [&](std::size_t k, const BestLocal& b) {
            if (b.score < min_score) return;
            hits.push_back({static_cast<std::uint32_t>(mine[k]), b.score,
                            static_cast<std::uint32_t>(b.end_i),
                            static_cast<std::uint32_t>(b.end_j)});
          });
      node.set_result(dsm::wire::encode_records(
          false, std::span<const HitRecord>(hits)));
    });
    dsm::Cluster::JobResult job = cluster.await(ticket);
    const dsm::NodeStats totals = job.stats.total_node();
    out.cache_hits = totals.cache_hits;
    out.read_faults = totals.read_faults;

    std::vector<HitRecord> hits;
    for (const std::vector<std::byte>& payload : job.results) {
      dsm::wire::append_records(payload, hits);
    }
    for (const HitRecord& h : hits) {
      if (h.work_index >= work.size()) {
        throw std::runtime_error("db_query: node result names no survivor");
      }
      out.hits.push_back(make_hit(db.fragments()[work[h.work_index].fragment],
                                  h.score, h.end_i, h.end_j));
    }
  }
  sort_hits(out.hits);
  out.cascade.dp_confirmed = out.hits.size();

  db_meter_record_query(out.fragments_scanned, out.fragments_rejected,
                        out.fragments_aligned, out.hits.size(),
                        per_node_aligned);
  return out;
}

std::vector<DbHit> brute_force_hits(const SubjectDb& db, const Sequence& query,
                                    const ScoreScheme& scheme, int min_score) {
  if (min_score < 1) {
    throw std::invalid_argument("brute_force_hits: min_score must be >= 1");
  }
  std::vector<DbHit> hits;
  if (query.empty()) return hits;
  for (const Fragment& f : db.fragments()) {
    const BestLocal b =
        sw_best_score_linear(query, db.fragment_seq(f.id), scheme);
    if (b.score < min_score) continue;
    hits.push_back(make_hit(f, b.score, b.end_i, b.end_j));
  }
  sort_hits(hits);
  return hits;
}

}  // namespace gdsm::db
