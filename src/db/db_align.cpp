#include "db/db_align.h"

#include <algorithm>
#include <stdexcept>

#include "db/meter.h"
#include "sw/linear_score.h"

namespace gdsm::db {
namespace {

BestLocal best_score(const Sequence& query, const Sequence& frag,
                     const ScoreScheme& scheme) {
  // Both gap models ride the dispatched kernel layer (an affine scheme
  // routes to the Gotoh kernels inside sw_best_score_linear), so filtration
  // survivors are scored by whatever backend is active — including the
  // striped query-profile kernels, for which the service pre-warms the
  // query's profile once per db query (simd::warm_query_profile).
  return sw_best_score_linear(query, frag, scheme);
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
    cluster.retain_range(arena_[n], arena_bytes[n].size());
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
  SubjectDb::ScanResult scan = db.scan(query, scheme, min_score);
  out.fragments_scanned = scan.scanned;
  out.fragments_rejected = scan.rejected;
  out.fragments_aligned = scan.forwarded.size();
  out.fragments_resolved = scan.resolved.size();
  out.cascade = scan.cascade;

  // Certified candidates become hits directly: their score is exact and the
  // scan already dropped certified resolutions below min_score.
  for (const SubjectDb::ScanHit& r : scan.resolved) {
    out.hits.push_back(
        make_hit(db.fragments()[r.fragment], r.score, r.end_i, r.end_j));
  }

  std::vector<std::uint64_t> per_node_aligned(
      static_cast<std::size_t>(cluster.nodes()), 0);

  const SubjectDb::Filtration filt{std::move(scan.forwarded), scan.scanned,
                                   scan.rejected};
  if (!filt.survivors.empty() && !query.empty() &&
      filt.survivors.size() <= db.config().direct_align_max) {
    // The cascade left too few candidates to amortize a cluster dispatch
    // (two barriers dominate a fragment or two of DP): align them in place
    // with the same dispatched kernel.  Hit-for-hit identical to the
    // cluster path — only the transport differs.
    for (const std::uint32_t fid : filt.survivors) {
      const BestLocal b = best_score(query, db.fragment_seq(fid), scheme);
      if (b.score < min_score) continue;
      ++out.cascade.dp_confirmed;
      out.hits.push_back(
          make_hit(db.fragments()[fid], b.score, b.end_i, b.end_j));
    }
  } else if (!filt.survivors.empty() && !query.empty()) {
    const std::size_t m = query.size();
    const std::size_t query_bytes = m * sizeof(Base);
    // Per-query job scratch, pooled again after the job: the query page(s)
    // homed at node 0, one [score, end_i, end_j] triple per survivor, also
    // homed at node 0 where the gather runs.
    dsm::Scratch scratch = cluster.scratch();
    const dsm::GlobalAddr query_addr = scratch.alloc(query_bytes, 0);
    const dsm::GlobalAddr result_addr =
        scratch.alloc(filt.survivors.size() * 3 * sizeof(std::int32_t), 0);

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

    std::vector<std::int32_t> gathered(work.size() * 3, 0);
    const dsm::Cluster::Ticket ticket = cluster.submit([&](dsm::Node& node) {
      if (node.id() == 0) {
        node.write_bytes(query_addr,
                         reinterpret_cast<const std::byte*>(query.data()),
                         query_bytes);
      }
      node.barrier();  // query published; remote nodes fault it in below

      std::basic_string<Base> qbuf(m, Base{});
      node.read_bytes(query_addr, reinterpret_cast<std::byte*>(qbuf.data()),
                      query_bytes);
      const Sequence q("query", std::move(qbuf));

      std::basic_string<Base> fbuf;
      for (std::size_t k = 0; k < work.size(); ++k) {
        if (work[k].owner != node.id()) continue;
        fbuf.assign(work[k].len, Base{});
        node.read_bytes(work[k].addr,
                        reinterpret_cast<std::byte*>(fbuf.data()),
                        work[k].len * sizeof(Base));
        const Sequence frag("frag", fbuf);
        const BestLocal b = best_score(q, frag, scheme);
        node.add_dp_cells(static_cast<std::uint64_t>(m) * work[k].len);
        const std::int32_t triple[3] = {b.score,
                                        static_cast<std::int32_t>(b.end_i),
                                        static_cast<std::int32_t>(b.end_j)};
        node.write_bytes(result_addr + k * 3 * sizeof(std::int32_t),
                         reinterpret_cast<const std::byte*>(triple),
                         sizeof(triple));
      }
      node.barrier();  // per-fragment diffs land at the home before gather
      if (node.id() == 0) {
        node.read_bytes(result_addr,
                        reinterpret_cast<std::byte*>(gathered.data()),
                        gathered.size() * sizeof(std::int32_t));
      }
    }, std::move(scratch));
    const dsm::DsmStats stats = cluster.await(ticket);
    const dsm::NodeStats totals = stats.total_node();
    out.cache_hits = totals.cache_hits;
    out.read_faults = totals.read_faults;

    for (std::size_t k = 0; k < work.size(); ++k) {
      const std::int32_t score = gathered[k * 3];
      if (score < min_score) continue;
      ++out.cascade.dp_confirmed;
      out.hits.push_back(make_hit(
          db.fragments()[work[k].fragment], score,
          static_cast<std::uint32_t>(gathered[k * 3 + 1]),
          static_cast<std::uint32_t>(gathered[k * 3 + 2])));
    }
  }
  sort_hits(out.hits);

  db_meter_record_query(out.fragments_scanned, out.fragments_rejected,
                        out.fragments_aligned, out.hits.size(),
                        per_node_aligned);
  db_meter_record_cascade(out.cascade);
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
    const BestLocal b = best_score(query, db.fragment_seq(f.id), scheme);
    if (b.score < min_score) continue;
    hits.push_back(make_hit(f, b.score, b.end_i, b.end_j));
  }
  sort_hits(hits);
  return hits;
}

}  // namespace gdsm::db
