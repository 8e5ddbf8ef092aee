#include "db/meter.h"

#include <algorithm>
#include <mutex>

namespace gdsm::db {
namespace {

std::mutex g_mu;
DbMeterSnapshot g_totals;

void widen(std::vector<std::uint64_t>& v, std::size_t n) {
  if (v.size() < n) v.resize(n, 0);
}

}  // namespace

DbMeterSnapshot db_meter_snapshot() {
  const std::scoped_lock lk(g_mu);
  return g_totals;
}

void db_meter_record_query(std::size_t scanned, std::size_t rejected,
                           std::size_t aligned, std::size_t hits,
                           const std::vector<std::uint64_t>& per_node_aligned) {
  const std::scoped_lock lk(g_mu);
  ++g_totals.queries;
  g_totals.fragments_scanned += scanned;
  g_totals.fragments_rejected += rejected;
  g_totals.fragments_aligned += aligned;
  g_totals.hits += hits;
  widen(g_totals.node_aligned, per_node_aligned.size());
  for (std::size_t n = 0; n < per_node_aligned.size(); ++n) {
    g_totals.node_aligned[n] += per_node_aligned[n];
  }
}

void db_meter_record_cascade(const CascadeCounters& counters) {
  const std::scoped_lock lk(g_mu);
  g_totals.cascade += counters;
}

void db_meter_record_index_open() {
  const std::scoped_lock lk(g_mu);
  ++g_totals.index_opens;
}

void db_meter_record_shards(const std::vector<std::uint64_t>& per_node_bases) {
  const std::scoped_lock lk(g_mu);
  widen(g_totals.node_bases, per_node_bases.size());
  for (std::size_t n = 0; n < per_node_bases.size(); ++n) {
    g_totals.node_bases[n] += per_node_bases[n];
  }
}

}  // namespace gdsm::db
