#include "obs/snapshots.h"

#include "db/meter.h"
#include "net/message.h"
#include "simd/dispatch.h"

namespace gdsm::obs {

Json to_json(const net::TrafficCounters& tc) {
  Json j = Json::object();
  j.set("messages", tc.total_messages());
  j.set("bytes", tc.total_bytes());
  Json by_type = Json::object();
  for (int i = 0; i < net::kNumMsgTypes; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (tc.messages[idx] == 0 && tc.bytes[idx] == 0) continue;
    Json entry = Json::object();
    entry.set("messages", tc.messages[idx]);
    entry.set("bytes", tc.bytes[idx]);
    by_type.set(net::msg_type_name(static_cast<net::MsgType>(i)), std::move(entry));
  }
  j.set("by_type", std::move(by_type));
  return j;
}

Json to_json(const net::FaultCounters& fc) {
  Json j = Json::object();
  j.set("faulted_messages", fc.faulted_messages);
  j.set("drops", fc.drops);
  j.set("retransmits", fc.retransmits);
  j.set("delays", fc.delays);
  j.set("reorder_holds", fc.reorder_holds);
  j.set("duplicates_suppressed", fc.duplicates_suppressed);
  j.set("partition_stalls", fc.partition_stalls);
  return j;
}

Json to_json(const dsm::NodeStats& ns) {
  Json j = Json::object();
  j.set("read_faults", ns.read_faults);
  j.set("cache_hits", ns.cache_hits);
  j.set("write_faults", ns.write_faults);
  j.set("diffs_sent", ns.diffs_sent);
  j.set("diff_bytes", ns.diff_bytes);
  j.set("invalidations", ns.invalidations);
  j.set("evictions", ns.evictions);
  j.set("lock_acquires", ns.lock_acquires);
  j.set("lock_releases", ns.lock_releases);
  j.set("barriers", ns.barriers);
  j.set("cv_signals", ns.cv_signals);
  j.set("cv_waits", ns.cv_waits);
  j.set("request_timeouts", ns.request_timeouts);
  j.set("request_retries", ns.request_retries);
  j.set("stale_replies", ns.stale_replies);
  j.set("dp_cells", ns.dp_cells);
  j.set("diff_batches_sent", ns.diff_batches_sent);
  j.set("diff_pages_batched", ns.diff_pages_batched);
  j.set("bulk_fetches", ns.bulk_fetches);
  j.set("bulk_pages_fetched", ns.bulk_pages_fetched);
  j.set("empty_diffs_suppressed", ns.empty_diffs_suppressed);
  j.set("peer_failures", ns.peer_failures);
  j.set("segv_faults", ns.segv_faults);
  j.set("pages_mapped", ns.pages_mapped);
  j.set("pages_protected", ns.pages_protected);
  j.set("twins_created", ns.twins_created);
  j.set("socket_bytes_sent", ns.socket_bytes_sent);
  j.set("socket_bytes_received", ns.socket_bytes_received);
  j.set("grant_pages", ns.grant_pages);
  return j;
}

Json to_json(const dsm::DsmStats& stats) {
  Json j = Json::object();
  j.set("backend", dsm::backend_name(stats.backend));
  Json nodes = Json::array();
  for (const auto& n : stats.node) nodes.push(to_json(n));
  j.set("nodes", std::move(nodes));
  Json traffic = Json::array();
  for (const auto& t : stats.traffic) traffic.push(to_json(t));
  j.set("traffic", std::move(traffic));
  Json totals = Json::object();
  totals.set("node", to_json(stats.total_node()));
  totals.set("traffic", to_json(stats.total_traffic()));
  j.set("totals", std::move(totals));
  j.set("home_migrations", stats.home_migrations);
  j.set("faults", to_json(stats.faults));
  return j;
}

Json to_json(const sim::Breakdown& bd) {
  Json j = Json::object();
  j.set("computation_s", bd[sim::Cat::kCompute]);
  j.set("communication_s", bd[sim::Cat::kComm]);
  j.set("lock_cv_s", bd[sim::Cat::kLockCv]);
  j.set("barrier_s", bd[sim::Cat::kBarrier]);
  j.set("io_s", bd[sim::Cat::kIo]);
  j.set("total_s", bd.total());
  return j;
}

Json space_usage_json(const dsm::GlobalSpace& space) {
  Json j = Json::object();
  const std::size_t pages = space.num_pages();
  j.set("pages", pages);
  j.set("pages_free", space.free_pages());
  j.set("bytes", pages * space.page_bytes());
  j.set("page_bytes", space.page_bytes());
  Json per_node = Json::array();
  for (const std::size_t n : space.pages_per_node()) per_node.push(n);
  j.set("pages_per_node", std::move(per_node));
  return j;
}

namespace {

Json kernel_counters_json(const simd::KernelCounters& kc, bool host_clock) {
  Json j = Json::object();
  j.set("calls", kc.calls);
  j.set("cells", kc.cells);
  if (host_clock) {
    j.set("seconds", kc.seconds);
    j.set("cells_per_second", kc.seconds > 0.0 ? kc.cells / kc.seconds : 0.0);
  }
  return j;
}

}  // namespace

Json kernel_stats_json(bool host_clock) {
  const simd::KernelStats ks = simd::kernel_stats();
  Json j = Json::object();
  j.set("backend", ks.backend);
  j.set("best", kernel_counters_json(ks.best, host_clock));
  j.set("count", kernel_counters_json(ks.count, host_clock));
  j.set("hits", kernel_counters_json(ks.hits, host_clock));
  j.set("nw", kernel_counters_json(ks.nw, host_clock));
  j.set("nw_affine", kernel_counters_json(ks.nw_affine, host_clock));
  j.set("batch", kernel_counters_json(ks.batch, host_clock));
  // v6: which gap models this run's kernels served.  The linear counters
  // above aggregate both models (one dispatch table serves both); the
  // affine-only nw_affine block plus this marker lets consumers split runs.
  Json gaps = Json::object();
  gaps.set("nw_affine_calls", ks.nw_affine.calls);
  gaps.set("nw_affine_cells", ks.nw_affine.cells);
  j.set("gap_models", std::move(gaps));
  // v9: striped query-profile kernel activity (docs/METRICS.md
  // "kernel.striped").  All-zero when no striped backend ran.
  Json striped = Json::object();
  striped.set("sweeps8", ks.striped.sweeps8);
  striped.set("sweeps16", ks.striped.sweeps16);
  striped.set("cells8", ks.striped.cells8);
  striped.set("cells16", ks.striped.cells16);
  striped.set("overflow_reruns", ks.striped.overflow_reruns);
  striped.set("fallback32", ks.striped.fallback32);
  striped.set("delegated", ks.striped.delegated);
  striped.set("profile_builds", ks.striped.profile_builds);
  striped.set("profile_hits", ks.striped.profile_hits);
  j.set("striped", std::move(striped));
  return j;
}

Json comm_stats_json() {
  const dsm::NodeStats totals = dsm::comm_totals();
  Json j = Json::object();
  j.set("diff_batches_sent", totals.diff_batches_sent);
  j.set("diff_pages_batched", totals.diff_pages_batched);
  j.set("bulk_fetches", totals.bulk_fetches);
  j.set("bulk_pages_fetched", totals.bulk_pages_fetched);
  j.set("empty_diffs_suppressed", totals.empty_diffs_suppressed);
  j.set("grant_pages", totals.grant_pages);
  j.set("round_trips_saved", totals.round_trips_saved());
  return j;
}

Json db_stats_json() {
  const db::DbMeterSnapshot s = db::db_meter_snapshot();
  Json j = Json::object();
  j.set("queries", s.queries);
  j.set("fragments_scanned", s.fragments_scanned);
  j.set("fragments_rejected", s.fragments_rejected);
  j.set("fragments_aligned", s.fragments_aligned);
  j.set("filtration_rate", s.filtration_rate());
  j.set("hits", s.hits);
  j.set("index_opens", s.index_opens);
  Json balance = Json::object();
  Json bases = Json::array();
  for (const std::uint64_t b : s.node_bases) bases.push(b);
  balance.set("node_bases", std::move(bases));
  Json aligned = Json::array();
  for (const std::uint64_t a : s.node_aligned) aligned.push(a);
  balance.set("node_aligned", std::move(aligned));
  j.set("shard_balance", std::move(balance));
  return j;
}

Json dsm_backend_json() {
  const dsm::NodeStats totals = dsm::comm_totals();
  Json j = Json::object();
  j.set("backend", dsm::backend_name(dsm::default_backend()));
  j.set("peer_failures", totals.peer_failures);
  j.set("segv_faults", totals.segv_faults);
  j.set("pages_mapped", totals.pages_mapped);
  j.set("pages_protected", totals.pages_protected);
  j.set("twins_created", totals.twins_created);
  j.set("socket_bytes_sent", totals.socket_bytes_sent);
  j.set("socket_bytes_received", totals.socket_bytes_received);
  return j;
}

}  // namespace gdsm::obs
