#include "svc/stats.h"

#include <algorithm>
#include <cmath>

namespace gdsm::svc {

void LatencyHistogram::record(double seconds) {
  if (seconds < 0) seconds = 0;
  const double us = seconds * 1e6;
  int b = 0;
  while (b + 1 < kBuckets &&
         us >= static_cast<double>(bucket_edge_us(b))) {
    ++b;
  }
  ++buckets[static_cast<std::size_t>(b)];
  ++count;
  sum_s += seconds;
  max_s = std::max(max_s, seconds);
}

double LatencyHistogram::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(bucket_edge_us(b)) * 1e-6;
    }
  }
  return max_s;
}

obs::Json LatencyHistogram::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("count", count);
  j.set("sum_s", sum_s);
  j.set("mean_s", mean_s());
  j.set("max_s", max_s);
  j.set("p50_s", quantile(0.50));
  j.set("p90_s", quantile(0.90));
  j.set("p99_s", quantile(0.99));
  obs::Json rows = obs::Json::array();
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;  // sparse: empty buckets carry no information
    obs::Json row = obs::Json::object();
    row.set("le_us", bucket_edge_us(b));
    row.set("count", n);
    rows.push(std::move(row));
  }
  j.set("buckets", std::move(rows));
  return j;
}

obs::Json ServiceStats::to_json() const {
  obs::Json j = obs::Json::object();

  obs::Json admission = obs::Json::object();
  admission.set("admitted", admitted);
  admission.set("rejected_full", rejected_full);
  admission.set("rejected_closed", rejected_closed);
  admission.set("rejected_deadline", rejected_deadline);
  j.set("admission", std::move(admission));

  obs::Json completion = obs::Json::object();
  completion.set("completed", completed);
  completion.set("failed", failed);
  completion.set("recoveries", recoveries);
  j.set("completion", std::move(completion));

  obs::Json residency = obs::Json::object();
  residency.set("warm_queries", warm_queries);
  residency.set("cold_queries", cold_queries);
  residency.set("cache_hits", cache_hits);
  residency.set("read_faults", read_faults);
  j.set("residency", std::move(residency));

  obs::Json queue = obs::Json::object();
  queue.set("depth_samples", depth_samples);
  queue.set("depth_mean",
            depth_samples ? static_cast<double>(depth_sum) /
                                static_cast<double>(depth_samples)
                          : 0.0);
  queue.set("depth_max", depth_max);
  j.set("queue", std::move(queue));

  obs::Json strategies = obs::Json::object();
  for (int k = 0; k < kNumStrategies; ++k) {
    strategies.set(strategy_name(static_cast<StrategyKind>(k)),
                   by_strategy[static_cast<std::size_t>(k)]);
  }
  j.set("dispatch_by_strategy", std::move(strategies));
  j.set("kernel_backend", kernel_backend);

  obs::Json gaps = obs::Json::object();
  gaps.set("linear_queries", linear_queries);
  gaps.set("affine_queries", affine_queries);
  j.set("gap_models", std::move(gaps));

  obs::Json db = obs::Json::object();
  db.set("queries", db_queries);
  db.set("fragments_scanned", db_fragments_scanned);
  db.set("fragments_rejected", db_fragments_rejected);
  db.set("fragments_aligned", db_fragments_aligned);
  db.set("filtration_rate",
         db_fragments_scanned
             ? static_cast<double>(db_fragments_rejected) /
                   static_cast<double>(db_fragments_scanned)
             : 0.0);
  db.set("hits", db_hits);
  j.set("db", std::move(db));

  j.set("latency_total", total_latency.to_json());
  j.set("latency_run", run_latency.to_json());
  return j;
}

}  // namespace gdsm::svc
