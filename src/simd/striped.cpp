// Striped-kernel shared state: activity counters, query-profile builds, and
// the process-wide profile LRU cache (docs/KERNELS.md "Striped query-profile
// kernels").
#include "simd/striped.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <utility>

#include "simd/dispatch.h"
#include "util/alphabet.h"

namespace gdsm::simd {
namespace {

struct AtomicStripedCounters {
  std::atomic<std::uint64_t> sweeps8{0}, sweeps16{0};
  std::atomic<std::uint64_t> cells8{0}, cells16{0};
  std::atomic<std::uint64_t> overflow_reruns{0}, fallback32{0}, delegated{0};
  std::atomic<std::uint64_t> profile_builds{0}, profile_hits{0};
};

AtomicStripedCounters g_striped;

/// Biased substitution score of query char `qc` against database char `dc`
/// under the kernels.h rule: equal and not N scores match, otherwise
/// mismatch.  (kBaseN never matches, not even itself.)
inline int biased_sub(Base qc, Base dc, const ScoreParams& sp, int bias) {
  return ((qc == dc && qc != kBaseN) ? sp.match : sp.mismatch) + bias;
}

/// Cache key: exact query bytes + the four score params.
struct CacheKey {
  std::string query;
  int match, mismatch, gap, gap_open;

  bool operator==(const CacheKey& o) const {
    return match == o.match && mismatch == o.mismatch && gap == o.gap &&
           gap_open == o.gap_open && query == o.query;
  }
};

constexpr std::size_t kCacheCapacity = 32;

struct ProfileCache {
  std::mutex mu;
  // Front = most recently used.  Linear scan is fine at this capacity.
  std::list<std::pair<CacheKey, std::shared_ptr<const detail::QueryProfile>>>
      entries;
};

ProfileCache& profile_cache() {
  static ProfileCache cache;
  return cache;
}

std::shared_ptr<const detail::QueryProfile> build_profile(
    const Base* q, std::size_t m, const ScoreParams& sp) {
  auto prof = std::make_shared<detail::QueryProfile>();
  prof->m = m;
  prof->bias = std::max({0, -sp.match, -sp.mismatch});
  const int splus = std::max({sp.match, sp.mismatch, 0});
  // Gap magnitudes must be non-negative (gap extensions that *gain* score
  // would break the saturating recurrence and the overflow proof) and
  // representable in a lane; score+bias must fit too.
  const bool gaps_ok = sp.gap <= 0 && sp.gap_open + sp.gap <= 0;
  const int gap_e_mag = -sp.gap;
  const int gap_oe_mag = -(sp.gap_open + sp.gap);
  prof->fit8 = gaps_ok && prof->bias <= 255 && splus + prof->bias <= 255 &&
               gap_e_mag <= 255 && gap_oe_mag <= 255;
  prof->fit16 = gaps_ok && prof->bias <= 65535 &&
                splus + prof->bias <= 65535 && gap_e_mag <= 65535 &&
                gap_oe_mag <= 65535;
  if (!prof->fit8 && !prof->fit16) return prof;

  auto fill = [&](auto& out, std::size_t seg, int lanes) {
    out.assign(static_cast<std::size_t>(kAlphabetSize) * seg *
                   static_cast<std::size_t>(lanes),
               0);
    for (int c = 0; c < kAlphabetSize; ++c) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t lane = i / seg;
        const std::size_t s = i % seg;
        // Padding positions (i >= m) keep the pre-filled 0 = biased worst.
        out[(static_cast<std::size_t>(c) * seg + s) *
                static_cast<std::size_t>(lanes) +
            lane] =
            static_cast<typename std::decay_t<decltype(out)>::value_type>(
                biased_sub(q[i], static_cast<Base>(c), sp, prof->bias));
      }
    }
  };
  if (prof->fit8) {
    prof->seg8 = (m + detail::kStripedLanes8 - 1) / detail::kStripedLanes8;
    fill(prof->prof8, prof->seg8, detail::kStripedLanes8);
  }
  if (prof->fit16) {
    prof->seg16 = (m + detail::kStripedLanes16 - 1) / detail::kStripedLanes16;
    fill(prof->prof16, prof->seg16, detail::kStripedLanes16);
  }
  return prof;
}

}  // namespace

StripedCounters striped_counters() {
  StripedCounters out;
  out.sweeps8 = g_striped.sweeps8.load(std::memory_order_relaxed);
  out.sweeps16 = g_striped.sweeps16.load(std::memory_order_relaxed);
  out.cells8 = g_striped.cells8.load(std::memory_order_relaxed);
  out.cells16 = g_striped.cells16.load(std::memory_order_relaxed);
  out.overflow_reruns =
      g_striped.overflow_reruns.load(std::memory_order_relaxed);
  out.fallback32 = g_striped.fallback32.load(std::memory_order_relaxed);
  out.delegated = g_striped.delegated.load(std::memory_order_relaxed);
  out.profile_builds = g_striped.profile_builds.load(std::memory_order_relaxed);
  out.profile_hits = g_striped.profile_hits.load(std::memory_order_relaxed);
  return out;
}

void warm_query_profile(const Base* q, std::size_t len,
                        const ScoreParams& sp) {
  if (active_backend() != Backend::kStripedAvx2 || q == nullptr || len == 0) {
    return;
  }
  (void)detail::striped_profile(q, len, sp);
}

void clear_query_profile_cache() {
  ProfileCache& cache = profile_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
}

namespace detail {

std::shared_ptr<const QueryProfile> striped_profile(const Base* q,
                                                    std::size_t m,
                                                    const ScoreParams& sp) {
  if (q == nullptr || m == 0) return nullptr;
  for (std::size_t i = 0; i < m; ++i) {
    if (q[i] >= kAlphabetSize) return nullptr;
  }
  CacheKey key{std::string(reinterpret_cast<const char*>(q), m),
               sp.match,
               sp.mismatch,
               sp.gap,
               sp.gap_open};
  ProfileCache& cache = profile_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    for (auto it = cache.entries.begin(); it != cache.entries.end(); ++it) {
      if (it->first == key) {
        g_striped.profile_hits.fetch_add(1, std::memory_order_relaxed);
        cache.entries.splice(cache.entries.begin(), cache.entries, it);
        return cache.entries.front().second;
      }
    }
  }
  // Build outside the lock: profile construction is O(alphabet * m) and
  // concurrent same-key builds are benign (last insert wins).
  std::shared_ptr<const QueryProfile> prof = build_profile(q, m, sp);
  g_striped.profile_builds.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.entries.emplace_front(std::move(key), prof);
    while (cache.entries.size() > kCacheCapacity) cache.entries.pop_back();
  }
  return prof;
}

void note_sweep8(std::uint64_t cells) {
  g_striped.sweeps8.fetch_add(1, std::memory_order_relaxed);
  g_striped.cells8.fetch_add(cells, std::memory_order_relaxed);
}

void note_sweep16(std::uint64_t cells) {
  g_striped.sweeps16.fetch_add(1, std::memory_order_relaxed);
  g_striped.cells16.fetch_add(cells, std::memory_order_relaxed);
}

void note_overflow_rerun() {
  g_striped.overflow_reruns.fetch_add(1, std::memory_order_relaxed);
}

void note_fallback32() {
  g_striped.fallback32.fetch_add(1, std::memory_order_relaxed);
}

void note_delegated() {
  g_striped.delegated.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail
}  // namespace gdsm::simd
