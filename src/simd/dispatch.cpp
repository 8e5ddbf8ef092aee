#include "simd/dispatch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>

#include "simd/batch.h"

namespace gdsm::simd {

#if GDSM_SIMD_AVX2
namespace avx2 {
// The -mavx2 sweep behind batch_best_scores (batch_avx2.cpp).
void batch_best_scores(const Base* q, std::size_t m, const Base* const* frags,
                       const std::size_t* lens, std::size_t count,
                       const ScoreParams& sp, std::int32_t* out);
}  // namespace avx2
#endif

namespace {

struct Entry {
  BestCell (*block_best)(const DiagBlock&, const ScoreParams&);
  void (*block_count)(const DiagBlock&, const ScoreParams&, std::int32_t,
                      std::uint64_t*);
  void (*block_hits)(const DiagBlock&, const ScoreParams&, std::int32_t,
                     const HitSink&);
  void (*nw_last_row)(const Base*, std::size_t, const Base*, std::size_t,
                      const ScoreParams&, std::int32_t*);
  void (*nw_last_row_affine)(const Base*, std::size_t, const Base*,
                             std::size_t, const ScoreParams&, std::int32_t,
                             std::int32_t*, std::int32_t*);
};

constexpr Entry kScalarEntry{scalar::block_best, scalar::block_count,
                             scalar::block_hits, scalar::nw_last_row,
                             scalar::nw_last_row_affine};
#if GDSM_SIMD_AVX2
constexpr Entry kAvx2Entry{avx2::block_best, avx2::block_count,
                           avx2::block_hits, avx2::nw_last_row,
                           avx2::nw_last_row_affine};
// striped-avx2 swaps in the Farrar block_best and keeps the anti-diagonal
// avx2 kernels for the four that need boundary feeds or per-cell emission
// (dispatch.h).
constexpr Entry kStripedAvx2Entry{
    striped_avx2::block_best, avx2::block_count, avx2::block_hits,
    avx2::nw_last_row, avx2::nw_last_row_affine};
#endif

const Entry& entry_for(Backend b) {
  switch (b) {
#if GDSM_SIMD_AVX2
    case Backend::kAvx2:
      return kAvx2Entry;
    case Backend::kStripedAvx2:
      return kStripedAvx2Entry;
#endif
    default:
      return kScalarEntry;
  }
}

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
#if GDSM_SIMD_AVX2
    case Backend::kAvx2:
    case Backend::kStripedAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#endif
    default:
      return false;
  }
}

// The GDSM_KERNEL vocabulary, indexed by Backend.
constexpr const char* kNames[] = {"scalar", "avx2", "striped-avx2"};

bool parse_name(std::string_view name, Backend* out) {
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (name == kNames[i]) {
      *out = static_cast<Backend>(i);
      return true;
    }
  }
  return false;
}

// The resolved choice.  Initialization (first access) applies GDSM_KERNEL;
// force_backend overwrites it afterwards.
std::atomic<Backend>& active_slot() {
  static std::atomic<Backend> slot = [] {
    Backend pick = available_backends().back();
    if (const char* env = std::getenv("GDSM_KERNEL"); env != nullptr) {
      Backend want;
      if (!parse_name(env, &want)) {
        std::fprintf(stderr,
                     "gdsm: GDSM_KERNEL=%s unknown "
                     "(scalar|avx2|striped-avx2), using %s\n",
                     env, backend_name(pick));
      } else if (!cpu_supports(want)) {
        std::fprintf(stderr,
                     "gdsm: GDSM_KERNEL=%s not available on this "
                     "build/CPU, using %s\n",
                     env, backend_name(pick));
      } else {
        pick = want;
      }
    }
    return pick;
  }();
  return slot;
}

// ---------------------------------------------------------------------------
// Metering: lock-free accumulators, one triple per kernel.

struct AtomicCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> cells{0};
  std::atomic<std::uint64_t> nanos{0};
};

AtomicCounters g_best, g_count, g_hits, g_nw, g_nw_affine, g_batch;

class Meter {
 public:
  Meter(AtomicCounters& c, std::uint64_t cells)
      : c_(c), cells_(cells), t0_(std::chrono::steady_clock::now()) {}
  ~Meter() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    c_.calls.fetch_add(1, std::memory_order_relaxed);
    c_.cells.fetch_add(cells_, std::memory_order_relaxed);
    c_.nanos.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count(),
        std::memory_order_relaxed);
  }

 private:
  AtomicCounters& c_;
  std::uint64_t cells_;
  std::chrono::steady_clock::time_point t0_;
};

KernelCounters snapshot(const AtomicCounters& c) {
  KernelCounters out;
  out.calls = c.calls.load(std::memory_order_relaxed);
  out.cells = c.cells.load(std::memory_order_relaxed);
  out.seconds = 1e-9 * static_cast<double>(c.nanos.load(std::memory_order_relaxed));
  return out;
}

}  // namespace

const char* backend_name(Backend b) {
  const auto i = static_cast<std::size_t>(b);
  return i < std::size(kNames) ? kNames[i] : "scalar";
}

std::vector<Backend> available_backends() {
  // Preferred last (the auto pick): striped-avx2 outranks the anti-diagonal
  // avx2 kernel on the score-only hot path; without AVX2 only scalar runs.
  std::vector<Backend> out{Backend::kScalar};
  if (cpu_supports(Backend::kAvx2)) {
    out.push_back(Backend::kAvx2);
    out.push_back(Backend::kStripedAvx2);
  }
  return out;
}

Backend active_backend() { return active_slot().load(std::memory_order_relaxed); }

const char* active_backend_name() { return backend_name(active_backend()); }

Backend force_backend(Backend b) {
  if (cpu_supports(b)) active_slot().store(b, std::memory_order_relaxed);
  return active_backend();
}

Backend force_backend(std::string_view name) {
  Backend want;
  if (parse_name(name, &want)) return force_backend(want);
  return active_backend();
}

BestCell block_best(const DiagBlock& blk, const ScoreParams& sp) {
  Meter m(g_best, static_cast<std::uint64_t>(blk.a_len) * blk.b_len);
  return entry_for(active_backend()).block_best(blk, sp);
}

void block_count(const DiagBlock& blk, const ScoreParams& sp,
                 std::int32_t threshold, std::uint64_t* count_by_a) {
  Meter m(g_count, static_cast<std::uint64_t>(blk.a_len) * blk.b_len);
  entry_for(active_backend()).block_count(blk, sp, threshold, count_by_a);
}

void block_hits(const DiagBlock& blk, const ScoreParams& sp,
                std::int32_t threshold, const HitSink& sink) {
  Meter m(g_hits, static_cast<std::uint64_t>(blk.a_len) * blk.b_len);
  entry_for(active_backend()).block_hits(blk, sp, threshold, sink);
}

void nw_last_row(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                 std::size_t b_len, const ScoreParams& sp,
                 std::int32_t* out_by_a) {
  Meter m(g_nw, static_cast<std::uint64_t>(a_len) * b_len);
  entry_for(active_backend()).nw_last_row(a_seq, a_len, b_seq, b_len, sp,
                                          out_by_a);
}

void nw_last_row_affine(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                        std::size_t b_len, const ScoreParams& sp,
                        std::int32_t tb_open, std::int32_t* out_h,
                        std::int32_t* out_e) {
  Meter m(g_nw_affine, static_cast<std::uint64_t>(a_len) * b_len);
  entry_for(active_backend())
      .nw_last_row_affine(a_seq, a_len, b_seq, b_len, sp, tb_open, out_h,
                          out_e);
}

bool batch_fits(std::size_t m, std::size_t n_max, const ScoreParams& sp) {
  if (sp.match <= 0 || sp.mismatch >= 0 || sp.gap >= 0 || sp.gap_open > 0) {
    return false;
  }
  // No cell exceeds match * min(m, n); one biased substitution (match +
  // bias, bias = -mismatch) on top of it is the widest intermediate.
  const auto reach = static_cast<std::int64_t>(
      std::min({m, n_max, std::size_t{1} << 20}));
  const std::int64_t top =
      std::int64_t{sp.match} * reach + sp.match - sp.mismatch;
  const std::int64_t gap_oe = -(std::int64_t{sp.gap_open} + sp.gap);
  return top <= 255 && gap_oe <= 255;
}

bool batch_best_scores(const Base* q, std::size_t m, const Base* const* frags,
                       const std::size_t* lens, std::size_t count,
                       const ScoreParams& sp, std::int32_t* out) {
#if GDSM_SIMD_AVX2
  if (count > kBatchLanes) {
    throw std::invalid_argument("batch_best_scores: more than kBatchLanes");
  }
  if (active_backend() == Backend::kScalar) return false;
  for (std::size_t i = 0; i < m; ++i) {
    if (q[i] >= kAlphabetSize) return false;
  }
  std::size_t n_max = 0;
  std::uint64_t cells = 0;
  for (std::size_t k = 0; k < count; ++k) {
    n_max = std::max(n_max, lens[k]);
    cells += static_cast<std::uint64_t>(m) * lens[k];
  }
  if (!batch_fits(m, n_max, sp)) return false;
  Meter meter(g_batch, cells);
  avx2::batch_best_scores(q, m, frags, lens, count, sp, out);
  return true;
#else
  (void)q, (void)m, (void)frags, (void)lens, (void)count, (void)sp, (void)out;
  return false;
#endif
}

KernelStats kernel_stats() {
  KernelStats out;
  out.backend = active_backend_name();
  out.best = snapshot(g_best);
  out.count = snapshot(g_count);
  out.hits = snapshot(g_hits);
  out.nw = snapshot(g_nw);
  out.nw_affine = snapshot(g_nw_affine);
  out.batch = snapshot(g_batch);
  out.striped = striped_counters();
  return out;
}

}  // namespace gdsm::simd
