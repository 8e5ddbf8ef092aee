// Runtime kernel dispatch: pick the widest backend the CPU supports, let
// GDSM_KERNEL= (or a force_backend call) override it, and meter every call.
//
// All DP call sites in the tree (sw/linear_score, sw/hirschberg,
// core/preprocess, core/exact_parallel, core/reprocess) go through the four
// free functions below; they never name a backend.  Selection happens once,
// on first use:
//
//   1. compiled-in candidates: scalar always; avx2 and striped-avx2 on x86
//      builds
//   2. CPUID (__builtin_cpu_supports) drops what the host can't run
//   3. the preferred survivor wins (striped-avx2 when the host has AVX2,
//      scalar otherwise) — unless GDSM_KERNEL=scalar|avx2|striped-avx2
//      forces one (an unavailable or unknown name warns once on stderr and
//      falls back to the auto pick, it never aborts a run)
//
// striped-avx2 (striped.h) replaces only block_best — the one score-only
// kernel — with the Farrar query-profile sweep; the other four kernels of
// its entry are the anti-diagonal avx2 ones, so forcing it is always total.
//
// tests and benches re-pin the choice with force_backend(); docs/KERNELS.md
// has the full backend matrix and the 16/32-bit width-routing rules.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "simd/kernels.h"
#include "simd/striped.h"

namespace gdsm::simd {

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
  kStripedAvx2 = 2,
};

/// Stable lower-case name ("scalar", "avx2", "striped-avx2") — the
/// GDSM_KERNEL vocabulary, also what reports and NodeStats carry.
const char* backend_name(Backend b);

/// Backends compiled into this binary *and* runnable on this CPU, preferred
/// (auto-pick) last.  Always contains kScalar.
std::vector<Backend> available_backends();

/// The backend the free functions currently dispatch to.
Backend active_backend();
const char* active_backend_name();

/// Pins dispatch to `b` if available; returns the backend actually active
/// afterwards (the auto pick when `b` is unavailable).
Backend force_backend(Backend b);

/// Same, by GDSM_KERNEL vocabulary name; unknown names keep the current
/// choice.  Returns the backend active afterwards.
Backend force_backend(std::string_view name);

// ---------------------------------------------------------------------------
// The dispatched kernels.  Contracts are kernels.h's, backend-independent.

BestCell block_best(const DiagBlock& blk, const ScoreParams& sp);
void block_count(const DiagBlock& blk, const ScoreParams& sp,
                 std::int32_t threshold, std::uint64_t* count_by_a);
void block_hits(const DiagBlock& blk, const ScoreParams& sp,
                std::int32_t threshold, const HitSink& sink);
void nw_last_row(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                 std::size_t b_len, const ScoreParams& sp,
                 std::int32_t* out_by_a);
void nw_last_row_affine(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                        std::size_t b_len, const ScoreParams& sp,
                        std::int32_t tb_open, std::int32_t* out_h,
                        std::int32_t* out_e);

// ---------------------------------------------------------------------------
// Per-kernel metering, aggregated across threads since process start.
// `seconds` is host wall-clock inside the kernel calls, so derived
// throughput is a host_clock quantity; calls/cells are deterministic for a
// deterministic workload.

struct KernelCounters {
  std::uint64_t calls = 0;
  std::uint64_t cells = 0;   ///< DP cell updates (a_len * b_len summed)
  double seconds = 0.0;
};

struct KernelStats {
  const char* backend = "";  ///< active_backend_name() at snapshot time
  KernelCounters best;       ///< block_best
  KernelCounters count;      ///< block_count
  KernelCounters hits;       ///< block_hits
  KernelCounters nw;         ///< nw_last_row
  KernelCounters nw_affine;  ///< nw_last_row_affine
  KernelCounters batch;      ///< batch_best_scores (batch.h)
  StripedCounters striped;   ///< striped-path activity (striped.h)
};

KernelStats kernel_stats();

}  // namespace gdsm::simd
