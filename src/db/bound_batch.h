// Vector backend of the stage-1 filtration bound: the seeded-run DP of
// subject_db.cpp evaluated for a whole batch of candidate fragments at once,
// 8 per 256-bit vector of 32-bit states.
//
// The scalar bound walks one fragment's seed bits per call, so a scan over
// F seeded fragments pays F dependent m-column DP sweeps — the dominant cost
// of db_query on small-q indexes, where the O(1) distinct-count prefilter
// almost never fires.  Batching turns the fragment dimension into SIMD
// lanes: the per-column recurrence (a max/add network over q states) is
// identical in every lane, and only the per-window seed flag differs, so one
// column update serves 8 fragments.  The flags are read straight from the
// scan's seed bitmap (one row of 64-bit words per fragment, bit w = query
// window w is seeded): every 32 columns the kernel loads one 32-bit slice of
// each lane's row into a vector, and each column shifts the next window's
// bit into the sign position, where it serves as the lane's blend mask.
//
// The batch computes the *exact* bound (no early exits).  The scalar
// fallback exits early only on rejection, so every survivor carries the
// same exact bound down both paths, and the scan's whole ScanResult —
// verdicts, cascade resolutions and counters — is identical either way.
//
// Like simd/dispatch.cpp, the AVX2 translation unit is the only one built
// with -mavx2 and every call is CPUID-gated; hosts (or builds) without AVX2
// fall back to the scalar per-fragment loop in subject_db.cpp.  Set
// GDSM_DB_BOUND=scalar to force the fallback — the differential tests use
// this to check the two paths agree.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gdsm::db {

/// True when the AVX2 batch kernel is compiled in, the CPU supports it, and
/// GDSM_DB_BOUND does not force the scalar path.  The CPU probe is cached;
/// the environment is read on every call, so a test can compare both paths
/// in one process.
bool bound_batch_available();

/// Exact seeded-run bounds for `count` candidates sharing one query of
/// length m.
///
///   seed_bits  the seed bitmap: row f is seed_bits[f * words, (f+1) *
///              words), and bit w % 64 of word w / 64 is set when fragment
///              f contains the query q-gram at window w, for w in
///              [0, m - q + 1)
///   words      row length in 64-bit words, >= ceil((m - q + 1) / 64)
///   cand       the candidates' fragment ids (rows of seed_bits)
///   a          match score (> 0; callers handle degenerate schemes)
///   p          per-column error penalty max(0, min(-mismatch, -gap))
///   q          q-gram length, in [2, 15]
///   out        receives one bound per candidate; at least count rounded
///              up to a multiple of 8 ints (padding lanes repeat the last
///              candidate)
///
/// out[c] equals seeded_run_bound(m, flags-of-cand[c], scheme, q) exactly.
/// Must only be called when bound_batch_available().
void seeded_bound_batch(std::size_t m, const std::uint64_t* seed_bits,
                        std::size_t words, const std::uint32_t* cand,
                        std::size_t count, int a, int p, std::size_t q,
                        std::int32_t* out);

}  // namespace gdsm::db
