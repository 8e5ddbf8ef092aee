// Filtration-scan and index-persistence tests (docs/SERVICE.md "Database
// serving").
//
// The bitmap scan claims its survivor set is exactly the fragments whose
// admissible bound reaches min_score, whichever bound evaluator (the AVX2
// batch or the scalar fallback) runs.  These tests check that against an
// independent per-fragment bound on adversarial inputs (window counts
// around word edges, N runs, long queries, several q), cross-check the
// full pipeline against brute_force_hits on both the direct-align and the
// forced cluster path, and round-trip the persisted q-gram index including
// corruption rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "db/bound_batch.h"
#include "db/qgram_index.h"
#include "db/subject_db.h"
#include "testing/db_oracle.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm {
namespace {

const ScoreScheme kLinear{};
const ScoreScheme kAffine{1, -1, -1, -3};

std::vector<Sequence> make_db_sequences(std::size_t n, std::size_t len,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < n; ++i) {
    seqs.push_back(random_dna(len, rng, "chr" + std::to_string(i)));
  }
  return seqs;
}

/// A sequence of `copies` concatenated repeats of a random `motif_len`
/// motif — every copy repeats every q-gram, so each code carries many
/// postings.
Sequence tandem_repeat(std::size_t motif_len, std::size_t copies,
                       std::uint64_t seed, const std::string& name) {
  Rng rng(seed);
  const Sequence motif = random_dna(motif_len, rng);
  Sequence out;
  out.set_name(name);
  for (std::size_t c = 0; c < copies; ++c) {
    for (std::size_t i = 0; i < motif.size(); ++i) out.append(motif[i]);
  }
  return out;
}

// -------------------------------------------------------- bitmap scan --

/// `s` with `runs` stretches of 1..max_len N bases written over it.
Sequence with_n_runs(const Sequence& s, std::size_t runs, std::size_t max_len,
                     Rng& rng) {
  std::string text = s.text();
  for (std::size_t r = 0; r < runs && !text.empty(); ++r) {
    const std::size_t at = rng.below(text.size());
    const std::size_t len = 1 + rng.below(max_len);
    for (std::size_t k = at; k < std::min(text.size(), at + len); ++k) {
      text[k] = 'N';
    }
  }
  return Sequence(s.name(), text);
}

/// db.scan() with the bound evaluator picked through GDSM_DB_BOUND:
/// "scalar" forces the per-fragment fallback, nullptr the default (the AVX2
/// batch where the host has it).  The caller's setting is restored.
db::SubjectDb::ScanResult scan_on_path(const db::SubjectDb& db,
                                       const Sequence& query,
                                       const ScoreScheme& scheme,
                                       int min_score, const char* path) {
  const char* prev = std::getenv("GDSM_DB_BOUND");
  const std::string saved = prev != nullptr ? prev : "";
  if (path != nullptr) {
    ::setenv("GDSM_DB_BOUND", path, 1);
  } else {
    ::unsetenv("GDSM_DB_BOUND");
  }
  db::SubjectDb::ScanResult r = db.scan(query, scheme, min_score);
  if (prev != nullptr) {
    ::setenv("GDSM_DB_BOUND", saved.c_str(), 1);
  } else {
    ::unsetenv("GDSM_DB_BOUND");
  }
  return r;
}

void expect_same_scan(const db::SubjectDb::ScanResult& a,
                      const db::SubjectDb::ScanResult& b) {
  EXPECT_EQ(a.scanned, b.scanned);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.forwarded, b.forwarded);
}

/// Everything the bitmap scan promises for one (db, query, threshold):
///  - filter().survivors is exactly the fragments whose bound, computed
///    independently by score_bound (an ad-hoc word index of the fragment,
///    no posting list, no bitmap), reaches min_score;
///  - scan() forwards exactly that set;
///  - the scalar and the batched bound give the same ScanResult.
void expect_bitmap_scan_exact(const db::SubjectDb& db, const Sequence& query,
                              const ScoreScheme& scheme, int min_score) {
  std::vector<std::uint32_t> want;
  for (std::uint32_t f = 0; f < db.fragments().size(); ++f) {
    if (db.score_bound(query, f, scheme) >= min_score) want.push_back(f);
  }
  EXPECT_EQ(db.filter(query, scheme, min_score).survivors, want)
      << "m=" << query.size() << " min_score=" << min_score;
  const db::SubjectDb::ScanResult batched =
      scan_on_path(db, query, scheme, min_score, nullptr);
  EXPECT_EQ(batched.forwarded, want)
      << "m=" << query.size() << " min_score=" << min_score;
  expect_same_scan(batched,
                   scan_on_path(db, query, scheme, min_score, "scalar"));
}

TEST(BitmapScan, WindowCountsAroundWordEdges) {
  const auto seqs = make_db_sequences(3, 700, 61);
  const db::SubjectDb db(seqs, {});
  const std::size_t q = db.config().q;
  for (const std::size_t windows : {0, 1, 63, 64, 65, 128, 129}) {
    const std::size_t m = windows == 0 ? q - 1 : windows + q - 1;
    Rng rng(700 + windows);
    const Sequence& src = seqs[windows % seqs.size()];
    const std::size_t begin = rng.below(src.size() - m);
    const Sequence hom =
        mutate(src.slice(begin, begin + m), 0.03, 0.0, rng);
    const Sequence rnd = random_dna(m, rng);
    ASSERT_EQ(hom.size(), m);
    for (const ScoreScheme& scheme : {kLinear, kAffine}) {
      for (const Sequence* probe : {&hom, &rnd}) {
        for (const std::size_t frac : {3, 6, 9}) {
          const int min_score = static_cast<int>(m * frac / 10) + 1;
          expect_bitmap_scan_exact(db, *probe, scheme, min_score);
        }
      }
    }
  }
}

TEST(BitmapScan, QueriesAndSubjectsWithNRuns) {
  Rng rng(62);
  std::vector<Sequence> seqs = make_db_sequences(3, 600, 62);
  seqs[1] = with_n_runs(seqs[1], 6, 20, rng);
  const db::SubjectDb db(seqs, {});
  for (std::uint64_t s = 0; s < 8; ++s) {
    const Sequence& src = seqs[s % seqs.size()];
    const std::size_t begin = (s * 53) % (src.size() - 150);
    Sequence probe = mutate(src.slice(begin, begin + 150), 0.02, 0.0, rng);
    // From a few single Ns up to runs longer than q, and one all-N probe.
    probe = s == 7 ? Sequence("allN", std::string(150, 'N'))
                   : with_n_runs(probe, 1 + s, 2 * s + 1, rng);
    for (const ScoreScheme& scheme : {kLinear, kAffine}) {
      for (const int min_score : {40, 90, 120}) {
        expect_bitmap_scan_exact(db, probe, scheme, min_score);
      }
    }
  }
}

TEST(BitmapScan, LongQuerySpansManyBitmapWords) {
  const auto seqs = make_db_sequences(2, 4000, 63);
  const db::SubjectDb db(seqs, {});
  Rng rng(64);
  // A 3 kbp homolog (47 bitmap words per fragment) and a random 3 kbp probe.
  const Sequence hom = mutate(seqs[0].slice(500, 3500), 0.03, 0.005, rng);
  const Sequence rnd = random_dna(3000, rng);
  for (const ScoreScheme& scheme : {kLinear, kAffine}) {
    for (const Sequence* probe : {&hom, &rnd}) {
      for (const int min_score : {120, 200}) {
        expect_bitmap_scan_exact(db, *probe, scheme, min_score);
      }
    }
  }
}

TEST(BitmapScan, ScalarAndBatchedBoundsAgreeAcrossQ) {
  const auto seqs = make_db_sequences(3, 900, 65);
  for (const std::size_t q : {4, 5, 7, 11}) {
    db::DbConfig cfg;
    cfg.q = q;
    const db::SubjectDb db(seqs, cfg);
    for (std::uint64_t s = 0; s < 6; ++s) {
      Rng rng(800 + s);
      const Sequence& src = seqs[s % seqs.size()];
      const Sequence probe =
          s % 3 == 2 ? random_dna(150, rng)
                     : mutate(src.slice(100 * s, 100 * s + 150),
                              0.01 * static_cast<double>(s), 0.005, rng);
      for (const ScoreScheme& scheme : {kLinear, kAffine}) {
        for (const int min_score : {60, 100, 125}) {
          expect_bitmap_scan_exact(db, probe, scheme, min_score);
        }
      }
    }
  }
}

// ------------------------------------------------------- batch bound --

// The AVX2 batched bound (bound_batch.h) must agree lane-for-lane with the
// scalar seeded-run DP on arbitrary seed bitmaps: all-zero and all-one
// lanes, random densities, both gap models, the fixed-q instantiations and
// the generic fallback, window counts either side of the 32-bit slice and
// 64-bit word edges, candidates picked out of order from a larger bitmap,
// and counts off the lane multiple.  Skipped (never silently passed) when
// the host or build has no batch backend.
TEST(BoundBatch, MatchesScalarBoundLaneForLane) {
  if (!db::bound_batch_available()) {
    GTEST_SKIP() << "AVX2 batch bound not available on this build/CPU";
  }
  Rng rng(77);
  for (const ScoreScheme* scheme : {&kLinear, &kAffine}) {
    const int a = scheme->match;
    const int p = std::max(0, std::min(-scheme->mismatch, -scheme->gap));
    for (const std::size_t q : {std::size_t{2}, std::size_t{5},
                                std::size_t{7}, std::size_t{11}}) {
      for (const std::size_t windows :
           {std::size_t{1}, std::size_t{31}, std::size_t{32}, std::size_t{33},
            std::size_t{64}, std::size_t{65}, std::size_t{146}}) {
        const std::size_t m = windows + q - 1;
        const std::size_t words = (windows + 63) / 64;
        for (const std::size_t count :
             {std::size_t{1}, std::size_t{8}, std::size_t{13}}) {
          // 2*count + 1 bitmap rows; the candidates are every other row,
          // last first, so the kernel must follow the id list.
          const std::size_t rows = 2 * count + 1;
          std::vector<std::uint64_t> bits(rows * words, 0);
          std::vector<std::uint32_t> cand;
          for (std::size_t c = 0; c < count; ++c) {
            cand.push_back(static_cast<std::uint32_t>(2 * (count - c) - 1));
          }
          for (std::size_t r = 0; r < rows; ++r) {
            // Candidate 0 stays unseeded and candidate 1 fully seeded; the
            // rest get densities spanning sparse to near-solid.
            const bool none = r == cand[0];
            const bool all = count > 1 && r == cand[1];
            const std::uint64_t den = 1 + (r * 11) % 90;
            for (std::size_t w = 0; w < windows; ++w) {
              if (!none && (all || rng() % 100 < den)) {
                bits[r * words + w / 64] |= std::uint64_t{1} << (w % 64);
              }
            }
          }
          std::vector<std::int32_t> got((count + 7) & ~std::size_t{7}, 0);
          db::seeded_bound_batch(m, bits.data(), words, cand.data(), count,
                                 a, p, q, got.data());
          for (std::size_t c = 0; c < count; ++c) {
            std::vector<char> col(windows, 0);
            for (std::size_t w = 0; w < windows; ++w) {
              col[w] = static_cast<char>(
                  (bits[cand[c] * words + w / 64] >> (w % 64)) & 1);
            }
            EXPECT_EQ(db::seeded_run_bound(m, col, *scheme, q), got[c])
                << "lane " << c << " q=" << q << " m=" << m
                << " count=" << count << " affine="
                << (scheme->gap_open != 0);
          }
        }
      }
    }
  }
}

// ------------------------------------------------- differential oracle --

// >= 1000 fuzzed queries through the full db_query pipeline against
// brute_force_hits, rotating the direct-align vs cluster path, gap model
// and threshold regime.
TEST(DbScanOracle, FuzzedDirectAndClusterPathsMatchBruteForce) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    testing::DbOracleCase c;
    c.seed = 9000 + seed;
    c.n_sequences = 3;
    c.seq_len = 350;
    c.n_queries = 25;
    c.query_len = 100;
    c.nprocs = (seed % 2 == 0) ? 4 : 3;
    if (seed % 2 == 0) {
      c.scheme.gap_open = -3;
      c.scheme.gap = -1;
    }
    // direct_align_max = 0 forces every survivor through the cluster SPMD
    // path; 8 scores small survivor sets host-side.
    c.db_cfg.direct_align_max = (seed % 3 == 0) ? 0 : 8;
    c.min_score = (seed % 3 == 0) ? 25 : (seed % 3 == 1 ? 45 : 80);
    const testing::DbOracleVerdict v = run_db_differential(c);
    ASSERT_TRUE(v.ok) << c.to_string() << " -> " << v.summary();
    compared += v.queries;
  }
  EXPECT_GE(compared, 1000u);
}

// ---------------------------------------------------- persisted index --

std::string temp_index_path(const std::string& tag) {
  return ::testing::TempDir() + "gdsm_qidx_" + tag;
}

TEST(PersistedIndex, SaveOpenRoundTripServesIdenticalScans) {
  const auto seqs = make_db_sequences(3, 700, 51);
  const std::string path = temp_index_path("roundtrip");
  const db::SubjectDb cold(seqs, {});
  cold.save_index(path);
  const db::SubjectDb warm = db::SubjectDb::open_index(seqs, path, {});
  ASSERT_EQ(warm.fragments().size(), cold.fragments().size());

  for (std::uint64_t s = 0; s < 6; ++s) {
    Rng rng(600 + s);
    const Sequence probe =
        s % 2 == 0 ? mutate(seqs[s % seqs.size()].slice(100, 230), 0.02,
                            0.005, rng)
                   : random_dna(130, rng);
    for (const ScoreScheme& scheme : {kLinear, kAffine}) {
      expect_same_scan(cold.scan(probe, scheme, 90),
                       warm.scan(probe, scheme, 90));
    }
  }
  std::remove(path.c_str());
}

/// The index file a comparator-sorted build writes: every (code, fragment,
/// pos) window sorted once, then laid out as header + offsets + codes
/// (padded to 8 bytes) + entries.  The header is copied from `saved`, whose
/// geometry and counts are checked field by field instead.
std::string reference_index_bytes(const std::vector<Sequence>& seqs,
                                  const db::SubjectDb& db,
                                  const std::string& saved) {
  struct Occ {
    std::uint32_t code, fragment, pos;
  };
  const std::size_t q = db.config().q;
  std::vector<Occ> occs;
  for (const db::Fragment& f : db.fragments()) {
    const Base* bases = seqs[f.seq_index].data() + f.begin;
    for (std::size_t pos = 0; pos + q <= f.end - f.begin; ++pos) {
      std::uint32_t code = 0;
      bool ok = true;
      for (std::size_t i = 0; i < q && ok; ++i) {
        ok = bases[pos + i] < 4;
        code = (code << 2) | bases[pos + i];
      }
      if (ok) occs.push_back({code, f.id, static_cast<std::uint32_t>(pos)});
    }
  }
  std::sort(occs.begin(), occs.end(), [](const Occ& a, const Occ& b) {
    if (a.code != b.code) return a.code < b.code;
    if (a.fragment != b.fragment) return a.fragment < b.fragment;
    return a.pos < b.pos;
  });
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> codes;
  std::vector<std::uint32_t> entries;  // (fragment, pos) pairs
  for (std::size_t k = 0; k < occs.size(); ++k) {
    if (codes.empty() || codes.back() != occs[k].code) {
      codes.push_back(occs[k].code);
      offsets.push_back(k);
    }
    entries.push_back(occs[k].fragment);
    entries.push_back(occs[k].pos);
  }
  offsets.push_back(occs.size());

  EXPECT_GE(saved.size(), 64u);
  std::uint32_t version = 0, hq = 0;
  std::uint64_t n_codes = 0, n_entries = 0;
  std::memcpy(&version, saved.data() + 8, 4);
  std::memcpy(&hq, saved.data() + 12, 4);
  std::memcpy(&n_codes, saved.data() + 40, 8);
  std::memcpy(&n_entries, saved.data() + 48, 8);
  EXPECT_EQ(saved.substr(0, 8), "GDSMQIDX");
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(hq, q);
  EXPECT_EQ(n_codes, codes.size());
  EXPECT_EQ(n_entries, occs.size());

  std::string out = saved.substr(0, 64);
  const auto put = [&out](const void* data, std::size_t n) {
    out.append(static_cast<const char*>(data), n);
  };
  if (!codes.empty()) {
    put(offsets.data(), offsets.size() * 8);
    put(codes.data(), codes.size() * 4);
    if (codes.size() % 2 != 0) out.append(4, '\0');
    put(entries.data(), entries.size() * 4);
  }
  return out;
}

TEST(PersistedIndex, CountingSortBuildIsByteIdenticalToSortedReference) {
  Rng rng(53);
  std::vector<Sequence> seqs = make_db_sequences(3, 1500, 53);
  seqs[2] = with_n_runs(seqs[2], 8, 12, rng);
  seqs.push_back(tandem_repeat(9, 60, 54, "rep9"));
  // q = 12 takes the bucketed path (codes wider than 20 bits).
  for (const std::size_t q : {2, 5, 7, 12}) {
    db::DbConfig cfg;
    cfg.q = q;
    const db::SubjectDb db(seqs, cfg);
    const std::string path = temp_index_path("bytes" + std::to_string(q));
    db.save_index(path);
    std::ifstream in(path, std::ios::binary);
    const std::string saved((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_TRUE(saved == reference_index_bytes(seqs, db, saved))
        << "q=" << q << ": saved index differs from the sorted reference";
    std::remove(path.c_str());
  }
}

TEST(PersistedIndex, RejectsCorruptionAndMismatch) {
  const auto seqs = make_db_sequences(2, 600, 52);
  const std::string path = temp_index_path("corrupt");
  const db::SubjectDb cold(seqs, {});
  cold.save_index(path);

  const auto flip_byte = [&](std::streamoff at, unsigned char mask) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f) << path;
    char b = 0;
    f.seekg(at, std::ios::beg);
    f.read(&b, 1);
    b = static_cast<char>(b ^ mask);
    f.seekp(at, std::ios::beg);
    f.write(&b, 1);
  };

  // Corrupt the stored content checksum (header bytes 56..63): the index
  // no longer matches the sequences it claims to cover.
  flip_byte(56, 0x5a);
  EXPECT_THROW(db::SubjectDb::open_index(seqs, path, {}),
               std::runtime_error);

  // Corrupt the CSR payload: blow the high byte of the second offsets
  // entry so it exceeds its successor — the monotonicity check must trip
  // before any entry is dereferenced.
  cold.save_index(path);
  flip_byte(64 + 8 + 7, 0xff);
  EXPECT_THROW(db::SubjectDb::open_index(seqs, path, {}),
               std::runtime_error);

  // A truncated file must be rejected before any entry is dereferenced.
  cold.save_index(path);
  {
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size() / 2));
  }
  EXPECT_THROW(db::SubjectDb::open_index(seqs, path, {}),
               std::runtime_error);

  // A geometry mismatch (different q) is a different index, not this one.
  cold.save_index(path);
  db::DbConfig other;
  other.q = 7;
  EXPECT_THROW(db::SubjectDb::open_index(seqs, path, other),
               std::runtime_error);

  // And a clean save must open again after all that rejection.
  EXPECT_NO_THROW(db::SubjectDb::open_index(seqs, path, {}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gdsm
