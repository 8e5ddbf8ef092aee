// Cascade admissibility and index-persistence tests (docs/SERVICE.md
// "Cascade").
//
// The seed-and-extend middle stage claims two certificates: a resolved
// fragment's (score, end cell) equals the reference kernel's, and a
// cascade-dropped fragment contains NO alignment reaching min_score.  These
// tests attack both claims with adversarial inputs (random probes,
// high-identity probes, tandem repeats — the band-merge worst case) under
// both gap models, cross-check the full pipeline against brute_force_hits
// with the cascade on and off and with the cluster path forced, and
// round-trip the persisted q-gram index including corruption rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "db/bound_batch.h"
#include "db/db_align.h"
#include "db/qgram_index.h"
#include "db/subject_db.h"
#include "sw/linear_score.h"
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
/// motif — every copy seeds against every other, the chaining/band-merge
/// worst case.
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

/// The core admissibility property for one (db, query, scheme, threshold):
///  - the cascade only re-routes: forwarded + resolved-or-dropped survivors
///    partition filter()'s survivor set;
///  - a resolved hit is the reference kernel's answer, exactly;
///  - a survivor that is neither forwarded nor a resolved hit was certified
///    hopeless, so the full matrix must really score below min_score.
void expect_cascade_admissible(const db::SubjectDb& db, const Sequence& query,
                               const ScoreScheme& scheme, int min_score,
                               db::CascadeCounters* totals = nullptr) {
  const db::SubjectDb::Filtration filt = db.filter(query, scheme, min_score);
  const db::SubjectDb::ScanResult scan = db.scan(query, scheme, min_score);
  ASSERT_EQ(scan.scanned, db.fragments().size());
  EXPECT_EQ(scan.rejected, filt.rejected);

  const std::set<std::uint32_t> survivors(filt.survivors.begin(),
                                          filt.survivors.end());
  const std::set<std::uint32_t> forwarded(scan.forwarded.begin(),
                                          scan.forwarded.end());
  std::map<std::uint32_t, db::SubjectDb::ScanHit> resolved;
  for (const db::SubjectDb::ScanHit& h : scan.resolved) {
    EXPECT_TRUE(resolved.emplace(h.fragment, h).second)
        << "fragment " << h.fragment << " resolved twice";
  }

  for (const std::uint32_t id : scan.forwarded) {
    EXPECT_TRUE(survivors.count(id)) << "forwarded a rejected fragment";
    EXPECT_FALSE(resolved.count(id)) << "fragment both forwarded and resolved";
  }
  for (const auto& [id, hit] : resolved) {
    EXPECT_TRUE(survivors.count(id)) << "resolved a rejected fragment";
  }

  for (const std::uint32_t id : filt.survivors) {
    if (forwarded.count(id)) continue;  // full DP will decide this one
    const BestLocal truth =
        sw_best_score_linear(query, db.fragment_seq(id), scheme);
    const auto it = resolved.find(id);
    if (it != resolved.end()) {
      // Certified hit: score AND canonical end cell must be the kernel's.
      EXPECT_GE(it->second.score, min_score);
      EXPECT_EQ(it->second.score, truth.score) << "fragment " << id;
      EXPECT_EQ(it->second.end_i, truth.end_i) << "fragment " << id;
      EXPECT_EQ(it->second.end_j, truth.end_j) << "fragment " << id;
    } else {
      // Certified drop: the admissibility claim under attack.
      EXPECT_LT(truth.score, min_score)
          << "cascade dropped fragment " << id << " which scores "
          << truth.score << " >= " << min_score;
    }
  }

  if (totals != nullptr) {
    totals->seeds += scan.cascade.seeds;
    totals->chains += scan.cascade.chains;
    totals->extensions += scan.cascade.extensions;
    totals->dp_skipped_by_bound += scan.cascade.dp_skipped_by_bound;
    totals->dp_confirmed += scan.cascade.dp_confirmed;
  }
}

// ------------------------------------------------------- admissibility --

TEST(CascadeAdmissibility, RandomProbesBothGapModels) {
  const auto seqs = make_db_sequences(3, 500, 11);
  const db::SubjectDb db(seqs, {});
  for (const ScoreScheme& scheme : {kLinear, kAffine}) {
    for (std::uint64_t s = 0; s < 12; ++s) {
      Rng rng(100 + s);
      const Sequence probe = random_dna(120, rng, "rand");
      for (const int min_score : {30, 60, 90}) {
        expect_cascade_admissible(db, probe, scheme, min_score);
      }
    }
  }
}

TEST(CascadeAdmissibility, HighIdentityProbesBothGapModels) {
  const auto seqs = make_db_sequences(3, 500, 12);
  const db::SubjectDb db(seqs, {});
  db::CascadeCounters totals;
  for (const ScoreScheme& scheme : {kLinear, kAffine}) {
    for (std::uint64_t s = 0; s < 12; ++s) {
      Rng rng(200 + s);
      const Sequence& src = seqs[s % seqs.size()];
      const std::size_t begin = (s * 37) % (src.size() - 150);
      // Sweep divergence from near-exact to moderate, so the extension
      // score lands above, at, and below the certification gate.
      const double sub = 0.005 * static_cast<double>(s % 6);
      Sequence probe = mutate(src.slice(begin, begin + 150), sub, sub / 4, rng);
      probe.set_name("hom");
      for (const int min_score : {80, 110, 130}) {
        expect_cascade_admissible(db, probe, scheme, min_score, &totals);
      }
    }
  }
  // The gate must actually fire on high-identity traffic — an admissible
  // cascade that never resolves anything is a no-op, not a cascade.
  EXPECT_GT(totals.extensions, 0u);
  EXPECT_GT(totals.dp_skipped_by_bound, 0u);
}

TEST(CascadeAdmissibility, TandemRepeatAdversaryBothGapModels) {
  // Repeats seed everywhere: every motif copy in the probe matches every
  // copy in the subject, so runs pile onto many diagonals and the merged
  // band (or the width guard) must still never certify a wrong answer.
  std::vector<Sequence> seqs;
  seqs.push_back(tandem_repeat(17, 40, 31, "rep17"));
  seqs.push_back(tandem_repeat(8, 80, 32, "rep8"));
  seqs.push_back(make_db_sequences(1, 600, 33)[0]);
  const db::SubjectDb db(seqs, {});
  for (const ScoreScheme& scheme : {kLinear, kAffine}) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      Rng rng(300 + s);
      // Probe: mutated window of a repeat, sometimes with a period slip
      // (delete a partial motif) so the best chain is off-diagonal.
      const Sequence& src = seqs[s % 2];
      const std::size_t begin = (s * 23) % (src.size() - 140);
      Sequence probe =
          mutate(src.slice(begin, begin + 140), 0.02, 0.01, rng);
      probe.set_name("repprobe");
      for (const int min_score : {60, 100, 125}) {
        expect_cascade_admissible(db, probe, scheme, min_score);
      }
    }
  }
}

TEST(CascadeAdmissibility, CascadeOffForwardsEverySurvivor) {
  const auto seqs = make_db_sequences(2, 500, 14);
  db::DbConfig cfg;
  cfg.cascade = false;
  const db::SubjectDb db(seqs, cfg);
  Rng rng(400);
  const Sequence probe =
      mutate(seqs[0].slice(60, 190), 0.01, 0.005, rng);
  const db::SubjectDb::Filtration filt = db.filter(probe, kLinear, 100);
  const db::SubjectDb::ScanResult scan = db.scan(probe, kLinear, 100);
  EXPECT_TRUE(scan.resolved.empty());
  EXPECT_EQ(scan.forwarded, filt.survivors);
  EXPECT_EQ(scan.cascade.extensions, 0u);
  EXPECT_EQ(scan.cascade.dp_skipped_by_bound, 0u);
}

// ------------------------------------------------------- batch bound --

// The AVX2 batched bound (bound_batch.h) must agree lane-for-lane with the
// scalar seeded-run DP on arbitrary seed-flag matrices: all-zero and
// all-one lanes, random densities, both gap models, the fixed-q
// instantiations and the generic fallback, and counts off the lane
// multiple.  Skipped (never silently passed) when the host or build has no
// batch backend.
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
      for (const std::size_t m : {q, std::size_t{33}, std::size_t{150}}) {
        const std::size_t windows = m - q + 1;
        for (const std::size_t count :
             {std::size_t{1}, std::size_t{8}, std::size_t{13}}) {
          const std::size_t stride = (count + 7) & ~std::size_t{7};
          std::vector<std::uint8_t> flags_t(windows * stride, 0);
          for (std::size_t c = 0; c < count; ++c) {
            // Lane 0 stays unseeded and lane 1 fully seeded; the rest get
            // densities spanning sparse to near-solid.
            const std::uint64_t den = 1 + (c * 11) % 90;
            for (std::size_t w = 0; w < windows; ++w) {
              if (c == 1 || (c > 1 && rng() % 100 < den)) {
                flags_t[w * stride + c] = 1;
              }
            }
          }
          std::vector<std::int32_t> got(stride, 0);
          db::seeded_bound_batch(m, flags_t.data(), windows, stride, count,
                                 a, p, q, got.data());
          for (std::size_t c = 0; c < count; ++c) {
            std::vector<char> col(windows, 0);
            for (std::size_t w = 0; w < windows; ++w) {
              col[w] = static_cast<char>(flags_t[w * stride + c]);
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
// brute_force_hits, rotating cascade on/off, the direct-align vs cluster
// resolution path, gap model and threshold regime.  Identity of
// the on and off hit sets follows: both must equal the brute-force oracle.
TEST(DbCascadeOracle, FuzzedOnOffAndClusterPathsMatchBruteForce) {
  std::size_t compared = 0;
  std::size_t cascade_on_queries = 0;
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
    c.db_cfg.cascade = (seed % 4) < 2;
    // direct_align_max = 0 forces every forwarded candidate through the
    // cluster SPMD path, so certified resolutions mix with DSM traffic.
    c.db_cfg.direct_align_max = (seed % 3 == 0) ? 0 : 8;
    c.min_score = (seed % 3 == 0) ? 25 : (seed % 3 == 1 ? 45 : 80);
    const testing::DbOracleVerdict v = run_db_differential(c);
    ASSERT_TRUE(v.ok) << c.to_string() << " -> " << v.summary();
    compared += v.queries;
    if (c.db_cfg.cascade) cascade_on_queries += v.queries;
  }
  EXPECT_GE(compared, 1000u);
  EXPECT_GE(cascade_on_queries, 400u);
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
      const db::SubjectDb::ScanResult a = cold.scan(probe, scheme, 90);
      const db::SubjectDb::ScanResult b = warm.scan(probe, scheme, 90);
      EXPECT_EQ(a.forwarded, b.forwarded);
      ASSERT_EQ(a.resolved.size(), b.resolved.size());
      for (std::size_t k = 0; k < a.resolved.size(); ++k) {
        EXPECT_EQ(a.resolved[k].fragment, b.resolved[k].fragment);
        EXPECT_EQ(a.resolved[k].score, b.resolved[k].score);
        EXPECT_EQ(a.resolved[k].end_i, b.resolved[k].end_i);
        EXPECT_EQ(a.resolved[k].end_j, b.resolved[k].end_j);
      }
      EXPECT_EQ(a.rejected, b.rejected);
    }
  }
  std::remove(path.c_str());
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
