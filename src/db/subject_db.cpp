#include "db/subject_db.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "blast/words.h"
#include "db/bound_batch.h"

namespace gdsm::db {
namespace {

DbConfig normalize(DbConfig cfg) {
  if (cfg.fragment_len < 16) cfg.fragment_len = 16;
  cfg.q = std::clamp<std::size_t>(cfg.q, 2, 15);
  if (cfg.overlap >= cfg.fragment_len) cfg.overlap = cfg.fragment_len / 2;
  return cfg;
}

constexpr int kNeg = -(1 << 28);

/// Allocation-free core of seeded_run_bound (q is pre-clamped to <= 15, so
/// the state vector fits a fixed array): the scalar scan runs this once per
/// seeded candidate per query.  `seed` is one fragment's row of the scan's
/// seed bitmap: bit w % 64 of word w / 64 is set when query window w is
/// seeded, for w < windows (nullptr: nothing is seeded).
///
/// `reject_below` enables the scan's one decision-preserving early exit:
/// the DP returns as soon as even the best finish, vmax + a*(m-j) (every
/// remaining column adds at most `a` to any state), stays below it — an
/// upper bound on the exact value that the scan rejects anyway.  Any value
/// that reaches reject_below is exact, so a survivor's bound is the batch
/// kernel's, bit for bit.  INT_MIN (the default) disables the exit.
///
/// The DP loop is templated on the q-gram length: QF != 0 bakes q into the
/// type so the state vector lives in registers and the per-column r-loops
/// fully unroll (the hot q = 5 path runs ~2-3x faster than the runtime-q
/// loop); QF == 0 is the generic fallback reading q_rt.
template <std::size_t QF>
int seeded_bound_core(std::size_t m, const std::uint64_t* seed,
                      std::size_t windows, int a, int p, std::size_t q_rt,
                      int reject_below) {
  const std::size_t q = QF != 0 ? QF : q_rt;

  // v[r]: best score of a partial assignment whose current match run has
  // length r (capped at q-1; the cap state also stands for runs >= q,
  // which may only extend across seeded windows).
  std::array<int, QF != 0 ? QF : 16> v;
  v.fill(kNeg);
  v[0] = 0;
  int best = 0;
  for (std::size_t j = 0; j < m; ++j) {
    // vmax is the running optimum over all states, i.e. the best score over
    // every j-column prefix — tracking it here replaces a per-column
    // reduction over the updated states (the final column is folded in
    // after the loop).
    int vmax = v[0];
    for (std::size_t r = 1; r < q; ++r) vmax = std::max(vmax, v[r]);
    best = std::max(best, vmax);
    const int ceiling = std::max(best, vmax + a * static_cast<int>(m - j));
    if (ceiling < reject_below) return ceiling;
    // Match extending a run to length >= q completes the q-window starting
    // at j-q+1, which must then be a seed (an exact occurrence).
    const std::size_t w = j + 1 - q;
    const bool seeded = seed != nullptr && j + 1 >= q && w < windows &&
                        ((seed[w >> 6] >> (w & 63)) & 1) != 0;
    const int cap_ext = seeded ? v[q - 1] + a : kNeg;
    // Match extending a short run (no complete q-window yet): an in-place
    // downward shift of the state vector.
    for (std::size_t r = q - 1; r >= 1; --r) v[r] = v[r - 1] + a;
    v[q - 1] = std::max(v[q - 1], cap_ext);
    // Interposed subject-only gap: pay p without consuming a query
    // position, resetting the run, then match j.
    v[1] = std::max(v[1], vmax - p + a);
    // Error column at j, or a fresh local start.
    v[0] = std::max(0, vmax - p);
  }
  for (std::size_t r = 0; r < q; ++r) best = std::max(best, v[r]);
  return best;
}

int seeded_bound_impl(std::size_t m, const std::uint64_t* seed,
                      std::size_t windows, const ScoreScheme& scheme,
                      std::size_t q,
                      int reject_below = std::numeric_limits<int>::min()) {
  const int a = scheme.match;
  if (a <= 0 || m == 0) return 0;  // no positive column -> local score 0
  // Every error column (mismatch, or any gap column: a gap run costs at
  // least `gap` per column even under affine, gap_open being a surcharge)
  // costs at least p.  Degenerate non-negative penalties disable the
  // filter rather than break it: p = 0 makes the bound a * m.
  const int p = std::max(0, std::min(-scheme.mismatch, -scheme.gap));
  switch (q) {  // fixed-q instantiations for the common index widths
    case 4:
      return seeded_bound_core<4>(m, seed, windows, a, p, q, reject_below);
    case 5:
      return seeded_bound_core<5>(m, seed, windows, a, p, q, reject_below);
    case 6:
      return seeded_bound_core<6>(m, seed, windows, a, p, q, reject_below);
    case 7:
      return seeded_bound_core<7>(m, seed, windows, a, p, q, reject_below);
    default:
      return seeded_bound_core<0>(m, seed, windows, a, p, q, reject_below);
  }
}

}  // namespace

void SubjectDb::build_fragments() {
  const std::size_t step = cfg_.fragment_len - cfg_.overlap;
  for (std::size_t s = 0; s < seqs_.size(); ++s) {
    const std::size_t n = seqs_[s].size();
    total_bases_ += n;
    for (std::size_t begin = 0; begin < n; begin += step) {
      Fragment f;
      f.id = static_cast<std::uint32_t>(fragments_.size());
      f.seq_index = static_cast<std::uint32_t>(s);
      f.begin = static_cast<std::uint32_t>(begin);
      f.end = static_cast<std::uint32_t>(
          std::min(n, begin + cfg_.fragment_len));
      fragments_.push_back(f);
      if (f.end == n) break;
    }
  }
}

QGramIndex::Geometry SubjectDb::geometry() const {
  QGramIndex::Geometry g;
  g.q = static_cast<std::uint32_t>(cfg_.q);
  g.fragment_len = cfg_.fragment_len;
  g.overlap = cfg_.overlap;
  g.n_fragments = fragments_.size();
  g.checksum = db_content_checksum(seqs_);
  return g;
}

SubjectDb::SubjectDb(std::vector<Sequence> seqs, DbConfig cfg)
    : cfg_(normalize(cfg)), seqs_(std::move(seqs)) {
  build_fragments();
  std::vector<QGramIndex::FragmentView> views;
  views.reserve(fragments_.size());
  for (const Fragment& f : fragments_) {
    views.push_back(QGramIndex::FragmentView{
        seqs_[f.seq_index].data() + f.begin,
        static_cast<std::size_t>(f.end - f.begin)});
  }
  index_ = QGramIndex::build(views, geometry());
}

SubjectDb SubjectDb::open_index(std::vector<Sequence> seqs,
                                const std::string& path, DbConfig cfg) {
  SubjectDb db;
  db.cfg_ = normalize(cfg);
  db.seqs_ = std::move(seqs);
  db.build_fragments();
  db.index_ = QGramIndex::open(path, db.geometry());
  return db;
}

void SubjectDb::save_index(const std::string& path) const {
  index_.save(path);
}

Sequence SubjectDb::fragment_seq(std::uint32_t id) const {
  if (id >= fragments_.size()) {
    throw std::out_of_range("SubjectDb::fragment_seq: bad fragment id");
  }
  const Fragment& f = fragments_[id];
  Sequence frag = seqs_[f.seq_index].slice(f.begin, f.end);
  frag.set_name(seqs_[f.seq_index].name() + "#" + std::to_string(id));
  return frag;
}

int seeded_run_bound(std::size_t m, const std::vector<char>& seed,
                     const ScoreScheme& scheme, std::size_t q) {
  q = std::clamp<std::size_t>(q, 2, 15);
  std::vector<std::uint64_t> bits((seed.size() + 63) / 64, 0);
  for (std::size_t w = 0; w < seed.size(); ++w) {
    if (seed[w] != 0) bits[w >> 6] |= std::uint64_t{1} << (w & 63);
  }
  return seeded_bound_impl(m, bits.empty() ? nullptr : bits.data(),
                           seed.size(), scheme, q);
}

int qgram_score_bound(const Sequence& a, const Sequence& b,
                      const ScoreScheme& scheme, std::size_t q) {
  q = std::clamp<std::size_t>(q, 2, 15);
  const std::size_t m = a.size();
  std::vector<char> seed;
  if (m >= q && !b.empty()) {
    const blast::WordIndex index(b, static_cast<int>(q));
    seed.assign(m - q + 1, 0);
    for (std::size_t i = 0; i + q <= m; ++i) {
      std::uint32_t code;
      if (blast::pack_word(a, i, static_cast<int>(q), &code) &&
          index.contains(code)) {
        seed[i] = 1;
      }
    }
  }
  return seeded_run_bound(m, seed, scheme, q);
}

SubjectDb::Filtration SubjectDb::filter(const Sequence& query,
                                        const ScoreScheme& scheme,
                                        int min_score) const {
  Filtration out;
  out.scanned = fragments_.size();
  const std::size_t m = query.size();
  const std::size_t q = cfg_.q;
  const std::size_t windows = m >= q ? m - q + 1 : 0;

  // Seed bitmap: one row of `words` 64-bit words per fragment, bit w set
  // when the query q-gram at window w occurs in the fragment.  Every
  // posting of every query window is touched once, as a single OR; the
  // ~100 KB map (a 150 bp probe over ~4k fragments) stays in L2.  Nothing
  // else is written per posting.
  const std::size_t words = (windows + 63) / 64;
  static thread_local std::vector<std::uint64_t> seed_bits;
  seed_bits.assign(fragments_.size() * words, 0);
  for (std::size_t i = 0; i < windows; ++i) {
    std::uint32_t code;
    if (!blast::pack_word(query, i, static_cast<int>(q), &code)) continue;
    const std::span<const QGramIndex::Entry> list = index_.lookup(code);
    std::uint64_t* column = seed_bits.data() + (i >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    for (const QGramIndex::Entry& e : list) column[e.fragment * words] |= bit;
  }

  const int a = scheme.match;
  const int p = std::max(0, std::min(-scheme.mismatch, -scheme.gap));
  // Fragments sharing no query q-gram all get the same (cheapest possible)
  // bound; it is computed once.
  const int no_seed_bound = seeded_bound_impl(m, nullptr, 0, scheme, q);
  const bool no_seed_pass = no_seed_bound >= min_score;

  // Pass 1: classify every fragment off its bitmap row.  The prefilter's
  // distinct seeded-window count is the row's popcount.
  enum : std::uint8_t { kReject, kForward, kNeedDp };
  static thread_local std::vector<std::uint8_t> verdict;
  static thread_local std::vector<std::uint32_t> cand;
  verdict.assign(fragments_.size(), kReject);
  cand.clear();
  for (std::uint32_t f = 0; f < fragments_.size(); ++f) {
    const std::uint64_t* row = seed_bits.data() + f * words;
    std::size_t distinct = 0;
    for (std::size_t k = 0; k < words; ++k) distinct += std::popcount(row[k]);
    if (distinct == 0) {  // no seeds: shared bound, no DP
      if (no_seed_pass) verdict[f] = kForward;
      continue;
    }
    // O(1) prefilter, admissible against the exact bound U itself: U <= a*m
    // (each DP column adds at most `a`) and U <= B0 + |S|*(a+p) (un-seeding
    // a window converts at most one of U's run-extending matches into an
    // error, a swing of a+p).  Prefilter rejection therefore implies exact
    // rejection: the survivor set stays byte-identical to the exact DP's.
    // A degenerate scheme (a <= 0) bounds every fragment at 0.
    const long long prefilter = std::min<long long>(
        static_cast<long long>(a) * static_cast<long long>(m),
        static_cast<long long>(no_seed_bound) +
            static_cast<long long>(distinct) * (a + p));
    if (a > 0 && prefilter < min_score) continue;
    verdict[f] = kNeedDp;
    cand.push_back(f);
  }

  // Pass 2: bounds for the DP candidates, both evaluators reading the
  // bitmap rows (bound_batch.h).  The batch kernel runs 8 candidates per
  // AVX2 vector; the scalar loop runs one at a time and stops early only
  // once a candidate is sure to be rejected.  Every survivor's bound is
  // exact on both paths, so the ScanResult is identical either way — the
  // differential tests force GDSM_DB_BOUND=scalar to check.
  static thread_local std::vector<std::int32_t> bounds;
  bounds.assign((cand.size() + 7) & ~std::size_t{7}, 0);
  if (a > 0 && !cand.empty()) {
    if (bound_batch_available()) {
      seeded_bound_batch(m, seed_bits.data(), words, cand.data(), cand.size(),
                         a, p, q, bounds.data());
    } else {
      for (std::size_t c = 0; c < cand.size(); ++c) {
        bounds[c] = seeded_bound_impl(m, seed_bits.data() + cand[c] * words,
                                      windows, scheme, q, min_score);
      }
    }
  }

  // Pass 3, in fragment order so survivor ids come out ascending.
  std::size_t ci = 0;
  for (std::uint32_t f = 0; f < fragments_.size(); ++f) {
    const bool keep = verdict[f] == kForward ||
                      (verdict[f] == kNeedDp && bounds[ci++] >= min_score);
    if (keep) {
      out.survivors.push_back(f);
    } else {
      ++out.rejected;
    }
  }
  return out;
}

SubjectDb::ScanResult SubjectDb::scan(const Sequence& query,
                                      const ScoreScheme& scheme,
                                      int min_score) const {
  Filtration filt = filter(query, scheme, min_score);
  ScanResult out;
  out.forwarded = std::move(filt.survivors);
  out.scanned = filt.scanned;
  out.rejected = filt.rejected;
  return out;
}

int SubjectDb::score_bound(const Sequence& query, std::uint32_t fragment,
                           const ScoreScheme& scheme) const {
  return qgram_score_bound(query, fragment_seq(fragment), scheme, cfg_.q);
}

}  // namespace gdsm::db
