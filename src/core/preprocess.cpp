#include "core/preprocess.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>

#include "core/partition.h"
#include "dsm/cluster.h"
#include "net/message.h"
#include "simd/dispatch.h"

namespace gdsm::core {

const char* band_scheme_name(BandScheme s) noexcept {
  switch (s) {
    case BandScheme::kFixed: return "fixed";
    case BandScheme::kEven: return "equal";
    case BandScheme::kBalanced: return "balanced";
  }
  return "?";
}

const char* chunk_growth_name(ChunkGrowth g) noexcept {
  switch (g) {
    case ChunkGrowth::kFixed: return "fixed";
    case ChunkGrowth::kArithmetic: return "arithmetic";
    case ChunkGrowth::kGeometric: return "geometric";
  }
  return "?";
}

std::uint64_t PreProcessResult::total_hits() const noexcept {
  std::uint64_t total = 0;
  for (const auto& row : result_matrix) {
    for (auto v : row) total += v;
  }
  return total;
}

std::vector<std::size_t> band_offsets(std::size_t m, int nprocs, BandScheme scheme,
                                      std::size_t band_rows) {
  if (m == 0) return {0};
  const auto P = static_cast<std::size_t>(nprocs);
  auto ceil_div = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };

  std::size_t height = 0;
  switch (scheme) {
    case BandScheme::kFixed:
      height = std::min(std::max<std::size_t>(band_rows, 1), m);
      break;
    case BandScheme::kEven:
      // One band per node, all of (nearly) the same height.
      height = ceil_div(m, P);
      break;
    case BandScheme::kBalanced: {
      // Section 5's equations: make every node process the same number of
      // bands, with heights as close to the requested band size as possible.
      const std::size_t bsize = std::min(std::max<std::size_t>(band_rows, 1), m);
      const std::size_t bands_proc = ceil_div(ceil_div(m, bsize), P);
      const std::size_t down = ceil_div(m, bands_proc * P);
      const std::size_t up =
          bands_proc > 1 ? ceil_div(m, (bands_proc - 1) * P) : down;
      auto dist = [bsize](std::size_t h) {
        return h > bsize ? h - bsize : bsize - h;
      };
      height = dist(down) <= dist(up) ? down : up;
      break;
    }
  }
  std::vector<std::size_t> offs;
  for (std::size_t pos = 0; pos < m; pos += height) offs.push_back(pos);
  offs.push_back(m);
  return offs;
}

std::vector<std::size_t> chunk_offsets(std::size_t n, std::size_t first_chunk,
                                       ChunkGrowth growth) {
  std::vector<std::size_t> offs{0};
  std::size_t chunk = std::max<std::size_t>(first_chunk, 1);
  std::size_t step = chunk;
  std::size_t pos = 0;
  while (pos < n) {
    pos = std::min(n, pos + chunk);
    offs.push_back(pos);
    switch (growth) {
      case ChunkGrowth::kFixed:
        break;
      case ChunkGrowth::kArithmetic:
        chunk += step;
        break;
      case ChunkGrowth::kGeometric:
        chunk *= 2;
        break;
    }
  }
  return offs;
}

namespace {

/// One buffered save of a forked node: u8 store (0 = columns, 1 = passage
/// rows), u32 col, u32 row_begin, u32 count, then count i32 values.
void append_saved(std::vector<std::byte>& out, bool row_store,
                  std::uint32_t col, std::uint32_t row_begin,
                  std::span<const std::int32_t> values) {
  net::append_pod(out, static_cast<std::uint8_t>(row_store ? 1 : 0));
  net::append_pod(out, col);
  net::append_pod(out, row_begin);
  net::append_pod(out, static_cast<std::uint32_t>(values.size()));
  const auto* raw = reinterpret_cast<const std::byte*>(values.data());
  out.insert(out.end(), raw, raw + values.size() * sizeof(std::int32_t));
}

/// Saves every record of one node's append_saved payload into its store.
void replay_saved(const std::vector<std::byte>& payload, ColumnStore* store,
                  ColumnStore* row_store) {
  constexpr std::size_t kHeader = 1 + 3 * sizeof(std::uint32_t);
  std::vector<std::int32_t> values;
  std::size_t off = 0;
  while (off < payload.size()) {
    if (payload.size() - off < kHeader) {
      throw std::runtime_error("preprocess_align: truncated saved column");
    }
    const auto which = net::read_pod<std::uint8_t>(payload, off);
    const auto col = net::read_pod<std::uint32_t>(payload, off + 1);
    const auto row_begin = net::read_pod<std::uint32_t>(payload, off + 5);
    const auto count = net::read_pod<std::uint32_t>(payload, off + 9);
    off += kHeader;
    ColumnStore* dst = which == 1 ? row_store : store;
    if (which > 1 || dst == nullptr ||
        count > (payload.size() - off) / sizeof(std::int32_t)) {
      throw std::runtime_error("preprocess_align: malformed saved column");
    }
    values.resize(count);
    std::memcpy(values.data(), payload.data() + off,
                count * sizeof(std::int32_t));
    off += count * sizeof(std::int32_t);
    dst->save(col, row_begin, values);
  }
}

}  // namespace

PreProcessResult preprocess_align(const Sequence& s, const Sequence& t,
                                  const PreProcessConfig& cfg) {
  const int P = cfg.nprocs;
  const std::size_t m = s.size();
  const std::size_t n = t.size();

  PreProcessResult result;
  result.result_interleave = std::max<std::size_t>(cfg.result_interleave, 1);
  result.row_offsets = band_offsets(m, P, cfg.band_scheme, cfg.band_rows);
  if (m == 0 || n == 0) return result;
  if (cfg.io_mode != IoMode::kNone && cfg.store == nullptr) {
    throw std::invalid_argument("preprocess_align: io_mode set but no store");
  }

  const bool affine = cfg.scheme.affine();
  const bool column_checkpoints =
      cfg.save_interleave != 0 && cfg.io_mode != IoMode::kNone;

  const std::vector<std::size_t>& rows = result.row_offsets;
  const std::size_t B = rows.size() - 1;
  const std::vector<std::size_t> chunks =
      chunk_offsets(n, cfg.chunk_cols, cfg.chunk_growth);
  const std::size_t n_chunks = chunks.size() - 1;
  const std::size_t ipr = result.result_interleave;
  const std::size_t groups = (n + ipr - 1) / ipr;

  dsm::DsmConfig dsm_cfg = cfg.dsm;
  dsm_cfg.n_cvs = std::max<int>(dsm_cfg.n_cvs, static_cast<int>(B) + 1);
  dsm::Cluster cluster(P, dsm_cfg);

  auto owner = [&](std::size_t b) { return static_cast<int>(b % static_cast<std::size_t>(P)); };

  // Passage bands: the bottom row of every band, homed at the producer.
  // Under the affine model each band also publishes the Gotoh E state of its
  // bottom row (the vertical gap runs crossing into the next band), stored
  // in the second half of the same shared array.
  const std::size_t passage_width = affine ? 2 * n : n;
  std::vector<dsm::SharedArray<std::int32_t>> passage;
  passage.reserve(B);
  for (std::size_t b = 0; b < B; ++b) {
    passage.emplace_back(
        cluster.alloc(passage_width * sizeof(std::int32_t), owner(b)),
        passage_width);
  }
  // Result matrix rows, homed at the band owner ("allocated in such a way as
  // to allow each node to handle writes locally").
  std::vector<dsm::SharedArray<std::uint64_t>> result_rows;
  result_rows.reserve(B);
  for (std::size_t b = 0; b < B; ++b) {
    result_rows.emplace_back(
        cluster.alloc(groups * sizeof(std::uint64_t), owner(b)), groups);
  }

  std::vector<std::vector<std::uint64_t>> collected;

  // On the process backend nodes 1..P-1 run in forked children, where a
  // save into the host stores would be lost: they buffer their saves and
  // hand them back with their end-of-job message, and the host replays
  // them below.  Node 0, and every node on the thread backend, saves as
  // soon as the column is ready.
  const bool forked = dsm_cfg.backend == dsm::Backend::kProcess;

  const dsm::Cluster::Ticket ticket = cluster.submit([&](dsm::Node& node) {
    const int p = node.id();
    node.barrier();

    std::vector<std::byte> buffered;  // append_saved records (forked nodes)
    auto save = [&](ColumnStore* store, std::uint32_t col,
                    std::uint32_t row_begin,
                    std::span<const std::int32_t> values) {
      if (!forked || p == 0) {
        store->save(col, row_begin, values);
        return;
      }
      append_saved(buffered, store == cfg.row_store, col, row_begin, values);
    };

    std::vector<std::int32_t> prev_col;
    std::vector<std::int32_t> cur_col;
    std::vector<std::int32_t> prev_col_f;   // affine F state of prev_col
    std::vector<std::int32_t> cur_col_f;
    std::vector<std::int32_t> top_in;       // incoming passage chunk
    std::vector<std::int32_t> top_in_e;     // affine E state of top_in
    std::vector<std::int32_t> bottom_out;   // outgoing passage chunk
    std::vector<std::int32_t> bottom_out_e;
    std::vector<std::uint64_t> hits(groups);
    std::vector<std::uint64_t> col_hits;    // per-column counts from the kernel

    // Column checkpoints snapshot interior columns the block kernel never
    // materializes, so those runs keep the scalar column sweep; everything
    // else goes through the dispatched block kernel, one band×chunk block
    // per call.
    const simd::ScoreParams kernel_params{cfg.scheme.match, cfg.scheme.mismatch,
                                          cfg.scheme.gap, cfg.scheme.gap_open};

    for (std::size_t b = static_cast<std::size_t>(p); b < B;
         b += static_cast<std::size_t>(P)) {
      const std::size_t row_lo = rows[b];
      const std::size_t H = rows[b + 1] - rows[b];
      const bool last_band = (b + 1 == B);
      std::fill(hits.begin(), hits.end(), 0);
      prev_col.assign(H, 0);
      cur_col.assign(H, 0);
      if (affine) {
        prev_col_f.assign(H, simd::kNegInf);  // no run crosses the matrix edge
        cur_col_f.assign(H, simd::kNegInf);
      }
      std::int32_t prev_top = 0;  // passage(b-1)[j-1], 0 for column 1

      for (std::size_t c = 0; c < n_chunks; ++c) {
        const std::size_t col_lo = chunks[c];
        const std::size_t W = chunks[c + 1] - chunks[c];

        top_in.assign(W, 0);
        if (affine) top_in_e.assign(W, simd::kNegInf);
        if (b > 0) {
          node.waitcv(static_cast<int>(b - 1));
          passage[b - 1].get_range(node, col_lo, W, top_in.data());
          if (affine) {
            passage[b - 1].get_range(node, n + col_lo, W, top_in_e.data());
          }
        }
        bottom_out.resize(W);
        if (affine) bottom_out_e.resize(W);

        if (!column_checkpoints) {
          simd::DiagBlock blk;
          blk.a_seq = t.data() + col_lo;     // chunk columns on the lanes
          blk.a_len = W;
          blk.b_seq = s.data() + row_lo;     // band rows on the sweep
          blk.b_len = H;
          blk.bound_a = top_in.data();       // passage row above the band
          blk.bound_b = prev_col.data();     // last column of the prior chunk
          blk.corner = prev_top;
          blk.out_last_b = bottom_out.data();
          // out_last_a must not alias bound_b (the reference backend streams
          // columns in place), so land it in cur_col and swap afterwards.
          blk.out_last_a = cur_col.data();
          if (affine) {
            blk.bound_e = top_in_e.data();      // vertical runs from above
            blk.bound_f = prev_col_f.data();    // horizontal runs from the left
            blk.out_last_b_e = bottom_out_e.data();
            blk.out_last_a_f = cur_col_f.data();
          }
          col_hits.assign(W, 0);
          simd::block_count(blk, kernel_params, cfg.threshold, col_hits.data());
          for (std::size_t w = 0; w < W; ++w) {
            hits[(col_lo + w) / ipr] += col_hits[w];
          }
          prev_top = top_in[W - 1];
          std::swap(prev_col, cur_col);
          if (affine) std::swap(prev_col_f, cur_col_f);
        } else {
          // Scalar column sweep; under affine it runs the full Gotoh
          // recurrence so checkpoints can save the gap states the block
          // kernel never materializes per interior column.  Checkpoint
          // fragments double in length for affine: [H rows | F rows] for
          // columns (F crosses column boundaries rightward).
          const std::int32_t oe = cfg.scheme.gap_open + cfg.scheme.gap;
          const std::int32_t ext = cfg.scheme.gap;
          std::int32_t e_run = simd::kNegInf;  // E of the current column
          for (std::size_t w = 0; w < W; ++w) {
            const std::size_t j = col_lo + w + 1;  // 1-based matrix column
            const Base tj = t[j - 1];
            const std::int32_t top = top_in[w];
            const std::int32_t top_e = affine ? top_in_e[w] : simd::kNegInf;
            for (std::size_t r = 1; r <= H; ++r) {
              const std::size_t row = row_lo + r;  // 1-based matrix row
              const std::int32_t up = r == 1 ? top : cur_col[r - 2];
              const std::int32_t dg = r == 1 ? prev_top : prev_col[r - 2];
              const std::int32_t lf = prev_col[r - 1];
              std::int32_t v;
              if (affine) {
                const std::int32_t e_up = r == 1 ? top_e : e_run;
                e_run = std::max(up + oe, e_up + ext);        // E(row, j)
                const std::int32_t f = std::max(
                    lf + oe, prev_col_f[r - 1] + ext);        // F(row, j)
                cur_col_f[r - 1] = f;
                v = std::max(
                    {0, dg + cfg.scheme.substitution(s[row - 1], tj), e_run,
                     f});
              } else {
                v = std::max(
                    {0, dg + cfg.scheme.substitution(s[row - 1], tj),
                     up + cfg.scheme.gap, lf + cfg.scheme.gap});
              }
              cur_col[r - 1] = v;
              if (v >= cfg.threshold) ++hits[(j - 1) / ipr];
            }
            if (j % cfg.save_interleave == 0) {
              if (affine) {
                std::vector<std::int32_t> frag(cur_col);
                frag.insert(frag.end(), cur_col_f.begin(), cur_col_f.end());
                save(cfg.store, static_cast<std::uint32_t>(j),
                     static_cast<std::uint32_t>(row_lo + 1), frag);
              } else {
                save(cfg.store, static_cast<std::uint32_t>(j),
                     static_cast<std::uint32_t>(row_lo + 1), cur_col);
              }
            }
            bottom_out[w] = cur_col[H - 1];
            if (affine) bottom_out_e[w] = e_run;  // E of the band's last row
            prev_top = top;
            std::swap(prev_col, cur_col);
            if (affine) std::swap(prev_col_f, cur_col_f);
          }
        }
        node.add_dp_cells(static_cast<std::uint64_t>(W) * H);

        if (cfg.row_store != nullptr) {
          // Passage-band checkpoint: this band's bottom row (global row
          // rows[b+1], 1-based), fragment starting at column col_lo+1.
          // Affine fragments are [H cols | E cols] — E crosses row
          // boundaries downward, which is what a reprocess resume needs.
          if (affine) {
            std::vector<std::int32_t> frag(bottom_out);
            frag.insert(frag.end(), bottom_out_e.begin(), bottom_out_e.end());
            save(cfg.row_store, static_cast<std::uint32_t>(rows[b + 1]),
                 static_cast<std::uint32_t>(col_lo + 1), frag);
          } else {
            save(cfg.row_store, static_cast<std::uint32_t>(rows[b + 1]),
                 static_cast<std::uint32_t>(col_lo + 1), bottom_out);
          }
        }
        if (!last_band) {
          passage[b].put_range(node, col_lo, W, bottom_out.data());
          if (affine) {
            passage[b].put_range(node, n + col_lo, W, bottom_out_e.data());
          }
          node.setcv(static_cast<int>(b));
        }
      }
      result_rows[b].put_range(node, 0, groups, hits.data());
    }

    if (cfg.io_mode == IoMode::kDeferred && cfg.store != nullptr) {
      cfg.store->flush();
    }
    node.barrier();

    if (p == 0) {
      collected.resize(B);
      for (std::size_t b = 0; b < B; ++b) {
        collected[b].resize(groups);
        result_rows[b].get_range(node, 0, groups, collected[b].data());
      }
    }
    node.set_result(std::move(buffered));
  });

  dsm::Cluster::JobResult job = cluster.await(ticket);
  for (const std::vector<std::byte>& payload : job.results) {
    replay_saved(payload, cfg.store, cfg.row_store);
  }
  if (cfg.io_mode != IoMode::kNone && cfg.store != nullptr) {
    cfg.store->flush();
  }
  result.result_matrix = std::move(collected);
  result.dsm_stats = std::move(job.stats);
  return result;
}

}  // namespace gdsm::core
