// The band/block compute loop shared by the DSM and the message-passing
// variants of the blocked heuristic strategy.  The only difference between
// the two is HOW a block's top boundary arrives and HOW its bottom boundary
// is published, so those are injected as callables.
#pragma once

#include <span>
#include <vector>

#include "core/partition.h"
#include "sw/heuristic_scan.h"
#include "util/sequence.h"

namespace gdsm::core {

/// Computes all blocks of band `b` left to right.
///
/// * `recv_top(k, out)` fills `out` (block_width(k) cells) with the bottom
///   row of band b-1 over block k's columns; never called for band 0.
/// * `publish_bottom(k, bottom)` hands the finished block's bottom row to
///   the next band's owner; never called for the last band (whose bottom is
///   the matrix's final row: still-open candidates are flushed instead).
template <typename RecvTop, typename PublishBottom>
void compute_band(const HeuristicKernel& kernel, const Sequence& s,
                  const Sequence& t, const BlockGrid& grid, std::size_t b,
                  CandidateSink& sink, RecvTop&& recv_top,
                  PublishBottom&& publish_bottom) {
  const std::size_t row_lo = grid.row_offsets[b];  // 0-based
  const std::size_t H = grid.band_height(b);
  const std::size_t K = grid.blocks();
  const bool last_band = (b + 1 == grid.bands());
  const std::span<const Base> s_rows = s.bases().subspan(row_lo, H);

  // Right edge of the previous block and the cell above its first row;
  // column 0 is all zeros.
  std::vector<CellInfo> edge(H);
  CellInfo corner{};
  std::vector<CellInfo> row;  // the block's top row in, bottom row out

  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t col_lo = grid.col_offsets[k];  // 0-based
    const std::size_t W = grid.block_width(k);

    row.assign(W, CellInfo{});
    if (b > 0) recv_top(k, std::span<CellInfo>(row));
    const CellInfo next_corner = row.back();

    kernel.process_block(s_rows, static_cast<std::uint32_t>(row_lo + 1),
                         t.bases().subspan(col_lo, W),
                         static_cast<std::uint32_t>(col_lo + 1), corner, row,
                         edge, sink);
    corner = next_corner;

    if (!last_band) {
      publish_bottom(k, std::span<const CellInfo>(row));
    } else {
      // Bottom row of the whole matrix: flush still-open candidates.
      for (const CellInfo& cell : row) sink.flush_open(cell);
    }
  }
}

}  // namespace gdsm::core
