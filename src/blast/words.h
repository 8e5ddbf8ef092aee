// Exact-word (q-gram / k-mer) machinery shared by the seed-and-extend
// engine (blastn.cpp) and the database filtration front-end (src/db).
//
// A *word* is a window of k consecutive bases packed into a 2-bit code.
// Windows containing 'N' have no code: an N never matches anything
// (sw/scoring.h), so an N window can never be part of an exact occurrence
// and excluding it from indexes and seed scans is lossless.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/sequence.h"

namespace gdsm::blast {

/// 2-bit packs seq[pos, pos+k) into *out.  Returns false (no code) when the
/// window contains an N or other non-ACGT base.
bool pack_word(const Sequence& seq, std::size_t pos, int k,
               std::uint32_t* out);

/// Word index of one sequence: code -> every position the word starts at,
/// ascending.  The classic BLAST subject index, reused by src/db as the
/// per-fragment q-gram index (there only membership is consulted).
class WordIndex {
 public:
  WordIndex() = default;
  WordIndex(const Sequence& seq, int k);

  int word_size() const noexcept { return k_; }

  /// Positions of `code` in the indexed sequence (empty when absent).
  const std::vector<std::uint32_t>& positions(std::uint32_t code) const;

  bool contains(std::uint32_t code) const {
    return index_.find(code) != index_.end();
  }

  /// Distinct word codes of the indexed sequence, unordered.
  std::vector<std::uint32_t> codes() const;

 private:
  int k_ = 0;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> index_;
};

}  // namespace gdsm::blast
