// Positional q-gram index over database fragments, with a persisted
// mmap-able on-disk form.
//
// The index is a CSR over 2-bit-packed q-gram codes: for each code the
// exact list of (fragment, position) occurrences, sorted by (code,
// fragment, position).  It serves two consumers on the db_query hot path
// (subject_db.h): the admissible filtration bound needs "which query
// windows are seeded in fragment f", and the cascade's seed-and-extend
// stage needs the *positions* so seeds can be chained on diagonals and
// X-drop extended (docs/SERVICE.md "Cascade").
//
// Persistence: save() writes a single versioned flat file — a 64-byte
// header carrying the geometry (q, fragment_len, overlap, n_fragments) and
// an FNV-1a checksum of the source sequences, then the offsets / codes /
// entries arrays.  open() maps the file read-only with mmap and validates
// the header against the live database, so a warm load_db skips the build
// entirely and pages the postings in on demand; a stale or corrupted file
// (checksum, version, geometry mismatch, truncation) is rejected with
// std::runtime_error and the caller falls back to a cold build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/sequence.h"

namespace gdsm::db {

/// FNV-1a over every sequence's name bytes and encoded bases, in order.
/// Ties a persisted index file to the exact FASTA content it was built
/// from.
std::uint64_t db_content_checksum(const std::vector<Sequence>& seqs);

class QGramIndex {
 public:
  /// One q-gram occurrence: the code's window starts at `pos` within
  /// fragment `fragment`.
  struct Entry {
    std::uint32_t fragment = 0;
    std::uint32_t pos = 0;
  };

  /// Geometry the index was built over; open() validates it against the
  /// live database so a file built with different fragmentation can never
  /// be silently reused.
  struct Geometry {
    std::uint32_t q = 0;
    std::uint64_t fragment_len = 0;
    std::uint64_t overlap = 0;
    std::uint64_t n_fragments = 0;
    std::uint64_t checksum = 0;  ///< db_content_checksum of the sequences
  };

  QGramIndex() = default;

  /// A raw fragment window for build(): `len` bases starting at `bases`.
  struct FragmentView {
    const Base* bases = nullptr;
    std::size_t len = 0;
  };

  /// Cold build: packs every q-window of every fragment (N windows have no
  /// code and are skipped, blast/words.h) and assembles the CSR with a
  /// linear-time counting sort by code, scattering each window straight
  /// into its slot: entries come out sorted by (code, fragment, pos).
  static QGramIndex build(const std::vector<FragmentView>& fragments,
                          const Geometry& geom);

  /// Maps `path` read-only and validates magic, version, and `expect`
  /// geometry + checksum.  Throws std::runtime_error on any mismatch or a
  /// malformed / truncated file.
  static QGramIndex open(const std::string& path, const Geometry& expect);

  /// Writes the versioned flat file (see file comment).  Throws
  /// std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  const Geometry& geometry() const noexcept { return geom_; }
  bool mapped() const noexcept { return mapping_ != nullptr; }
  std::size_t n_codes() const noexcept { return n_codes_; }
  std::size_t n_entries() const noexcept { return n_entries_; }

  /// Occurrences of `code`, sorted by (fragment, pos); empty when absent.
  std::span<const Entry> lookup(std::uint32_t code) const;

 private:
  Geometry geom_;
  // CSR views: either into the owned vectors (cold build) or into the
  // mapping (open).  offsets_ has n_codes_ + 1 elements.
  const std::uint64_t* offsets_ = nullptr;
  const std::uint32_t* codes_ = nullptr;
  const Entry* entries_ = nullptr;
  std::size_t n_codes_ = 0;
  std::size_t n_entries_ = 0;
  std::vector<std::uint64_t> owned_offsets_;
  std::vector<std::uint32_t> owned_codes_;
  std::vector<Entry> owned_entries_;
  std::shared_ptr<void> mapping_;  ///< RAII munmap of the open() view
};

}  // namespace gdsm::db
