// Minimal FASTA reader/writer for the example programs and tests.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/sequence.h"

namespace gdsm {

/// Incremental FASTA reader over a fixed-size read buffer: records are
/// parsed straight out of 64 KiB chunks, so peak memory tracks the largest
/// single record instead of the whole file — load_db's RSS stops scaling
/// with database size.  Lines are concatenated; the header text after '>'
/// up to the first whitespace becomes the name.  Blank lines and ';'
/// comment lines are skipped.  Throws std::runtime_error on malformed input
/// (content before a header).
class FastaStreamReader {
 public:
  explicit FastaStreamReader(const std::string& path);
  ~FastaStreamReader();
  FastaStreamReader(const FastaStreamReader&) = delete;
  FastaStreamReader& operator=(const FastaStreamReader&) = delete;

  /// Parses the next record into `out`.  Returns false at end of input.
  bool next(Sequence& out);

 private:
  bool fill();
  /// Feeds one character through the line state machine; true when a
  /// finished record was moved into `out`.
  bool consume(char c, Sequence& out);

  void* file_;  ///< FILE*, kept opaque to spare includers <cstdio>
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  enum class Line { kStart, kHeaderName, kHeaderRest, kComment, kSeq };
  Line line_ = Line::kStart;
  bool cr_ = false;  ///< pending '\r' — data unless the next byte is '\n'
  bool have_record_ = false;
  std::string name_;
  std::basic_string<Base> bases_;
};

/// Convenience: read a whole FASTA file through FastaStreamReader.
std::vector<Sequence> read_fasta_file(const std::string& path);

/// Writes records wrapped at `width` columns.
void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs,
                 std::size_t width = 70);

void write_fasta_file(const std::string& path,
                      const std::vector<Sequence>& seqs,
                      std::size_t width = 70);

}  // namespace gdsm
