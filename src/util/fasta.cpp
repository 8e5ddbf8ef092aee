#include "util/fasta.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace gdsm {

namespace {
constexpr std::size_t kStreamBufBytes = 64 * 1024;
}  // namespace

FastaStreamReader::FastaStreamReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")), buf_(kStreamBufBytes) {
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open FASTA file: " + path);
  }
}

FastaStreamReader::~FastaStreamReader() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

bool FastaStreamReader::fill() {
  len_ = std::fread(buf_.data(), 1, buf_.size(),
                    static_cast<std::FILE*>(file_));
  pos_ = 0;
  return len_ > 0;
}

bool FastaStreamReader::consume(char c, Sequence& out) {
  switch (line_) {
    case Line::kStart:
      if (c == '\n') return false;  // blank line
      if (c == '>') {
        const bool emit = have_record_;
        if (emit) {
          out = Sequence(name_, std::move(bases_));
          bases_.clear();
        }
        name_.clear();
        have_record_ = true;
        line_ = Line::kHeaderName;
        return emit;
      }
      if (c == ';') {
        line_ = Line::kComment;  // classic FASTA comment line
        return false;
      }
      if (!have_record_) {
        throw std::runtime_error("FASTA: sequence data before any '>' header");
      }
      line_ = Line::kSeq;
      if (c != ' ' && c != '\t') bases_.push_back(encode_base(c));
      return false;
    case Line::kHeaderName:
      if (c == '\n') {
        line_ = Line::kStart;
      } else if (c == ' ' || c == '\t') {
        line_ = Line::kHeaderRest;  // name stops at the first whitespace
      } else {
        name_.push_back(c);
      }
      return false;
    case Line::kHeaderRest:
    case Line::kComment:
      if (c == '\n') line_ = Line::kStart;
      return false;
    case Line::kSeq:
      if (c == '\n') {
        line_ = Line::kStart;
      } else if (c != ' ' && c != '\t') {
        bases_.push_back(encode_base(c));
      }
      return false;
  }
  return false;
}

bool FastaStreamReader::next(Sequence& out) {
  for (;;) {
    if (pos_ == len_ && !fill()) break;
    const char c = buf_[pos_++];
    // A '\r' is only a line terminator when '\n' (or end of input) follows;
    // anywhere else it goes through as ordinary data.
    if (cr_) {
      cr_ = false;
      if (c != '\n') consume('\r', out);
    }
    if (c == '\r') {
      cr_ = true;
      continue;
    }
    if (consume(c, out)) return true;
  }
  cr_ = false;  // a trailing '\r' at end of input ends the last line
  if (have_record_) {
    out = Sequence(name_, std::move(bases_));
    bases_.clear();
    have_record_ = false;
    return true;
  }
  return false;
}

std::vector<Sequence> read_fasta_file(const std::string& path) {
  FastaStreamReader reader(path);
  std::vector<Sequence> out;
  Sequence s;
  while (reader.next(s)) out.push_back(std::move(s));
  return out;
}

void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs,
                 std::size_t width) {
  for (const auto& s : seqs) {
    out << '>' << s.name() << '\n';
    const std::string text = s.text();
    for (std::size_t i = 0; i < text.size(); i += width) {
      out << text.substr(i, width) << '\n';
    }
  }
}

void write_fasta_file(const std::string& path, const std::vector<Sequence>& seqs,
                      std::size_t width) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write FASTA file: " + path);
  write_fasta(out, seqs, width);
}

}  // namespace gdsm
