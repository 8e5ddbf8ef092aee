#include "blast/words.h"

namespace gdsm::blast {

bool pack_word(const Sequence& seq, std::size_t pos, int k,
               std::uint32_t* out) {
  std::uint32_t code = 0;
  for (int i = 0; i < k; ++i) {
    const Base b = seq[pos + static_cast<std::size_t>(i)];
    if (b >= 4) return false;
    code = (code << 2) | b;
  }
  *out = code;
  return true;
}

WordIndex::WordIndex(const Sequence& seq, int k) : k_(k) {
  if (k <= 0 || seq.size() < static_cast<std::size_t>(k)) return;
  index_.reserve(seq.size());
  for (std::size_t pos = 0; pos + static_cast<std::size_t>(k) <= seq.size();
       ++pos) {
    std::uint32_t code;
    if (pack_word(seq, pos, k, &code)) {
      index_[code].push_back(static_cast<std::uint32_t>(pos));
    }
  }
}

const std::vector<std::uint32_t>& WordIndex::positions(
    std::uint32_t code) const {
  static const std::vector<std::uint32_t> kEmpty;
  const auto it = index_.find(code);
  return it == index_.end() ? kEmpty : it->second;
}

std::vector<std::uint32_t> WordIndex::codes() const {
  std::vector<std::uint32_t> out;
  out.reserve(index_.size());
  for (const auto& [code, positions] : index_) out.push_back(code);
  return out;
}

}  // namespace gdsm::blast
