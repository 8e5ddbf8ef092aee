#include "db/qgram_index.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace gdsm::db {
namespace {

constexpr char kMagic[8] = {'G', 'D', 'S', 'M', 'Q', 'I', 'D', 'X'};
constexpr std::uint32_t kVersion = 1;

// 64-byte fixed header; all integers little-endian host order (the file is
// a node-local cache, not a wire format).
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t q;
  std::uint64_t fragment_len;
  std::uint64_t overlap;
  std::uint64_t n_fragments;
  std::uint64_t n_codes;
  std::uint64_t n_entries;
  std::uint64_t checksum;
};
static_assert(sizeof(FileHeader) == 64, "header layout drifted");
static_assert(sizeof(QGramIndex::Entry) == 8, "entry layout drifted");

std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw std::runtime_error("QGramIndex::open: " + path + ": " + why);
}

struct Mapping {
  void* addr = nullptr;
  std::size_t len = 0;
  ~Mapping() {
    if (addr != nullptr) ::munmap(addr, len);
  }
};

}  // namespace

std::uint64_t db_content_checksum(const std::vector<Sequence>& seqs) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  for (const Sequence& s : seqs) {
    mix(s.name().data(), s.name().size());
    mix(s.data(), s.size() * sizeof(Base));
  }
  return h;
}

QGramIndex QGramIndex::build(const std::vector<FragmentView>& fragments,
                             const Geometry& geom) {
  QGramIndex out;
  out.geom_ = geom;
  const std::size_t q = geom.q;

  // Calls visit(code, fragment, pos) for every N-free window, fragments in
  // order and positions ascending within each: a rolling 2-bit code that
  // restarts after every N.
  const auto for_each_window = [&](auto&& visit) {
    if (q == 0 || q > 15) return;
    const std::uint32_t mask = (std::uint32_t{1} << (2 * q)) - 1;
    for (std::size_t f = 0; f < fragments.size(); ++f) {
      const FragmentView& fv = fragments[f];
      std::uint32_t code = 0;
      std::size_t run = 0;  // N-free bases ending at `pos`
      for (std::size_t pos = 0; pos < fv.len; ++pos) {
        const Base b = fv.bases[pos];
        if (b >= 4) {
          run = 0;
          continue;
        }
        code = ((code << 2) | b) & mask;
        if (++run >= q) {
          visit(code, static_cast<std::uint32_t>(f),
                static_cast<std::uint32_t>(pos + 1 - q));
        }
      }
    }
  };

  // Two-pass counting sort by code, scattering straight into the CSR: pass
  // 1 counts each bucket, pass 2 drops every window at its bucket's cursor.
  // Windows arrive in (fragment, pos) order and the scatter is stable, so
  // each code's entries come out sorted by (fragment, pos) — the order the
  // scan's per-fragment cursors rely on.  A bucket is one code up to q = 10
  // (4^10 counters); past that a bucket holds the codes sharing their top
  // 20 bits, and a stable sort within each bucket finishes the order.
  constexpr std::size_t kBucketBits = 20;
  const std::size_t shift = 2 * q > kBucketBits ? 2 * q - kBucketBits : 0;
  std::vector<std::size_t> start((std::size_t{1} << (2 * q - shift)) + 1, 0);
  for_each_window([&](std::uint32_t code, std::uint32_t, std::uint32_t) {
    ++start[(code >> shift) + 1];
  });
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  const std::size_t n = start.back();
  std::vector<std::uint32_t> entry_code(n);
  out.owned_entries_.resize(n);
  for_each_window([&](std::uint32_t code, std::uint32_t f, std::uint32_t pos) {
    const std::size_t k = start[code >> shift]++;
    entry_code[k] = code;
    out.owned_entries_[k] = Entry{f, pos};
  });
  if (shift > 0) {
    // start[b] now holds bucket b's end, i.e. bucket b+1's begin.
    std::vector<std::pair<std::uint32_t, Entry>> run;
    for (std::size_t b = 0, lo = 0; b + 1 < start.size(); lo = start[b++]) {
      const std::size_t hi = start[b];
      if (std::is_sorted(entry_code.begin() + lo, entry_code.begin() + hi)) {
        continue;
      }
      run.clear();
      for (std::size_t k = lo; k < hi; ++k) {
        run.emplace_back(entry_code[k], out.owned_entries_[k]);
      }
      std::stable_sort(run.begin(), run.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      for (std::size_t k = lo; k < hi; ++k) {
        entry_code[k] = run[k - lo].first;
        out.owned_entries_[k] = run[k - lo].second;
      }
    }
  }

  for (std::size_t k = 0; k < n; ++k) {
    if (out.owned_codes_.empty() || out.owned_codes_.back() != entry_code[k]) {
      out.owned_codes_.push_back(entry_code[k]);
      out.owned_offsets_.push_back(k);
    }
  }
  out.owned_offsets_.push_back(n);
  if (out.owned_codes_.empty()) out.owned_offsets_.assign(1, 0);

  out.offsets_ = out.owned_offsets_.data();
  out.codes_ = out.owned_codes_.data();
  out.entries_ = out.owned_entries_.data();
  out.n_codes_ = out.owned_codes_.size();
  out.n_entries_ = out.owned_entries_.size();
  return out;
}

std::span<const QGramIndex::Entry> QGramIndex::lookup(
    std::uint32_t code) const {
  const std::uint32_t* end = codes_ + n_codes_;
  const std::uint32_t* it = std::lower_bound(codes_, end, code);
  if (it == end || *it != code) return {};
  const std::size_t k = static_cast<std::size_t>(it - codes_);
  return {entries_ + offsets_[k],
          static_cast<std::size_t>(offsets_[k + 1] - offsets_[k])};
}

void QGramIndex::save(const std::string& path) const {
  FileHeader hdr{};
  std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
  hdr.version = kVersion;
  hdr.q = geom_.q;
  hdr.fragment_len = geom_.fragment_len;
  hdr.overlap = geom_.overlap;
  hdr.n_fragments = geom_.n_fragments;
  hdr.n_codes = n_codes_;
  hdr.n_entries = n_entries_;
  hdr.checksum = geom_.checksum;

  // Write to a sibling temp file and rename over, so a crashed save never
  // leaves a torn file that a later open() would have to reject.
  const std::string tmp = path + ".tmp";
  std::FILE* fp = std::fopen(tmp.c_str(), "wb");
  if (fp == nullptr) {
    throw std::runtime_error("QGramIndex::save: cannot open " + tmp);
  }
  bool ok = std::fwrite(&hdr, sizeof(hdr), 1, fp) == 1;
  if (ok && n_codes_ > 0) {
    ok = std::fwrite(offsets_, sizeof(std::uint64_t), n_codes_ + 1, fp) ==
         n_codes_ + 1;
    ok = ok && std::fwrite(codes_, sizeof(std::uint32_t), n_codes_, fp) ==
                   n_codes_;
    const std::size_t codes_bytes = n_codes_ * sizeof(std::uint32_t);
    const std::uint32_t zero = 0;
    if (ok && pad8(codes_bytes) != codes_bytes) {
      ok = std::fwrite(&zero, pad8(codes_bytes) - codes_bytes, 1, fp) == 1;
    }
    if (ok && n_entries_ > 0) {
      ok = std::fwrite(entries_, sizeof(Entry), n_entries_, fp) == n_entries_;
    }
  }
  ok = std::fclose(fp) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("QGramIndex::save: write failed: " + path);
  }
}

QGramIndex QGramIndex::open(const std::string& path, const Geometry& expect) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) reject(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    reject(path, "cannot stat");
  }
  const auto file_len = static_cast<std::size_t>(st.st_size);
  if (file_len < sizeof(FileHeader)) {
    ::close(fd);
    reject(path, "truncated header");
  }
  void* addr = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (addr == MAP_FAILED) reject(path, "mmap failed");
  auto mapping = std::make_shared<Mapping>();
  mapping->addr = addr;
  mapping->len = file_len;

  FileHeader hdr{};
  std::memcpy(&hdr, addr, sizeof(hdr));
  if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0) {
    reject(path, "bad magic");
  }
  if (hdr.version != kVersion) reject(path, "unsupported version");
  if (hdr.q != expect.q || hdr.fragment_len != expect.fragment_len ||
      hdr.overlap != expect.overlap ||
      hdr.n_fragments != expect.n_fragments) {
    reject(path, "geometry mismatch");
  }
  if (hdr.checksum != expect.checksum) {
    reject(path, "checksum mismatch (stale index?)");
  }
  const std::size_t offsets_bytes =
      hdr.n_codes == 0 ? 0
                       : (static_cast<std::size_t>(hdr.n_codes) + 1) *
                             sizeof(std::uint64_t);
  const std::size_t codes_bytes =
      static_cast<std::size_t>(hdr.n_codes) * sizeof(std::uint32_t);
  const std::size_t entries_off =
      sizeof(FileHeader) + offsets_bytes + pad8(codes_bytes);
  const std::size_t need =
      entries_off + static_cast<std::size_t>(hdr.n_entries) * sizeof(Entry);
  if (file_len < need) reject(path, "truncated body");

  QGramIndex out;
  out.geom_ = expect;
  out.n_codes_ = static_cast<std::size_t>(hdr.n_codes);
  out.n_entries_ = static_cast<std::size_t>(hdr.n_entries);
  const auto* base = static_cast<const unsigned char*>(addr);
  if (out.n_codes_ > 0) {
    out.offsets_ =
        reinterpret_cast<const std::uint64_t*>(base + sizeof(FileHeader));
    out.codes_ = reinterpret_cast<const std::uint32_t*>(
        base + sizeof(FileHeader) + offsets_bytes);
    out.entries_ = reinterpret_cast<const Entry*>(base + entries_off);
    // Validate the CSR so a bit-flipped but checksum-matching header can
    // not walk out of bounds later.
    if (out.offsets_[0] != 0 || out.offsets_[out.n_codes_] != hdr.n_entries) {
      reject(path, "corrupt offsets");
    }
    for (std::size_t k = 0; k < out.n_codes_; ++k) {
      if (out.offsets_[k] > out.offsets_[k + 1]) reject(path, "corrupt offsets");
      if (k + 1 < out.n_codes_ && out.codes_[k] >= out.codes_[k + 1]) {
        reject(path, "corrupt code order");
      }
    }
  } else {
    out.owned_offsets_.assign(1, 0);
    out.offsets_ = out.owned_offsets_.data();
  }
  out.mapping_ = std::move(mapping);
  return out;
}

}  // namespace gdsm::db
