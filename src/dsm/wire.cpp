// Payload codec implementations (see wire.h).  Moved out of node.cpp when
// the batched data plane grew the codec surface: both the node (producer)
// and the cluster service loop (consumer) now depend on these symmetrically.
#include "dsm/wire.h"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace gdsm::dsm::wire {

namespace {

/// Bounds-checked read of a u64 at `off`, advancing it.
std::uint64_t take_u64(const std::vector<std::byte>& payload, std::size_t& off,
                       const char* what) {
  if (off > payload.size() || payload.size() - off < sizeof(std::uint64_t)) {
    throw std::runtime_error(std::string(what) + ": truncated payload");
  }
  const auto v = net::read_pod<std::uint64_t>(payload, off);
  off += sizeof(std::uint64_t);
  return v;
}

/// Checks that `count` items of `item_bytes` fit in the payload after `off`.
void need(const std::vector<std::byte>& payload, std::size_t off,
          std::uint64_t count, std::size_t item_bytes, const char* what) {
  if (count > (payload.size() - off) / item_bytes) {
    throw std::runtime_error(std::string(what) + ": truncated payload");
  }
}

}  // namespace

std::vector<std::byte> encode_pages(const std::vector<PageId>& pages) {
  std::vector<std::byte> out;
  out.reserve(pages.size() * sizeof(PageId));
  for (PageId p : pages) net::append_pod(out, p);
  return out;
}

std::vector<PageId> decode_pages(const std::vector<std::byte>& payload) {
  if (payload.size() % sizeof(PageId) != 0) {
    throw std::runtime_error("decode_pages: truncated page id");
  }
  std::vector<PageId> out;
  out.reserve(payload.size() / sizeof(PageId));
  for (std::size_t off = 0; off + sizeof(PageId) <= payload.size();
       off += sizeof(PageId)) {
    out.push_back(net::read_pod<PageId>(payload, off));
  }
  return out;
}

std::vector<std::byte> encode_barrier_grant(const BarrierGrant& grant) {
  std::vector<std::byte> out;
  net::append_pod(out, static_cast<std::uint64_t>(grant.notices.size()));
  for (PageId p : grant.notices) net::append_pod(out, p);
  net::append_pod(out, static_cast<std::uint64_t>(grant.migrations.size()));
  for (const auto& [p, home] : grant.migrations) {
    net::append_pod(out, p);
    net::append_pod(out, static_cast<std::uint64_t>(home));
  }
  return out;
}

BarrierGrant decode_barrier_grant(const std::vector<std::byte>& payload) {
  static constexpr const char* kWhat = "decode_barrier_grant";
  BarrierGrant grant;
  std::size_t off = 0;
  const std::uint64_t n_notices = take_u64(payload, off, kWhat);
  need(payload, off, n_notices, sizeof(PageId), kWhat);
  grant.notices.reserve(n_notices);
  for (std::uint64_t k = 0; k < n_notices; ++k, off += 8) {
    grant.notices.push_back(net::read_pod<PageId>(payload, off));
  }
  const std::uint64_t n_migr = take_u64(payload, off, kWhat);
  need(payload, off, n_migr, 16, kWhat);
  if (off + n_migr * 16 != payload.size()) {
    throw std::runtime_error("decode_barrier_grant: trailing bytes");
  }
  for (std::uint64_t k = 0; k < n_migr; ++k, off += 16) {
    grant.migrations.emplace_back(
        net::read_pod<PageId>(payload, off),
        static_cast<int>(net::read_pod<std::uint64_t>(payload, off + 8)));
  }
  return grant;
}

std::size_t append_diff(std::vector<std::byte>& out, const std::byte* twin,
                        const std::byte* data, std::size_t n) {
  const std::size_t start_size = out.size();
  std::size_t i = 0;
  while (i < n) {
    if (twin[i] == data[i]) {
      ++i;
      continue;
    }
    // A run holds modified bytes only: an unchanged byte copied from this
    // node's twin could overwrite a concurrent writer's update at the home
    // (multiple writers of one page, e.g. false sharing).
    std::size_t end = i + 1;
    while (end < n && twin[end] != data[end]) ++end;
    net::append_pod(out, static_cast<std::uint32_t>(i));
    net::append_pod(out, static_cast<std::uint32_t>(end - i));
    out.insert(out.end(), data + i, data + end);
    i = end;
  }
  return out.size() - start_size;
}

std::size_t append_diff(std::vector<std::byte>& out,
                        const std::vector<std::byte>& twin,
                        const std::vector<std::byte>& data) {
  assert(twin.size() == data.size());
  return append_diff(out, twin.data(), data.data(), data.size());
}

std::vector<std::byte> make_diff(const std::vector<std::byte>& twin,
                                 const std::vector<std::byte>& data) {
  std::vector<std::byte> out;
  append_diff(out, twin, data);
  return out;
}

void apply_diff(std::byte* dst, std::size_t dst_size, const std::byte* records,
                std::size_t len) {
  std::size_t off = 0;
  while (off + 2 * sizeof(std::uint32_t) <= len) {
    std::uint32_t start;
    std::uint32_t run;
    std::memcpy(&start, records + off, sizeof(start));
    std::memcpy(&run, records + off + 4, sizeof(run));
    off += 8;
    if (start + run > dst_size || off + run > len) {
      throw std::runtime_error("apply_diff: malformed diff record");
    }
    std::memcpy(dst + start, records + off, run);
    off += run;
  }
}

void apply_diff(std::byte* dst, std::size_t dst_size,
                const std::vector<std::byte>& payload) {
  apply_diff(dst, dst_size, payload.data(), payload.size());
}

bool append_diff_batch_page(std::vector<std::byte>& out, PageId page,
                            const std::vector<std::byte>& twin,
                            const std::vector<std::byte>& data) {
  assert(twin.size() == data.size());
  return append_diff_batch_page(out, page, twin.data(), data.data(),
                                data.size());
}

bool append_diff_batch_page(std::vector<std::byte>& out, PageId page,
                            const std::byte* twin, const std::byte* data,
                            std::size_t n) {
  const std::size_t frame_start = out.size();
  net::append_pod(out, page);
  net::append_pod(out, std::uint32_t{0});  // record_bytes, patched below
  const std::size_t record_bytes = append_diff(out, twin, data, n);
  if (record_bytes == 0) {
    out.resize(frame_start);  // unchanged page: suppress the whole frame
    return false;
  }
  const auto len = static_cast<std::uint32_t>(record_bytes);
  std::memcpy(out.data() + frame_start + sizeof(PageId), &len, sizeof(len));
  return true;
}

std::vector<DiffBatchSpan> decode_diff_batch(
    const std::vector<std::byte>& payload) {
  std::vector<DiffBatchSpan> out;
  std::size_t off = 0;
  while (off + sizeof(PageId) + sizeof(std::uint32_t) <= payload.size()) {
    DiffBatchSpan span;
    span.page = net::read_pod<PageId>(payload, off);
    span.len = net::read_pod<std::uint32_t>(payload, off + sizeof(PageId));
    off += sizeof(PageId) + sizeof(std::uint32_t);
    if (off + span.len > payload.size()) {
      throw std::runtime_error("decode_diff_batch: truncated batch frame");
    }
    span.offset = off;
    off += span.len;
    out.push_back(span);
  }
  return out;
}

void append_page_data(std::vector<std::byte>& out, PageId page,
                      const std::byte* data, std::size_t page_bytes) {
  net::append_pod(out, page);
  out.insert(out.end(), data, data + page_bytes);
}

std::vector<PageDataSpan> decode_pages_data(
    const std::vector<std::byte>& payload, std::size_t page_bytes,
    std::size_t first) {
  std::vector<PageDataSpan> out;
  const std::size_t frame = sizeof(PageId) + page_bytes;
  if (first > payload.size() || (payload.size() - first) % frame != 0) {
    throw std::runtime_error("decode_pages_data: truncated page frame");
  }
  out.reserve((payload.size() - first) / frame);
  for (std::size_t off = first; off + frame <= payload.size(); off += frame) {
    out.push_back(PageDataSpan{net::read_pod<PageId>(payload, off),
                               off + sizeof(PageId)});
  }
  return out;
}

void begin_cv_grant(std::vector<std::byte>& out,
                    const std::vector<PageId>& notices) {
  net::append_pod(out, static_cast<std::uint64_t>(notices.size()));
  for (PageId p : notices) net::append_pod(out, p);
}

CvGrant decode_cv_grant(const std::vector<std::byte>& payload,
                        std::size_t page_bytes) {
  static constexpr const char* kWhat = "decode_cv_grant";
  CvGrant grant;
  std::size_t off = 0;
  const std::uint64_t n_notices = take_u64(payload, off, kWhat);
  need(payload, off, n_notices, sizeof(PageId), kWhat);
  grant.notices.reserve(n_notices);
  for (std::uint64_t k = 0; k < n_notices; ++k, off += sizeof(PageId)) {
    grant.notices.push_back(net::read_pod<PageId>(payload, off));
  }
  grant.pages = decode_pages_data(payload, page_bytes, off);
  return grant;
}

std::vector<std::byte> encode_records(bool flag, const std::byte* records,
                                      std::size_t record_bytes,
                                      std::size_t count) {
  std::vector<std::byte> out;
  out.reserve(1 + sizeof(std::uint64_t) + count * record_bytes);
  net::append_pod(out, static_cast<std::uint8_t>(flag ? 1 : 0));
  net::append_pod(out, static_cast<std::uint64_t>(count));
  if (count > 0) out.insert(out.end(), records, records + count * record_bytes);
  return out;
}

RecordSpan decode_records(const std::vector<std::byte>& payload,
                          std::size_t record_bytes) {
  static constexpr const char* kWhat = "decode_records";
  if (payload.empty()) {
    throw std::runtime_error("decode_records: empty payload");
  }
  const auto flag = std::to_integer<std::uint8_t>(payload[0]);
  if (flag > 1) throw std::runtime_error("decode_records: bad flag byte");
  std::size_t off = 1;
  RecordSpan span;
  span.flag = flag == 1;
  const std::uint64_t count = take_u64(payload, off, kWhat);
  need(payload, off, count, record_bytes, kWhat);
  if (count * record_bytes != payload.size() - off) {
    throw std::runtime_error("decode_records: trailing bytes");
  }
  span.count = static_cast<std::size_t>(count);
  span.offset = off;
  return span;
}

}  // namespace gdsm::dsm::wire
