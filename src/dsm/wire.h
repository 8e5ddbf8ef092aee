// Payload encodings shared by the node (producer) and service (consumer)
// sides of the protocol: write-notice lists, page diffs, cv grants and node
// results.  Every decoder throws std::runtime_error on a truncated or
// malformed payload; none reads past the buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "dsm/global_space.h"
#include "net/message.h"

namespace gdsm::dsm::wire {

/// Write notices: a flat array of page ids.  decode_pages rejects a payload
/// that is not a whole number of ids.
std::vector<std::byte> encode_pages(const std::vector<PageId>& pages);
std::vector<PageId> decode_pages(const std::vector<std::byte>& payload);

/// Barrier grant payload: the union of the interval's write notices plus
/// the home-migration decisions the manager took (empty unless the
/// home_migration option is ON).
struct BarrierGrant {
  std::vector<PageId> notices;
  std::vector<std::pair<PageId, int>> migrations;  ///< (page, new home)
};

std::vector<std::byte> encode_barrier_grant(const BarrierGrant& grant);
BarrierGrant decode_barrier_grant(const std::vector<std::byte>& payload);

/// Diff format: repeated records of (u32 offset, u32 length, bytes...).
/// Produced by comparing a dirty page against its twin; runs closer than
/// 8 identical bytes apart are merged to keep record overhead low, the same
/// trade-off real diff-based DSMs make.
std::vector<std::byte> make_diff(const std::vector<std::byte>& twin,
                                 const std::vector<std::byte>& data);
void apply_diff(std::byte* dst, std::size_t dst_size,
                const std::vector<std::byte>& payload);

/// Appends the diff records of (twin, data) to `out` without clearing it;
/// returns the number of bytes appended (0 = the page did not change).
/// This is the allocation-free workhorse behind make_diff: the release path
/// encodes straight into a reused scratch buffer or a batch payload.
std::size_t append_diff(std::vector<std::byte>& out,
                        const std::vector<std::byte>& twin,
                        const std::vector<std::byte>& data);

/// Pointer flavour for the process backend, whose page contents live in a
/// mapped region rather than a vector.  `n` bytes of each side are compared.
std::size_t append_diff(std::vector<std::byte>& out, const std::byte* twin,
                        const std::byte* data, std::size_t n);

/// Record-level apply for batched payloads: `records`/`len` delimit one
/// page's diff records inside a larger buffer.
void apply_diff(std::byte* dst, std::size_t dst_size, const std::byte* records,
                std::size_t len);

/// Diff batch payload (kDiffBatch): repeated framed records of
/// (u64 page, u32 record_bytes, diff records...).  Appends one page's frame
/// to `out`; returns false (and appends nothing) when the page's diff is
/// empty — the caller counts it as a suppressed no-op diff.
bool append_diff_batch_page(std::vector<std::byte>& out, PageId page,
                            const std::vector<std::byte>& twin,
                            const std::vector<std::byte>& data);
bool append_diff_batch_page(std::vector<std::byte>& out, PageId page,
                            const std::byte* twin, const std::byte* data,
                            std::size_t n);

/// One page's slice of a diff-batch payload: `offset`/`len` delimit the
/// page's diff records inside the payload buffer.
struct DiffBatchSpan {
  PageId page = 0;
  std::size_t offset = 0;
  std::size_t len = 0;
};

std::vector<DiffBatchSpan> decode_diff_batch(
    const std::vector<std::byte>& payload);

/// Bulk page-data payload (kPagesData): repeated (u64 page, page_bytes of
/// contents) frames; `page_bytes` is fixed cluster-wide so no length field
/// is carried.  decode_pages_data reads the frames from byte `first` on.
void append_page_data(std::vector<std::byte>& out, PageId page,
                      const std::byte* data, std::size_t page_bytes);

struct PageDataSpan {
  PageId page = 0;
  std::size_t offset = 0;  ///< start of the page contents inside the payload
};

std::vector<PageDataSpan> decode_pages_data(
    const std::vector<std::byte>& payload, std::size_t page_bytes,
    std::size_t first = 0);

/// Cv grant payload (kCvGrant): u64 notice count, the notices, then the
/// pages the granting manager carries along as kPagesData frames — the
/// current home contents of the noticed pages homed at that manager, so
/// the waiter needs no fetch after the wait.  Write the notices with
/// begin_cv_grant, then append_page_data once per carried page.
void begin_cv_grant(std::vector<std::byte>& out,
                    const std::vector<PageId>& notices);

struct CvGrant {
  std::vector<PageId> notices;
  std::vector<PageDataSpan> pages;  ///< offsets into the decoded payload
};

CvGrant decode_cv_grant(const std::vector<std::byte>& payload,
                        std::size_t page_bytes);

/// Node result payload (Node::set_result) of the strategies: u8 flag (a
/// node's overflow bit), u64 record count, then the fixed-size records.
std::vector<std::byte> encode_records(bool flag, const std::byte* records,
                                      std::size_t record_bytes,
                                      std::size_t count);

struct RecordSpan {
  bool flag = false;
  std::size_t count = 0;
  std::size_t offset = 0;  ///< start of the first record inside the payload
};

RecordSpan decode_records(const std::vector<std::byte>& payload,
                          std::size_t record_bytes);

template <typename T>
std::vector<std::byte> encode_records(bool flag, std::span<const T> records) {
  static_assert(std::is_trivially_copyable_v<T>);
  return encode_records(flag, reinterpret_cast<const std::byte*>(records.data()),
                        sizeof(T), records.size());
}

/// Appends the payload's records to `out`; returns the payload's flag.
template <typename T>
bool append_records(const std::vector<std::byte>& payload, std::vector<T>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const RecordSpan span = decode_records(payload, sizeof(T));
  const std::size_t old = out.size();
  out.resize(old + span.count);
  if (span.count > 0) {
    std::memcpy(out.data() + old, payload.data() + span.offset,
                span.count * sizeof(T));
  }
  return span.flag;
}

}  // namespace gdsm::dsm::wire
