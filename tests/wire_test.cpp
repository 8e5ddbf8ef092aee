// Round-trip tests for the byte-level wire encoding (net/frame.h) that the
// process backend trusts across a real socket: every message type, partial-
// page diff payloads, max-size payloads, split/coalesced socket writes, and
// the malformed-input guards.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "dsm/wire.h"
#include "net/frame.h"
#include "net/message.h"

namespace gdsm::net {
namespace {

std::vector<std::byte> random_payload(std::mt19937& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  std::uniform_int_distribution<int> byte(0, 255);
  for (auto& b : out) b = static_cast<std::byte>(byte(rng));
  return out;
}

Message random_message(std::mt19937& rng, MsgType type,
                       std::size_t payload_len) {
  std::uniform_int_distribution<int> node(-1, 63);
  std::uniform_int_distribution<std::uint64_t> word;
  Message m;
  m.src = node(rng);
  m.dst = node(rng);
  m.type = type;
  m.to_reply_box = (word(rng) & 1) != 0;
  m.a = word(rng);
  m.b = word(rng);
  m.c = word(rng);
  m.payload = random_payload(rng, payload_len);
  return m;
}

void expect_equal(const Message& got, const Message& want) {
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.to_reply_box, want.to_reply_box);
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
  EXPECT_EQ(got.c, want.c);
  EXPECT_EQ(got.payload, want.payload);
}

TEST(WireMessage, RoundTripsEveryTypeWithFuzzedFields) {
  std::mt19937 rng(20260808);
  const std::size_t lens[] = {0, 1, 7, 64, 4096};
  for (int t = 0; t < kNumMsgTypes; ++t) {
    for (const std::size_t len : lens) {
      const Message want = random_message(rng, static_cast<MsgType>(t), len);
      const std::vector<std::byte> body = encode_message(want);
      ASSERT_EQ(body.size(), 38u + len);
      expect_equal(decode_message(body), want);
    }
  }
}

TEST(WireMessage, RoundTripsPartialPageDiffPayload) {
  // A realistic kDiff payload: sparse dirty runs in a 4 KiB page, encoded by
  // the same diff writer the release path uses.
  std::mt19937 rng(7);
  std::vector<std::byte> twin = random_payload(rng, 4096);
  std::vector<std::byte> page = twin;
  for (const std::size_t off : {13u, 900u, 901u, 904u, 2048u, 4090u}) {
    page[off] = static_cast<std::byte>(~std::to_integer<unsigned>(page[off]));
  }
  Message m = random_message(rng, MsgType::kDiff, 0);
  m.payload = dsm::wire::make_diff(twin, page);
  ASSERT_FALSE(m.payload.empty());
  ASSERT_LT(m.payload.size(), page.size());  // partial, not a full page

  const Message back = decode_message(encode_message(m));
  expect_equal(back, m);

  // The decoded payload still applies: twin + diff == dirty page.
  std::vector<std::byte> rebuilt = twin;
  dsm::wire::apply_diff(rebuilt.data(), rebuilt.size(), back.payload);
  EXPECT_EQ(rebuilt, page);

  // The diff carries modified bytes only, so applying it at the home keeps
  // a concurrent writer's update to byte 902, between two modified runs.
  std::vector<std::byte> home = twin;
  home[902] = static_cast<std::byte>(~std::to_integer<unsigned>(home[902]));
  std::vector<std::byte> want = page;
  want[902] = home[902];
  dsm::wire::apply_diff(home.data(), home.size(), back.payload);
  EXPECT_EQ(home, want);
}

TEST(WireMessage, RoundTripsDiffBatchAndPagesDataPayloads) {
  std::mt19937 rng(11);
  const std::size_t page_bytes = 1024;

  Message batch = random_message(rng, MsgType::kDiffBatch, 0);
  std::vector<std::byte> twin = random_payload(rng, page_bytes);
  std::vector<std::byte> dirty = twin;
  dirty[0] = static_cast<std::byte>(0xAA);
  dirty[500] = static_cast<std::byte>(0xBB);
  ASSERT_TRUE(
      dsm::wire::append_diff_batch_page(batch.payload, 3, twin, dirty));
  ASSERT_TRUE(
      dsm::wire::append_diff_batch_page(batch.payload, 9, twin, dirty));
  const Message batch_back = decode_message(encode_message(batch));
  expect_equal(batch_back, batch);
  const auto spans = dsm::wire::decode_diff_batch(batch_back.payload);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].page, 3u);
  EXPECT_EQ(spans[1].page, 9u);

  Message pages = random_message(rng, MsgType::kPagesData, 0);
  dsm::wire::append_page_data(pages.payload, 5, twin.data(), page_bytes);
  dsm::wire::append_page_data(pages.payload, 6, dirty.data(), page_bytes);
  const Message pages_back = decode_message(encode_message(pages));
  expect_equal(pages_back, pages);
  const auto pd = dsm::wire::decode_pages_data(pages_back.payload, page_bytes);
  ASSERT_EQ(pd.size(), 2u);
  EXPECT_EQ(pd[0].page, 5u);
  EXPECT_EQ(pd[1].page, 6u);
}

TEST(WireMessage, RoundTripsCvGrantWithCarriedPages) {
  std::mt19937 rng(13);
  const std::size_t page_bytes = 512;
  const std::vector<dsm::PageId> notices = {4, 9, 17};
  const std::vector<std::byte> page9 = random_payload(rng, page_bytes);
  const std::vector<std::byte> page17 = random_payload(rng, page_bytes);

  Message grant = random_message(rng, MsgType::kCvGrant, 0);
  dsm::wire::begin_cv_grant(grant.payload, notices);
  dsm::wire::append_page_data(grant.payload, 9, page9.data(), page_bytes);
  dsm::wire::append_page_data(grant.payload, 17, page17.data(), page_bytes);
  const Message back = decode_message(encode_message(grant));
  expect_equal(back, grant);

  const dsm::wire::CvGrant decoded =
      dsm::wire::decode_cv_grant(back.payload, page_bytes);
  EXPECT_EQ(decoded.notices, notices);
  ASSERT_EQ(decoded.pages.size(), 2u);
  EXPECT_EQ(decoded.pages[0].page, 9u);
  EXPECT_EQ(decoded.pages[1].page, 17u);
  const auto at = [&](std::size_t off) {
    return std::vector<std::byte>(
        back.payload.begin() + static_cast<std::ptrdiff_t>(off),
        back.payload.begin() + static_cast<std::ptrdiff_t>(off + page_bytes));
  };
  EXPECT_EQ(at(decoded.pages[0].offset), page9);
  EXPECT_EQ(at(decoded.pages[1].offset), page17);

  // A grant with notices only (no page homed at the manager) still decodes.
  std::vector<std::byte> bare;
  dsm::wire::begin_cv_grant(bare, notices);
  EXPECT_EQ(dsm::wire::decode_cv_grant(bare, page_bytes).notices, notices);
  EXPECT_TRUE(dsm::wire::decode_cv_grant(bare, page_bytes).pages.empty());
}

TEST(WireMessage, RoundTripsNodeResultFrame) {
  // A node result (Node::set_result) crosses the process boundary as a
  // kResult frame ahead of kDone; the strategies' payload is the record
  // codec: flag byte, count, fixed-size records.
  struct Rec {
    std::int32_t a;
    std::uint32_t b;
  };
  const std::vector<Rec> recs = {{-1, 2}, {3, 4}, {5, 6}};
  const std::vector<std::byte> body =
      dsm::wire::encode_records(true, std::span<const Rec>(recs));

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_frame(fds[0], FrameKind::kResult, body.data(), body.size());
  write_frame(fds[0], FrameKind::kResult, nullptr, 0);  // no result set
  const auto f = read_frame(fds[1]);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FrameKind::kResult);
  EXPECT_EQ(f->body, body);
  const auto empty = read_frame(fds[1]);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->kind, FrameKind::kResult);
  EXPECT_TRUE(empty->body.empty());
  ::close(fds[0]);
  ::close(fds[1]);

  std::vector<Rec> out = {{9, 9}};
  EXPECT_TRUE(dsm::wire::append_records(f->body, out));
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(out[i + 1].a, recs[i].a);
    EXPECT_EQ(out[i + 1].b, recs[i].b);
  }
  const std::vector<std::byte> none =
      dsm::wire::encode_records(false, std::span<const Rec>());
  EXPECT_FALSE(dsm::wire::append_records(none, out));
  EXPECT_EQ(out.size(), 4u);
}

TEST(WireMessage, TruncatedOrMalformedPayloadsThrowTypedErrors) {
  // Every protocol payload decoder ends a bad body in std::runtime_error:
  // each truncation of a valid body, and a fuzzed corruption of its length
  // fields, must throw or decode within bounds — never read past the end.
  std::mt19937 rng(29);
  const std::size_t page_bytes = 64;

  std::vector<std::byte> grant;
  dsm::wire::begin_cv_grant(grant, {1, 2});
  dsm::wire::append_page_data(grant, 2, random_payload(rng, page_bytes).data(),
                              page_bytes);
  struct Rec {
    std::uint64_t v;
  };
  const std::vector<Rec> recs = {{1}, {2}};
  const std::vector<std::byte> result =
      dsm::wire::encode_records(false, std::span<const Rec>(recs));
  const std::vector<std::byte> barrier =
      dsm::wire::encode_barrier_grant({{5, 6}, {{5, 1}}});
  const std::vector<std::byte> notices = dsm::wire::encode_pages({3, 4});

  const auto decode_all = [&](const std::vector<std::byte>& grant_body,
                              const std::vector<std::byte>& result_body,
                              const std::vector<std::byte>& barrier_body,
                              const std::vector<std::byte>& notice_body) {
    int thrown = 0;
    try {
      (void)dsm::wire::decode_cv_grant(grant_body, page_bytes);
    } catch (const std::runtime_error&) {
      ++thrown;
    }
    try {
      std::vector<Rec> out;
      (void)dsm::wire::append_records(result_body, out);
    } catch (const std::runtime_error&) {
      ++thrown;
    }
    try {
      (void)dsm::wire::decode_barrier_grant(barrier_body);
    } catch (const std::runtime_error&) {
      ++thrown;
    }
    try {
      (void)dsm::wire::decode_pages(notice_body);
    } catch (const std::runtime_error&) {
      ++thrown;
    }
    return thrown;
  };
  EXPECT_EQ(decode_all(grant, result, barrier, notices), 0);

  // Every strict prefix of each body is rejected, bar the one prefix of the
  // grant that is itself a whole grant.
  const auto cut = [](const std::vector<std::byte>& v, std::size_t n) {
    return std::vector<std::byte>(v.begin(),
                                  v.begin() + static_cast<std::ptrdiff_t>(n));
  };
  const std::size_t notices_only =
      sizeof(std::uint64_t) + 2 * sizeof(dsm::PageId);
  for (std::size_t n = 0; n < grant.size(); ++n) {
    if (n == notices_only) continue;  // a whole grant carrying no page
    EXPECT_THROW((void)dsm::wire::decode_cv_grant(cut(grant, n), page_bytes),
                 std::runtime_error)
        << n;
  }
  for (std::size_t n = 0; n < result.size(); ++n) {
    std::vector<Rec> out;
    EXPECT_THROW((void)dsm::wire::append_records(cut(result, n), out),
                 std::runtime_error)
        << n;
  }
  for (std::size_t n = 0; n < barrier.size(); ++n) {
    EXPECT_THROW((void)dsm::wire::decode_barrier_grant(cut(barrier, n)),
                 std::runtime_error)
        << n;
  }
  EXPECT_THROW((void)dsm::wire::decode_pages(cut(notices, 5)),
               std::runtime_error);

  // Huge counts (overflowing count * size), a bad flag byte and trailing
  // bytes are rejected too.
  std::vector<std::byte> huge = grant;
  const std::uint64_t big = ~std::uint64_t{0} / 4;
  std::memcpy(huge.data(), &big, sizeof(big));
  EXPECT_THROW((void)dsm::wire::decode_cv_grant(huge, page_bytes),
               std::runtime_error);
  std::vector<std::byte> huge_result = result;
  std::memcpy(huge_result.data() + 1, &big, sizeof(big));
  std::vector<Rec> sink;
  EXPECT_THROW((void)dsm::wire::append_records(huge_result, sink),
               std::runtime_error);
  std::vector<std::byte> bad_flag = result;
  bad_flag[0] = std::byte{7};
  EXPECT_THROW((void)dsm::wire::append_records(bad_flag, sink),
               std::runtime_error);
  std::vector<std::byte> trailing = result;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)dsm::wire::append_records(trailing, sink),
               std::runtime_error);
  std::vector<std::byte> trailing_barrier = barrier;
  trailing_barrier.push_back(std::byte{0});
  EXPECT_THROW((void)dsm::wire::decode_barrier_grant(trailing_barrier),
               std::runtime_error);

  // Random byte corruption: decoding may succeed or throw, never crash.
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::byte> g = grant, r = result, b = barrier, p = notices;
    for (std::vector<std::byte>* v : {&g, &r, &b, &p}) {
      std::uniform_int_distribution<std::size_t> at(0, v->size() - 1);
      (*v)[at(rng)] = static_cast<std::byte>(rng() & 0xFF);
    }
    (void)decode_all(g, r, b, p);
  }
}

TEST(WireMessage, RejectsMalformedBodies) {
  std::mt19937 rng(3);
  const Message m = random_message(rng, MsgType::kPageData, 32);
  std::vector<std::byte> body = encode_message(m);

  // Truncated header and truncated payload.
  EXPECT_THROW(decode_message(body.data(), 10), std::runtime_error);
  EXPECT_THROW(decode_message(body.data(), body.size() - 1),
               std::runtime_error);
  // Trailing garbage (payload length no longer matches).
  body.push_back(std::byte{0});
  EXPECT_THROW(decode_message(body), std::runtime_error);
  // Unknown type byte (offset 8 = after src/dst).
  std::vector<std::byte> bad = encode_message(m);
  bad[8] = static_cast<std::byte>(kNumMsgTypes);
  EXPECT_THROW(decode_message(bad), std::runtime_error);
}

TEST(WireFrame, RoundTripsEveryKindOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::mt19937 rng(42);

  for (const FrameKind kind :
       {FrameKind::kMessage, FrameKind::kDone, FrameKind::kStats,
        FrameKind::kAbort, FrameKind::kHalt, FrameKind::kDrained,
        FrameKind::kResult}) {
    const std::vector<std::byte> body =
        random_payload(rng, kind == FrameKind::kHalt ? 0 : 777);
    write_frame(fds[0], kind, body.data(), body.size());
    const auto got = read_frame(fds[1]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind, kind);
    EXPECT_EQ(got->body, body);
  }

  ::close(fds[0]);
  EXPECT_FALSE(read_frame(fds[1]).has_value());  // clean EOF
  ::close(fds[1]);
}

TEST(WireFrame, ReassemblesFramesSplitAcrossWrites) {
  // A stream delivers bytes, not records: dribble three concatenated frames
  // through the socket one odd-sized chunk at a time and expect read_frame
  // to reassemble each message intact.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::mt19937 rng(99);

  std::vector<Message> sent;
  std::vector<std::byte> stream;
  for (const std::size_t len : {0u, 100u, 4096u}) {
    sent.push_back(random_message(rng, MsgType::kPagesData, len));
    append_message_frame(stream, sent.back());
  }

  std::thread dribbler([&] {
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n = std::min<std::size_t>(97, stream.size() - off);
      ASSERT_EQ(::write(fds[0], stream.data() + off, n),
                static_cast<ssize_t>(n));
      off += n;
    }
    ::close(fds[0]);
  });

  for (const Message& want : sent) {
    const auto f = read_frame(fds[1]);
    ASSERT_TRUE(f.has_value());
    ASSERT_EQ(f->kind, FrameKind::kMessage);
    expect_equal(decode_message(f->body), want);
  }
  EXPECT_FALSE(read_frame(fds[1]).has_value());
  dribbler.join();
  ::close(fds[1]);
}

TEST(WireFrame, CarriesMaxSizePageBatchPayload) {
  // The largest payload the protocol actually ships: a full kPagesData batch
  // (dsm::kMaxPagesPerFetch-sized fetches of 16 KiB pages land well under
  // kMaxFrameBody, but push a deliberately huge 8 MiB payload through to
  // prove the framing never truncates or splits large bodies).
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::mt19937 rng(5);
  const Message want = random_message(rng, MsgType::kPagesData, 8u << 20);

  std::thread writer([&] {
    write_message_frame(fds[0], want);
    ::close(fds[0]);
  });
  const auto f = read_frame(fds[1]);
  writer.join();
  ASSERT_TRUE(f.has_value());
  expect_equal(decode_message(f->body), want);
  ::close(fds[1]);
}

TEST(WireFrame, RejectsOversizedAndCorruptHeaders) {
  std::vector<std::byte> out;
  EXPECT_THROW(append_frame(out, FrameKind::kMessage, nullptr, kMaxFrameBody),
               std::runtime_error);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Length field larger than kMaxFrameBody.
  const std::uint32_t huge = kMaxFrameBody + 1;
  ASSERT_EQ(::write(fds[0], &huge, sizeof(huge)),
            static_cast<ssize_t>(sizeof(huge)));
  EXPECT_THROW(read_frame(fds[1]), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);

  // Unknown frame kind.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t len = 1;
  const std::uint8_t bad_kind = 200;
  ASSERT_EQ(::write(fds[0], &len, sizeof(len)),
            static_cast<ssize_t>(sizeof(len)));
  ASSERT_EQ(::write(fds[0], &bad_kind, 1), 1);
  EXPECT_THROW(read_frame(fds[1]), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);

  // EOF mid-frame (header promised more bytes than arrive).
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t promised = 100;
  const std::uint8_t kind = 0;
  ASSERT_EQ(::write(fds[0], &promised, sizeof(promised)),
            static_cast<ssize_t>(sizeof(promised)));
  ASSERT_EQ(::write(fds[0], &kind, 1), 1);
  ::close(fds[0]);
  EXPECT_THROW(read_frame(fds[1]), std::runtime_error);
  ::close(fds[1]);
}

TEST(WireFrame, FuzzedMessagesSurviveCoalescedStream) {
  // Property test: 200 random messages with random types/payload sizes,
  // written as one contiguous byte stream, all decode back identically.
  std::mt19937 rng(777);
  std::uniform_int_distribution<int> type(0, kNumMsgTypes - 1);
  std::uniform_int_distribution<std::size_t> len(0, 2048);

  std::vector<Message> sent;
  std::vector<std::byte> stream;
  for (int i = 0; i < 200; ++i) {
    sent.push_back(
        random_message(rng, static_cast<MsgType>(type(rng)), len(rng)));
    append_message_frame(stream, sent.back());
  }

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([&] {
    std::size_t off = 0;
    while (off < stream.size()) {
      const ssize_t r =
          ::send(fds[0], stream.data() + off, stream.size() - off, 0);
      ASSERT_GT(r, 0);
      off += static_cast<std::size_t>(r);
    }
    ::close(fds[0]);
  });

  for (const Message& want : sent) {
    const auto f = read_frame(fds[1]);
    ASSERT_TRUE(f.has_value());
    expect_equal(decode_message(f->body), want);
  }
  EXPECT_FALSE(read_frame(fds[1]).has_value());
  writer.join();
  ::close(fds[1]);
}

}  // namespace
}  // namespace gdsm::net
