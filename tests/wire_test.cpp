// Round-trip tests for the byte-level wire encoding (net/frame.h) that the
// process backend trusts across a real socket: every message type, partial-
// page diff payloads, max-size payloads, split/coalesced socket writes, and
// the malformed-input guards.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <random>
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
        FrameKind::kAbort, FrameKind::kHalt, FrameKind::kDrained}) {
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
