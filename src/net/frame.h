// Byte-level framing of protocol messages for a real socket data plane.
//
// The in-process transport moves net::Message structs between mailboxes, so
// nothing ever needed a serialized form.  The multi-process DSM backend
// (src/dsm/proc) sends the same messages across Unix-domain stream sockets,
// which requires a stable byte encoding plus explicit framing (a stream has
// no record boundaries).  tests/wire_test.cpp round-trips every message type
// through this encoding before it is trusted across a process boundary.
//
// Frame layout (all integers little-endian, fixed width):
//   u32  body_len          (bytes following this field)
//   u8   kind              (FrameKind)
//   ...  body
//
// Message body (kind == kMessage):
//   i32 src | i32 dst | u8 type | u8 to_reply_box | u64 a | u64 b | u64 c |
//   u32 payload_len | payload bytes
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/message.h"

namespace gdsm::net {

/// What a frame carries.  kMessage wraps a protocol Message; the others are
/// the supervisor <-> node-process control channel of the process backend.
enum class FrameKind : std::uint8_t {
  kMessage = 0,  ///< a net::Message (routed node -> node by the supervisor)
  kDone = 1,     ///< node process: program finished (payload empty on
                 ///< success; on failure [u8 ErrorKind][what bytes], see
                 ///< encode_error_body)
  kStats = 2,    ///< node process: final NodeStats blob, then exit
  kAbort = 3,    ///< supervisor: unwind — close your reply box (payload =
                 ///< human-readable reason)
  kHalt = 4,     ///< supervisor: job over — stop the service loop, send stats
  kDrained = 5,  ///< node process: ack of a kStop drain marker — everything
                 ///< queued before it has been fully handled
  kResult = 6,   ///< node process: the program's result payload
                 ///< (Node::set_result), sent right before a success kDone
};

/// Upper bound on a frame body accepted by decode/read (corruption guard;
/// generous: a max-size kPagesData batch is ~16 MiB).
inline constexpr std::uint32_t kMaxFrameBody = 64u * 1024 * 1024;

/// Exception taxonomy carried across the process boundary in a kDone frame,
/// so a child's failure rethrows in the parent as the type the program
/// actually threw instead of degrading everything to runtime_error.  The
/// vocabulary covers the standard hierarchy the DSM programs use; kSystem
/// marks failures synthesized by the supervisor itself (child death, torn
/// socket), and kUnknown is a non-std::exception throw.  make_error
/// reconstructs kSystem and kUnknown as plain runtime_error — the original
/// type (if any) died with the process.
enum class ErrorKind : std::uint8_t {
  kRuntime = 0,         ///< std::runtime_error (and unlisted derivatives)
  kLogic = 1,           ///< std::logic_error (and unlisted derivatives)
  kInvalidArgument = 2, ///< std::invalid_argument
  kDomain = 3,          ///< std::domain_error
  kLength = 4,          ///< std::length_error
  kOutOfRange = 5,      ///< std::out_of_range
  kRange = 6,           ///< std::range_error
  kOverflow = 7,        ///< std::overflow_error
  kUnderflow = 8,       ///< std::underflow_error
  kBadAlloc = 9,        ///< std::bad_alloc (message replaces the original)
  kSystem = 10,         ///< supervisor-synthesized (peer death, torn frame)
  kUnknown = 11,        ///< catch (...) — not a std::exception
};

/// Stable lower-case tag ("runtime", "invalid_argument", ...) for logs and
/// combined failure messages.
const char* error_kind_name(ErrorKind kind);

/// Most-derived-first classification of a live exception object.
ErrorKind classify_error(const std::exception& e);

/// Rebuilds a throwable exception of the tagged type carrying `what`.
/// kSystem/kUnknown/kBadAlloc come back as runtime_error (bad_alloc cannot
/// carry a message; the original object is gone anyway).
std::exception_ptr make_error(ErrorKind kind, const std::string& what);

/// kDone failure body: [u8 kind][what bytes] (never empty — success is the
/// empty body).  decode tolerates legacy kind-less bodies by mapping them
/// to kRuntime with the whole body as the message.
std::vector<std::byte> encode_error_body(ErrorKind kind,
                                         std::string_view what);
std::pair<ErrorKind, std::string> decode_error_body(const std::byte* body,
                                                    std::size_t len);

/// Appends one full frame (length prefix + kind + body) to `out`.
void append_frame(std::vector<std::byte>& out, FrameKind kind,
                  const std::byte* body, std::size_t body_len);

/// Serializes `msg` as a kMessage frame appended to `out`.
void append_message_frame(std::vector<std::byte>& out, const Message& msg);

/// Encodes just the message body (no frame header); append_message_frame
/// composes this with append_frame.  Exposed for the round-trip tests.
std::vector<std::byte> encode_message(const Message& msg);

/// Decodes a message body produced by encode_message.  Throws
/// std::runtime_error on truncated or malformed input.
Message decode_message(const std::byte* body, std::size_t len);
Message decode_message(const std::vector<std::byte>& body);

/// One parsed frame.
struct Frame {
  FrameKind kind = FrameKind::kMessage;
  std::vector<std::byte> body;
};

/// Blocking exact-length read/write helpers over a socket fd, EINTR-safe.
/// read_frame returns nullopt on clean EOF at a frame boundary and throws on
/// mid-frame EOF, oversized frames, or I/O errors.  write_frame throws on
/// error (EPIPE et al. — the caller maps that to peer death).
std::optional<Frame> read_frame(int fd);
void write_frame(int fd, FrameKind kind, const std::byte* body,
                 std::size_t body_len);
void write_message_frame(int fd, const Message& msg);

}  // namespace gdsm::net
