#include "net/frame.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include <sys/socket.h>

namespace gdsm::net {

namespace {

template <typename T>
void put(std::vector<std::byte>& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T take(const std::byte* body, std::size_t len, std::size_t& off) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (off + sizeof(T) > len) {
    throw std::runtime_error("net::decode_message: truncated body");
  }
  T v;
  std::memcpy(&v, body + off, sizeof(T));
  off += sizeof(T);
  return v;
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

}  // namespace

void append_frame(std::vector<std::byte>& out, FrameKind kind,
                  const std::byte* body, std::size_t body_len) {
  if (body_len + 1 > kMaxFrameBody) {
    throw std::runtime_error("net::append_frame: body exceeds kMaxFrameBody");
  }
  put<std::uint32_t>(out, static_cast<std::uint32_t>(body_len + 1));
  put<std::uint8_t>(out, static_cast<std::uint8_t>(kind));
  if (body_len > 0) out.insert(out.end(), body, body + body_len);
}

std::vector<std::byte> encode_message(const Message& msg) {
  std::vector<std::byte> out;
  out.reserve(38 + msg.payload.size());
  put<std::int32_t>(out, msg.src);
  put<std::int32_t>(out, msg.dst);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(msg.type));
  put<std::uint8_t>(out, msg.to_reply_box ? 1 : 0);
  put<std::uint64_t>(out, msg.a);
  put<std::uint64_t>(out, msg.b);
  put<std::uint64_t>(out, msg.c);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(msg.payload.size()));
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return out;
}

Message decode_message(const std::byte* body, std::size_t len) {
  std::size_t off = 0;
  Message msg;
  msg.src = take<std::int32_t>(body, len, off);
  msg.dst = take<std::int32_t>(body, len, off);
  const auto type = take<std::uint8_t>(body, len, off);
  if (type >= kNumMsgTypes) {
    throw std::runtime_error("net::decode_message: unknown message type");
  }
  msg.type = static_cast<MsgType>(type);
  msg.to_reply_box = take<std::uint8_t>(body, len, off) != 0;
  msg.a = take<std::uint64_t>(body, len, off);
  msg.b = take<std::uint64_t>(body, len, off);
  msg.c = take<std::uint64_t>(body, len, off);
  const auto payload_len = take<std::uint32_t>(body, len, off);
  if (off + payload_len != len) {
    throw std::runtime_error("net::decode_message: payload length mismatch");
  }
  msg.payload.assign(body + off, body + off + payload_len);
  return msg;
}

Message decode_message(const std::vector<std::byte>& body) {
  return decode_message(body.data(), body.size());
}

void append_message_frame(std::vector<std::byte>& out, const Message& msg) {
  const std::vector<std::byte> body = encode_message(msg);
  append_frame(out, FrameKind::kMessage, body.data(), body.size());
}

namespace {

/// Reads exactly n bytes; returns false on EOF before the first byte when
/// `eof_ok`, throws on mid-buffer EOF or error.
bool read_exact(int fd, std::byte* buf, std::size_t n, bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("net::read_frame");
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("net::read_frame: EOF mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

std::optional<Frame> read_frame(int fd) {
  std::uint32_t body_len = 0;
  if (!read_exact(fd, reinterpret_cast<std::byte*>(&body_len),
                  sizeof(body_len), /*eof_ok=*/true)) {
    return std::nullopt;  // clean EOF at a frame boundary
  }
  if (body_len == 0 || body_len > kMaxFrameBody) {
    throw std::runtime_error("net::read_frame: bad frame length");
  }
  std::uint8_t kind = 0;
  read_exact(fd, reinterpret_cast<std::byte*>(&kind), 1, /*eof_ok=*/false);
  if (kind > static_cast<std::uint8_t>(FrameKind::kResult)) {
    throw std::runtime_error("net::read_frame: unknown frame kind");
  }
  Frame f;
  f.kind = static_cast<FrameKind>(kind);
  f.body.resize(body_len - 1);
  if (!f.body.empty()) {
    read_exact(fd, f.body.data(), f.body.size(), /*eof_ok=*/false);
  }
  return f;
}

void write_frame(int fd, FrameKind kind, const std::byte* body,
                 std::size_t body_len) {
  std::vector<std::byte> buf;
  buf.reserve(5 + body_len);
  append_frame(buf, kind, body, body_len);
  std::size_t sent = 0;
  while (sent < buf.size()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the process
    // with SIGPIPE; the caller maps the error to a node failure.
    const ssize_t r = ::send(fd, buf.data() + sent, buf.size() - sent,
                             MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("net::write_frame");
    }
    sent += static_cast<std::size_t>(r);
  }
}

void write_message_frame(int fd, const Message& msg) {
  const std::vector<std::byte> body = encode_message(msg);
  write_frame(fd, FrameKind::kMessage, body.data(), body.size());
}

// ---------------------------------------------------------------------------
// Typed error propagation (kDone failure bodies).

const char* error_kind_name(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kRuntime: return "runtime";
    case ErrorKind::kLogic: return "logic";
    case ErrorKind::kInvalidArgument: return "invalid_argument";
    case ErrorKind::kDomain: return "domain";
    case ErrorKind::kLength: return "length";
    case ErrorKind::kOutOfRange: return "out_of_range";
    case ErrorKind::kRange: return "range";
    case ErrorKind::kOverflow: return "overflow";
    case ErrorKind::kUnderflow: return "underflow";
    case ErrorKind::kBadAlloc: return "bad_alloc";
    case ErrorKind::kSystem: return "system";
    case ErrorKind::kUnknown: return "unknown";
  }
  return "unknown";
}

ErrorKind classify_error(const std::exception& e) {
  // Most-derived types first: every listed class below derives from
  // logic_error or runtime_error, which must therefore come last.
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    return ErrorKind::kInvalidArgument;
  }
  if (dynamic_cast<const std::domain_error*>(&e) != nullptr) {
    return ErrorKind::kDomain;
  }
  if (dynamic_cast<const std::length_error*>(&e) != nullptr) {
    return ErrorKind::kLength;
  }
  if (dynamic_cast<const std::out_of_range*>(&e) != nullptr) {
    return ErrorKind::kOutOfRange;
  }
  if (dynamic_cast<const std::range_error*>(&e) != nullptr) {
    return ErrorKind::kRange;
  }
  if (dynamic_cast<const std::overflow_error*>(&e) != nullptr) {
    return ErrorKind::kOverflow;
  }
  if (dynamic_cast<const std::underflow_error*>(&e) != nullptr) {
    return ErrorKind::kUnderflow;
  }
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    return ErrorKind::kBadAlloc;
  }
  if (dynamic_cast<const std::logic_error*>(&e) != nullptr) {
    return ErrorKind::kLogic;
  }
  return ErrorKind::kRuntime;
}

std::exception_ptr make_error(ErrorKind kind, const std::string& what) {
  switch (kind) {
    case ErrorKind::kLogic:
      return std::make_exception_ptr(std::logic_error(what));
    case ErrorKind::kInvalidArgument:
      return std::make_exception_ptr(std::invalid_argument(what));
    case ErrorKind::kDomain:
      return std::make_exception_ptr(std::domain_error(what));
    case ErrorKind::kLength:
      return std::make_exception_ptr(std::length_error(what));
    case ErrorKind::kOutOfRange:
      return std::make_exception_ptr(std::out_of_range(what));
    case ErrorKind::kRange:
      return std::make_exception_ptr(std::range_error(what));
    case ErrorKind::kOverflow:
      return std::make_exception_ptr(std::overflow_error(what));
    case ErrorKind::kUnderflow:
      return std::make_exception_ptr(std::underflow_error(what));
    case ErrorKind::kRuntime:
    case ErrorKind::kBadAlloc:  // bad_alloc::what is fixed; keep the message
    case ErrorKind::kSystem:
    case ErrorKind::kUnknown:
      break;
  }
  return std::make_exception_ptr(std::runtime_error(what));
}

std::vector<std::byte> encode_error_body(ErrorKind kind,
                                         std::string_view what) {
  std::vector<std::byte> out;
  out.reserve(1 + what.size());
  out.push_back(static_cast<std::byte>(kind));
  const auto* p = reinterpret_cast<const std::byte*>(what.data());
  out.insert(out.end(), p, p + what.size());
  return out;
}

std::pair<ErrorKind, std::string> decode_error_body(const std::byte* body,
                                                    std::size_t len) {
  if (len == 0) return {ErrorKind::kRuntime, std::string()};
  const auto tag = static_cast<std::uint8_t>(body[0]);
  if (tag > static_cast<std::uint8_t>(ErrorKind::kUnknown)) {
    // Legacy kind-less body (or garbage tag): the whole body is the message.
    return {ErrorKind::kRuntime,
            std::string(reinterpret_cast<const char*>(body), len)};
  }
  return {static_cast<ErrorKind>(tag),
          std::string(reinterpret_cast<const char*>(body) + 1, len - 1)};
}

}  // namespace gdsm::net
