// Wire-protocol codec hardening: round trips, hostile framing bytes, and
// the fd-level frame reader. Every malformed input must surface as a
// typed gcnt::Error (never a crash) — the serve daemon feeds raw network
// bytes straight into this codec.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/error.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace gcnt::serve {
namespace {

TEST(ServeProtocol, FrameRoundTrip) {
  Frame frame;
  frame.opcode = static_cast<std::uint8_t>(Op::kInfer);
  frame.request_id = 0xdeadbeef;
  frame.body = std::string("payload\0with\0nuls", 17);

  const std::string bytes = encode_frame(frame);
  Frame decoded;
  std::size_t consumed = 0;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  ASSERT_EQ(decode_frame(bytes, decoded, consumed, kind, message),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.opcode, frame.opcode);
  EXPECT_EQ(decoded.request_id, frame.request_id);
  EXPECT_EQ(decoded.body, frame.body);
  EXPECT_FALSE(decoded.is_response());
}

TEST(ServeProtocol, TruncatedPrefixNeedsMore) {
  Frame frame;
  frame.opcode = static_cast<std::uint8_t>(Op::kPing);
  const std::string bytes = encode_frame(frame);
  Frame decoded;
  std::size_t consumed = 0;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  // Every strict prefix of a valid frame is kNeedMore, never an error.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(decode_frame(std::string_view(bytes).substr(0, cut), decoded,
                           consumed, kind, message),
              DecodeResult::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(ServeProtocol, OversizedLengthIsMalformed) {
  std::string bytes;
  const std::uint32_t huge = kMaxFramePayload + 1;
  bytes.append(reinterpret_cast<const char*>(&huge), 4);
  bytes.append(16, '\0');
  Frame decoded;
  std::size_t consumed = 0;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_EQ(decode_frame(bytes, decoded, consumed, kind, message),
            DecodeResult::kMalformed);
  EXPECT_EQ(kind, ErrorKind::kCorrupt);
  EXPECT_NE(message.find("exceeds"), std::string::npos);
}

TEST(ServeProtocol, PayloadShorterThanHeaderIsMalformed) {
  std::string bytes;
  const std::uint32_t tiny = 3;  // < kFrameHeaderBytes
  bytes.append(reinterpret_cast<const char*>(&tiny), 4);
  bytes.append(3, '\0');
  Frame decoded;
  std::size_t consumed = 0;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_EQ(decode_frame(bytes, decoded, consumed, kind, message),
            DecodeResult::kMalformed);
  EXPECT_EQ(kind, ErrorKind::kCorrupt);
}

TEST(ServeProtocol, EncodeRejectsOversizedBody) {
  Frame frame;
  frame.body.resize(kMaxFramePayload);  // + header > limit
  try {
    encode_frame(frame);
    FAIL() << "expected Error{kUsage}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUsage);
  }
}

TEST(ServeProtocol, WireFieldsRoundTrip) {
  std::string body;
  WireWriter writer(body);
  writer.u8(7);
  writer.u32(0x01020304u);
  writer.u64(0x1122334455667788ull);
  writer.f32(-1.5f);
  writer.str("session-name");
  writer.str({});  // empty strings are legal

  WireReader reader(body);
  EXPECT_EQ(reader.u8(), 7);
  EXPECT_EQ(reader.u32(), 0x01020304u);
  EXPECT_EQ(reader.u64(), 0x1122334455667788ull);
  EXPECT_EQ(reader.f32(), -1.5f);
  EXPECT_EQ(reader.str(), "session-name");
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.empty());
}

TEST(ServeProtocol, TruncatedBodyThrowsCorrupt) {
  std::string body;
  WireWriter writer(body);
  writer.str("abcdef");
  body.resize(body.size() - 2);  // cut the string short of its length
  WireReader reader(body);
  try {
    reader.str();
    FAIL() << "expected Error{kCorrupt}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  }
  // A string length that itself lies about the remaining bytes.
  std::string lying;
  WireWriter liar(lying);
  liar.u32(1000);  // claims 1000 bytes follow
  lying.append("xy");
  WireReader reader2(lying);
  EXPECT_THROW(reader2.str(), Error);
}

TEST(ServeProtocol, StatusMappingRoundTrips) {
  for (ErrorKind kind :
       {ErrorKind::kIo, ErrorKind::kCorrupt, ErrorKind::kVersion,
        ErrorKind::kResource, ErrorKind::kUsage, ErrorKind::kInternal,
        ErrorKind::kDeadline}) {
    const std::uint8_t status = wire_status(kind);
    EXPECT_NE(status, kStatusOk);
    EXPECT_EQ(error_kind_for_status(status), kind);
  }
}

TEST(ServeProtocol, V2DeadlineRoundTrip) {
  Frame frame;
  frame.opcode = static_cast<std::uint8_t>(Op::kInfer);
  frame.request_id = 77;
  frame.flags = kFrameFlagDeadline;
  frame.deadline_ms = 1500;
  frame.body = "session";

  const std::string bytes = encode_frame(frame);
  Frame decoded;
  std::size_t consumed = 0;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  ASSERT_EQ(decode_frame(bytes, decoded, consumed, kind, message),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_TRUE(decoded.has_deadline());
  EXPECT_EQ(decoded.deadline_ms, 1500u);
  EXPECT_EQ(decoded.body, "session");
}

TEST(ServeProtocol, V1FrameStillDecodes) {
  // A v1 peer's frame: version byte 1, no flags semantics, no deadline
  // extension. The v2 codec must accept it unchanged.
  Frame frame;
  frame.version = 1;
  frame.opcode = static_cast<std::uint8_t>(Op::kPing);
  frame.request_id = 3;
  const std::string bytes = encode_frame(frame);
  Frame decoded;
  std::size_t consumed = 0;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  ASSERT_EQ(decode_frame(bytes, decoded, consumed, kind, message),
            DecodeResult::kFrame);
  EXPECT_EQ(decoded.version, 1);
  EXPECT_FALSE(decoded.has_deadline());
  EXPECT_EQ(decoded.deadline_ms, 0u);
}

TEST(ServeProtocol, TruncatedDeadlineIsMalformed) {
  // Deadline flag set but the payload stops before the deadline field.
  Frame frame;
  frame.opcode = static_cast<std::uint8_t>(Op::kPing);
  frame.flags = kFrameFlagDeadline;
  frame.deadline_ms = 10;
  std::string bytes = encode_frame(frame);
  // Shrink the payload to exactly the fixed header (drop the 4-byte
  // extension) and patch the length prefix to match.
  bytes.resize(4 + kFrameHeaderBytes);
  const std::uint32_t payload = kFrameHeaderBytes;
  std::memcpy(bytes.data(), &payload, 4);

  Frame decoded;
  std::size_t consumed = 0;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_EQ(decode_frame(bytes, decoded, consumed, kind, message),
            DecodeResult::kMalformed);
  EXPECT_EQ(kind, ErrorKind::kCorrupt);
  EXPECT_NE(message.find("deadline"), std::string::npos);
}

TEST(ServeProtocol, ResponseEchoesRequestVersion) {
  Frame v1_request;
  v1_request.version = 1;
  v1_request.opcode = static_cast<std::uint8_t>(Op::kPing);
  v1_request.request_id = 5;
  EXPECT_EQ(make_ok_response(v1_request, {}).version, 1);
  EXPECT_EQ(make_error_response(v1_request, ErrorKind::kUsage, "x").version,
            1);
  Frame v2_request;
  v2_request.opcode = static_cast<std::uint8_t>(Op::kPing);
  EXPECT_EQ(make_ok_response(v2_request, {}).version, kProtocolVersion);
}

TEST(ServeProtocol, BrownoutFlagOnlyOnV2Responses) {
  Frame response;
  response.opcode =
      static_cast<std::uint8_t>(Op::kInfer) | kResponseBit;
  response.flags = kFrameFlagBrownout;
  EXPECT_TRUE(response.is_brownout());
  response.version = 1;
  EXPECT_FALSE(response.is_brownout());
}

TEST(ServeProtocol, ResponseBuilders) {
  Frame request;
  request.opcode = static_cast<std::uint8_t>(Op::kStats);
  request.request_id = 42;

  const Frame ok = make_ok_response(request, "abc");
  EXPECT_TRUE(ok.is_response());
  EXPECT_EQ(ok.request_opcode(), request.opcode);
  EXPECT_EQ(ok.request_id, 42u);
  ASSERT_FALSE(ok.body.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(ok.body[0]), kStatusOk);
  EXPECT_EQ(ok.body.substr(1), "abc");

  const Frame err =
      make_error_response(request, ErrorKind::kResource, "queue full");
  EXPECT_TRUE(err.is_response());
  EXPECT_EQ(err.request_id, 42u);
  WireReader reader(err.body);
  EXPECT_EQ(error_kind_for_status(reader.u8()), ErrorKind::kResource);
  EXPECT_EQ(reader.str(), "queue full");
}

// --- fd-level reader --------------------------------------------------

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(pipe(fds), 0); }
  ~Pipe() {
    close_write();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(ServeProtocol, ReadFrameRoundTripAndEof) {
  Pipe pipe;
  Frame frame;
  frame.opcode = static_cast<std::uint8_t>(Op::kLoadSession);
  frame.request_id = 9;
  frame.body = "body bytes";
  write_frame(pipe.fds[1], frame);
  pipe.close_write();

  Frame decoded;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  ASSERT_EQ(read_frame(pipe.fds[0], decoded, kind, message),
            ReadStatus::kFrame);
  EXPECT_EQ(decoded.opcode, frame.opcode);
  EXPECT_EQ(decoded.body, frame.body);
  // Stream ends exactly at a frame boundary: orderly EOF, not an error.
  EXPECT_EQ(read_frame(pipe.fds[0], decoded, kind, message),
            ReadStatus::kEof);
}

TEST(ServeProtocol, ReadFrameTruncatedPrefixIsCorrupt) {
  Pipe pipe;
  const char partial[2] = {0x10, 0x00};  // half a length prefix
  ASSERT_EQ(::write(pipe.fds[1], partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  pipe.close_write();

  Frame decoded;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_EQ(read_frame(pipe.fds[0], decoded, kind, message),
            ReadStatus::kError);
  EXPECT_EQ(kind, ErrorKind::kCorrupt);
  EXPECT_NE(message.find("truncated"), std::string::npos);
}

TEST(ServeProtocol, ReadFrameTruncatedPayloadIsCorrupt) {
  Pipe pipe;
  Frame frame;
  frame.opcode = static_cast<std::uint8_t>(Op::kInfer);
  frame.body = "0123456789";
  const std::string bytes = encode_frame(frame);
  ASSERT_EQ(::write(pipe.fds[1], bytes.data(), bytes.size() - 4),
            static_cast<ssize_t>(bytes.size() - 4));
  pipe.close_write();

  Frame decoded;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_EQ(read_frame(pipe.fds[0], decoded, kind, message),
            ReadStatus::kError);
  EXPECT_EQ(kind, ErrorKind::kCorrupt);
}

TEST(ServeProtocol, ReadFrameRejectsHostileLengthWithoutAllocating) {
  Pipe pipe;
  const std::uint32_t huge = 0xffffffffu;
  ASSERT_EQ(::write(pipe.fds[1], &huge, 4), 4);
  pipe.close_write();

  Frame decoded;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  EXPECT_EQ(read_frame(pipe.fds[0], decoded, kind, message),
            ReadStatus::kError);
  EXPECT_EQ(kind, ErrorKind::kCorrupt);
}

// An infer reply whose logits shape outruns its body is corrupt, and the
// client says so before it allocates rows x cols floats: here 2^62 of
// them, which no allocator can provide.
TEST(ServeClientReply, InferShapeBeyondBodyIsCorrupt) {
  const std::string path =
      "serve_protocol_reply_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  // A one-shot daemon: one infer request, one reply of shape 2^31 x 2^31
  // carrying a single float.
  std::thread daemon([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    Frame request;
    ErrorKind kind = ErrorKind::kInternal;
    std::string message;
    try {
      if (read_frame(fd, request, kind, message) == ReadStatus::kFrame) {
        std::string payload;
        WireWriter writer(payload);
        writer.u32(1u << 31);
        writer.u32(1u << 31);
        writer.f32(0.5f);
        write_frame(fd, make_ok_response(request, payload));
      }
    } catch (const Error&) {
      // The client hung up first; its side of the test reports that.
    }
    ::close(fd);
  });
  try {
    ServeClient client = ServeClient::connect_unix(path);
    (void)client.infer("design");
    ADD_FAILURE() << "a reply of 2^62 logits in 4 bytes was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped " << e.what();
  }
  daemon.join();
  ::close(listener);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace gcnt::serve
