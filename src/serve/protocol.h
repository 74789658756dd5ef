#pragma once
// Wire protocol for the `gcnt serve` daemon: length-prefixed binary
// frames with a versioned header, carried over a Unix or TCP socket.
//
// Frame layout (all integers little-endian):
//
//   u32 payload_length            (bounded by kMaxFramePayload)
//   payload:
//     u8  version                 (kMinProtocolVersion..kProtocolVersion)
//     u8  opcode                  (Op; responses set kResponseBit)
//     u16 flags                   (v1: reserved, always 0)
//     u32 request_id              (echoed verbatim in the response)
//     [u32 deadline_ms]           (v2+, only when kFrameFlagDeadline set)
//     ... opcode-specific body
//
// Version history: v1 had a zero "reserved" u16 where flags now live, so
// every v1 frame is also a valid v2 frame with no flags set. v2 turned
// the field into a flag word and added the optional deadline extension
// (kFrameFlagDeadline on requests) plus the brownout marker
// (kFrameFlagBrownout on responses). Responses echo the request's
// version so old clients never see fields they cannot parse.
//
// Response bodies start with a u8 status: kStatusOk followed by the
// opcode-specific payload, or a non-zero ErrorKind mapping followed by a
// human-readable message string. Every malformed input — truncated
// length prefix, oversized length, short header, bad version, unknown
// opcode, truncated body, a deadline flag without its field — maps to a
// typed gcnt::Error; the codec never crashes on hostile bytes (pinned by
// tests/serve_protocol_test.cpp).

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"

namespace gcnt::serve {

constexpr std::uint8_t kProtocolVersion = 2;
/// Oldest version the server still accepts (v1 peers get v1 replies).
constexpr std::uint8_t kMinProtocolVersion = 1;
/// Responses echo the request opcode with this bit set.
constexpr std::uint8_t kResponseBit = 0x80;
/// Hard cap on a frame payload (header + body). A hostile length prefix
/// above this is rejected before any allocation.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;
/// Bytes of payload before the optional extensions and the body.
constexpr std::size_t kFrameHeaderBytes = 8;

/// Frame flag (v2+ requests): a u32 deadline in milliseconds — measured
/// from server receipt — follows the fixed header. Requests still queued
/// or batched past it are shed with an ErrorKind::kDeadline response.
constexpr std::uint16_t kFrameFlagDeadline = 0x1;
/// Frame flag (v2+ responses): the reply was served from the session's
/// cached logits under brownout instead of a fresh (re-)propagation.
constexpr std::uint16_t kFrameFlagBrownout = 0x2;

/// Request opcodes. Keep values stable: they are the wire format.
enum class Op : std::uint8_t {
  kPing = 1,           ///< health check; empty body, empty reply
  kLoadSession = 2,    ///< load a netlist as a named resident session
  kInfer = 3,          ///< whole-graph logits for a session
  kAppendObserve = 4,  ///< insert an observation point (incremental)
  kAppendControl = 5,  ///< insert a control point (incremental)
  kStats = 6,          ///< stats-registry JSON snapshot
  kReloadModel = 7,    ///< atomically swap in a re-verified model artifact
  kCloseSession = 8,   ///< drop a resident session
  kShutdown = 9,       ///< stop accepting, drain, exit cleanly
  kMetrics = 10,       ///< Prometheus-style exposition + slow-request ring
};

/// Stable lowercase name of a request opcode ("ping", "infer", ...);
/// unknown opcodes return "unknown". Used for per-opcode stats names and
/// the access-log "op" field.
const char* op_name(std::uint8_t opcode) noexcept;

/// Response status byte: 0 = ok, otherwise a stable ErrorKind encoding.
enum : std::uint8_t { kStatusOk = 0 };

/// Wire encoding of an ErrorKind (1..7, never 0).
std::uint8_t wire_status(ErrorKind kind) noexcept;
/// Inverse of wire_status; unknown bytes decode as kInternal.
ErrorKind error_kind_for_status(std::uint8_t status) noexcept;

/// One decoded frame (request or response).
struct Frame {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t opcode = 0;
  std::uint16_t flags = 0;
  std::uint32_t request_id = 0;
  /// Milliseconds the sender allows from receipt to reply; meaningful
  /// only when has_deadline().
  std::uint32_t deadline_ms = 0;
  std::string body;

  bool is_response() const noexcept { return (opcode & kResponseBit) != 0; }
  std::uint8_t request_opcode() const noexcept {
    return opcode & static_cast<std::uint8_t>(~kResponseBit);
  }
  bool has_deadline() const noexcept {
    return version >= 2 && (flags & kFrameFlagDeadline) != 0;
  }
  bool is_brownout() const noexcept {
    return version >= 2 && (flags & kFrameFlagBrownout) != 0;
  }
};

/// Serializes `frame` into length prefix + payload. Throws Error{kUsage}
/// when the body would exceed kMaxFramePayload.
std::string encode_frame(const Frame& frame);

enum class DecodeResult {
  kNeedMore,   ///< buffer holds a frame prefix; read more bytes
  kFrame,      ///< one frame decoded; `consumed` bytes were used
  kMalformed,  ///< unrecoverable framing error; `error` describes it
};

/// Decodes the first complete frame from `buffer`. On kFrame, `out` is
/// filled and `consumed` is the total bytes (prefix + payload) used; on
/// kMalformed, `kind`/`message` carry the typed error (oversized length
/// prefix, payload shorter than the frame header). A truncated prefix or
/// body is kNeedMore — the caller decides whether EOF makes it an error.
DecodeResult decode_frame(std::string_view buffer, Frame& out,
                          std::size_t& consumed, ErrorKind& kind,
                          std::string& message);

/// Builds the standard error-response frame for a failed request. The
/// response echoes the request's version (clamped to a version we
/// speak), so v1 peers receive v1 replies.
Frame make_error_response(const Frame& request, ErrorKind kind,
                          const std::string& message);
/// Builds an ok-response frame carrying `payload` after the status byte.
Frame make_ok_response(const Frame& request, std::string payload);

// --- body serialization helpers ------------------------------------------

/// Appends fixed-width little-endian fields to a body string.
class WireWriter {
 public:
  explicit WireWriter(std::string& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);
  /// u32 length + raw bytes.
  void str(std::string_view v);

 private:
  std::string* out_;
};

/// Reads the fields back; any read past the end throws Error{kCorrupt}
/// ("truncated message body") — a malformed request body therefore turns
/// into a typed error response, never undefined behavior.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  float f32();
  std::string str();

  bool empty() const noexcept { return cursor_ >= data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - cursor_; }

 private:
  void need(std::size_t bytes) const;

  std::string_view data_;
  std::size_t cursor_ = 0;
};

// --- framed I/O over file descriptors -------------------------------------

enum class ReadStatus {
  kFrame,  ///< one frame read
  kEof,    ///< orderly end of stream at a frame boundary
  kIdle,   ///< receive timeout expired with zero bytes read (only on fds
           ///< with SO_RCVTIMEO / O_NONBLOCK); the stream is still valid
  kError,  ///< framing or I/O error; `kind`/`message` describe it
};

/// Blocking read of exactly one frame from `fd`. EOF mid-frame is a
/// kCorrupt error (truncated length prefix / truncated payload). On fds
/// with a receive timeout, expiry at a frame boundary is kIdle — the
/// caller decides whether that reaps the connection — while expiry
/// mid-frame is a kIo error (a stalled or byzantine peer).
ReadStatus read_frame(int fd, Frame& out, ErrorKind& kind,
                      std::string& message);

/// Blocking write of one encoded frame to `fd`. Throws Error{kIo} on
/// failure. Callers serialize concurrent writers per fd themselves.
void write_frame(int fd, const Frame& frame);

/// Blocking EINTR-safe write of raw bytes. Throws Error{kIo} on failure,
/// including an expired SO_SNDTIMEO. Building block of write_frame,
/// exposed for the serve chaos probes' torn-write injection.
void write_bytes(int fd, const char* data, std::size_t len);

}  // namespace gcnt::serve
