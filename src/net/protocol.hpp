// overcount wire protocol v1: dependency-free length-prefixed binary frames.
//
// Every frame is a fixed 12-byte header followed by `length` payload bytes:
//
//   offset  size  field
//        0     4  magic   0x4F564331 ("OVC1"), little-endian
//        4     1  version (currently 1)
//        5     1  type    (FrameType)
//        6     2  flags   (per-type bitset, little-endian)
//        8     4  length  payload byte count, little-endian, <= 64 KiB
//
// All multi-byte integers are little-endian and encoded with explicit byte
// shifts (no struct punning), so the format is identical across hosts.
// Doubles travel as the little-endian bytes of their IEEE-754 bit pattern —
// bit-exact, which the tests/net/ identity test relies on.
//
// Decoding is incremental and bounds-checked: FrameReader accepts arbitrary
// byte chunks and yields complete frames; a malformed header (bad magic /
// version / oversized length) is a terminal kError *before* any payload
// allocation, so a garbage or adversarial stream cannot make the server
// allocate, crash, or over-read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace overcount::net {

inline constexpr std::uint32_t kMagic = 0x4F564331u;  // "OVC1"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 12;
inline constexpr std::uint32_t kMaxPayloadBytes = 64 * 1024;
inline constexpr std::size_t kMaxTenantNameBytes = 256;

enum class FrameType : std::uint8_t {
  kHello = 1,    ///< client -> server: register/attach a tenant.
  kWelcome = 2,  ///< server -> client: tenant id + resolved class spec.
  kRequest = 3,  ///< client -> server: one estimate query.
  kResponse = 4, ///< server -> client: completed estimate.
  kReject = 5,   ///< server -> client: admission refusal + retry_after_us.
  kError = 6,    ///< server -> client: protocol-level failure (then close).
  kPing = 7,     ///< either direction: liveness probe.
  kPong = 8,     ///< echo of kPing.
};

enum class RejectReason : std::uint8_t {
  kUnknownTenant = 1,  ///< request named a tenant id never issued by Hello.
  kRateLimited = 2,    ///< token bucket empty for this tenant.
  kFairShare = 3,      ///< DRR deficit exhausted while the broker is saturated.
  kQueueFull = 4,      ///< the broker shed the request (EDF queue full).
  kShuttingDown = 5,   ///< server is stopping.
  kBadRequest = 6,     ///< request failed validation (epsilon/delta/kind).
};

const char* to_string(RejectReason reason);

/// Protocol error codes carried by kError frames.
inline constexpr std::uint16_t kErrBadFrame = 1;
inline constexpr std::uint16_t kErrBadHello = 2;
inline constexpr std::uint16_t kErrUnexpectedType = 3;

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  std::uint32_t length = 0;
};

/// One complete decoded frame (header + raw payload bytes).
struct Frame {
  FrameHeader header;
  std::string payload;
  FrameType type() const { return static_cast<FrameType>(header.type); }
};

// ---------------------------------------------------------------- messages

struct HelloMsg {
  std::string tenant;       ///< UTF-8 name, <= kMaxTenantNameBytes.
  std::uint8_t class_id = 0;
};

struct WelcomeMsg {
  std::uint32_t tenant_id = 0;
  std::uint8_t class_id = 0;
  double epsilon = 0.0;
  double delta = 0.0;
  std::uint64_t deadline_us = 0;  ///< 0 = best effort.
  double rate_per_sec = 0.0;
  double burst = 0.0;
};

/// RequestMsg.flags bits.
inline constexpr std::uint16_t kReqAllowCached = 1u << 0;
inline constexpr std::uint16_t kReqHasDeadline = 1u << 1;
inline constexpr std::uint16_t kReqExplicitTarget = 1u << 2;

struct RequestMsg {
  std::uint64_t request_id = 0;
  std::uint32_t tenant_id = 0;
  std::uint8_t kind = 0;    ///< serve::QueryKind on the wire.
  std::uint8_t method = 0;  ///< serve::EstimateMethod on the wire.
  std::uint16_t flags = kReqAllowCached;
  double epsilon = 0.0;     ///< used when kReqExplicitTarget, else class spec.
  double delta = 0.0;
  std::uint64_t deadline_rel_us = 0;  ///< relative; used when kReqHasDeadline,
                                      ///< else the class deadline applies.
};

/// ResponseMsg.flags bits.
inline constexpr std::uint16_t kRespCacheHit = 1u << 0;
inline constexpr std::uint16_t kRespCoalesced = 1u << 1;

struct ResponseMsg {
  std::uint64_t request_id = 0;
  std::uint8_t status = 0;  ///< serve::ServeStatus on the wire.
  std::uint16_t flags = 0;
  double value = 0.0;
  double epsilon = 0.0;
  std::uint64_t walks = 0;
  std::uint64_t graph_version = 0;
  std::uint64_t age_us = 0;
  std::uint64_t latency_us = 0;
  std::uint64_t retry_after_us = 0;
};

struct RejectMsg {
  std::uint64_t request_id = 0;
  std::uint8_t reason = 0;  ///< RejectReason.
  std::uint64_t retry_after_us = 0;
};

struct ErrorMsg {
  std::uint16_t code = 0;
  std::string message;
};

struct PingMsg {
  std::uint64_t nonce = 0;
};

// ---------------------------------------------------------------- encoding

std::string encode_hello(const HelloMsg& msg);
std::string encode_welcome(const WelcomeMsg& msg);
std::string encode_request(const RequestMsg& msg);
std::string encode_response(const ResponseMsg& msg);
std::string encode_reject(const RejectMsg& msg);
std::string encode_error(const ErrorMsg& msg);
std::string encode_ping(const PingMsg& msg, bool pong = false);

// ---------------------------------------------------------------- decoding

/// Per-type payload decoders. nullopt = malformed payload (wrong size,
/// name too long, ...). They never throw and never read out of bounds.
std::optional<HelloMsg> decode_hello(const Frame& frame);
std::optional<WelcomeMsg> decode_welcome(const Frame& frame);
std::optional<RequestMsg> decode_request(const Frame& frame);
std::optional<ResponseMsg> decode_response(const Frame& frame);
std::optional<RejectMsg> decode_reject(const Frame& frame);
std::optional<ErrorMsg> decode_error(const Frame& frame);
std::optional<PingMsg> decode_ping(const Frame& frame);

enum class DecodeStatus : std::uint8_t {
  kNeedMore,  ///< not enough buffered bytes for the next frame yet.
  kFrame,     ///< `out` holds a complete frame.
  kError,     ///< stream is corrupt; the connection must be closed.
};

/// Incremental frame decoder. Feed bytes with append(); pull frames with
/// next(). After kError the reader stays in the error state (a corrupt
/// stream has no recoverable frame boundary).
class FrameReader {
 public:
  void append(const char* data, std::size_t n);
  DecodeStatus next(Frame& out, std::string* error = nullptr);
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool broken_ = false;
  std::string error_;
};

}  // namespace overcount::net
