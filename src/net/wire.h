// Versioned length-prefixed wire protocol of the ADP network front door.
//
// One frame on the wire is:
//
//   u32 length   little-endian; counts the type byte plus the payload
//   u8  type     FrameType
//   bytes        UTF-8 text payload (length - 1 bytes)
//
// Payloads are text on purpose: every verb reuses the line grammar and
// JSON rendering of src/net/textproto.h, so a request file replayed by
// examples/adp_netclient.cpp is one line per frame, and result bodies are
// the JSON lines it prints. After the HELLO exchange, every
// client-to-server payload starts with a decimal correlation id; the
// server echoes that id as the first token of every frame it sends in
// response, so clients can pipeline requests and match interleaved
// replies. Full grammar, version negotiation, push-stream flow, and
// teardown semantics: docs/PROTOCOL.md (drift-checked against the
// FrameType enum below by tools/check_docs.py).

#ifndef ADP_NET_WIRE_H_
#define ADP_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace adp::net {

/// Protocol versions this build can speak. HELLO carries the client's
/// [min, max] range; the connection proceeds iff it intersects ours.
inline constexpr std::uint32_t kProtocolVersionMin = 1;
inline constexpr std::uint32_t kProtocolVersionMax = 1;

/// Hard cap on one frame's payload (type byte excluded). A length prefix
/// beyond this is a framing error: the server answers kError and closes
/// (resynchronizing inside a corrupt byte stream is not possible).
inline constexpr std::uint32_t kMaxFramePayload = 16u * 1024 * 1024;

/// Frame types. Client-to-server verbs sit below 0x80; server-to-client
/// frames have the high bit set; kError is the shared failure frame.
/// Values are wire-stable: never renumber, only append.
enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 0x01,    // "min max" protocol version range; no correlation id
  kDb = 0x02,       // "<id> DB <name> <Rel>=rows ..." database registration
  kReq = 0x03,      // "<id> REQ <db> <k> [+opt ...] <query>"
  kStream = 0x04,   // "<id> STREAM <db> <k> [+opt ...] <query>"
  kPrepare = 0x05,  // "<id> PREPARE <query>" -> connection-scoped handle
  kExec = 0x06,     // "<id> EXEC <handle> <db> <k> [+opt ...]"
  kCancel = 0x07,   // "<id> CANCEL <target-id>" or "<id> CANCEL" (all)
  kStats = 0x08,    // "<id> STATS"
  kMetrics = 0x09,  // "<id> METRICS"
  kBye = 0x0A,      // "<id> BYE" graceful teardown

  // server -> client
  kHelloOk = 0x81,     // "version" — the negotiated protocol version
  kDbOk = 0x82,        // "<id> {\"db\":...}"
  kResult = 0x83,      // "<id> <result line>" (textproto FormatResponseLine)
  kStreamItem = 0x84,  // "<id> <item line>" pushed as the solve produces
  kStreamEnd = 0x85,   // "<id> <terminal item line>" always the last push
  kPrepared = 0x86,    // "<id> {\"prepared\":handle}"
  kCancelOk = 0x87,    // "<id> {\"cancelled\":n}"
  kStatsText = 0x88,   // "<id> <stats json>"
  kMetricsText = 0x89, // "<id> <Prometheus text>"
  kByeOk = 0x8A,       // "<id>" — server flushes and closes after this
  kError = 0xFF,       // "<id> <STATUS_NAME> <message>" (id 0 if unknown)
};

/// True for the type values the enum actually names (a byte off the wire
/// may be anything).
bool IsKnownFrameType(std::uint8_t type);

/// Splits a "<id> rest" payload: the leading decimal correlation id and
/// the remainder after one space (empty when the payload is just the id).
/// False when the payload does not start with a valid non-negative id.
bool SplitCorrelationId(const std::string& payload, std::int64_t* id,
                        std::string* rest);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Serializes one frame onto `out` (append-only; callers batch frames into
/// one buffer per socket write). Returns false — leaving `out` untouched —
/// when `payload` exceeds kMaxFramePayload: such a frame could never be
/// decoded by a FrameReader, and its u32 length prefix would silently
/// truncate past 4 GiB. Callers must send a (small) error instead.
[[nodiscard]] bool AppendFrame(std::string& out, FrameType type,
                               const std::string& payload);

/// Incremental frame decoder over an arbitrarily-chunked byte stream.
/// Feed() bytes as they arrive, then Next() until empty. A length prefix
/// exceeding kMaxFramePayload + 1 poisons the reader (bad() becomes true
/// and Next() returns nothing): the stream cannot be resynchronized and
/// the connection must be dropped.
class FrameReader {
 public:
  /// Appends raw bytes from the socket.
  void Feed(const char* data, std::size_t n);

  /// The next complete frame, if one is buffered. Unknown type bytes are
  /// returned as-is (type preserved in the Frame) — the server answers
  /// kError per-frame and keeps the connection, since framing is intact.
  std::optional<Frame> Next();

  /// True once the stream is unrecoverable (oversized length prefix).
  bool bad() const { return bad_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool bad_ = false;
};

}  // namespace adp::net

#endif  // ADP_NET_WIRE_H_
