#pragma once
// The gateway wire protocol: length-prefixed binary frames over any
// byte-stream transport (TCP, in-process loopback). See docs/protocol.md
// for the normative layout. Summary:
//
//   u32 length   payload length + 2, little-endian (bounds the read)
//   u8  version  kProtocolVersion
//   u8  type     FrameType
//   ...          type-specific payload, little-endian scalars
//
// Strings are u32-length-prefixed UTF-8; sample/output arrays are
// u32-count-prefixed arrays of i32. The decoder is incremental (feed bytes
// as they arrive, poll complete frames) and hardened: every read is
// bounds-checked against the declared frame length, a malformed, truncated
// or oversized frame raises ProtocolError -- it never crashes, over-reads,
// or allocates more than kMaxFramePayload + a small constant.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vwr2a::gateway {

/// The versioning byte every frame carries (bumped on breaking changes;
/// docs/protocol.md keeps the version history). v8: STATS and STATS_PUSH
/// carry a self-describing list of named entries, so adding a metric no
/// longer changes the layout.
inline constexpr std::uint8_t kProtocolVersion = 8;
/// Hard bound on one frame's payload; larger length prefixes are rejected
/// before any allocation happens.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;
/// ERROR frames not tied to one stream use this stream id.
inline constexpr std::uint32_t kConnectionStream = 0xffffffffu;

/// Error codes carried by ERROR frames.
enum class ErrorCode : std::uint16_t {
  kBadFrame = 1,        ///< malformed frame from the peer
  kBadVersion = 2,      ///< version byte mismatch
  kUnknownType = 3,     ///< unknown frame type
  kBadParams = 4,       ///< OPEN_SESSION parameters rejected
  kQuotaSessions = 5,   ///< per-tenant or server session cap hit
  kQuotaInflight = 6,   ///< requested max_inflight above the cap
  kQuotaRate = 7,       ///< tenant byte-rate exceeded; frame dropped
  kUnknownStream = 8,   ///< frame names a stream id never opened (or closed)
  kDuplicateStream = 9, ///< OPEN_SESSION reuses a live stream id
  kJobFailed = 10,      ///< a window's job raised on the device
  kShutdown = 11,       ///< server is stopping
};

/// A malformed/truncated/oversized frame (decode side) or an attempt to
/// encode an invalid frame. Carries the ERROR code the gateway reports for
/// it (kBadFrame unless the decoder saw something more specific).
class ProtocolError : public SimError {
 public:
  explicit ProtocolError(const std::string& msg,
                         ErrorCode code = ErrorCode::kBadFrame)
      : SimError(msg), code(code) {}
  ErrorCode code;
};

/// Frame discriminator on the wire.
enum class FrameType : std::uint8_t {
  // client -> server
  kOpenSession = 0x01,
  kPushSamples = 0x02,
  kFlush = 0x03,
  kClose = 0x04,
  kStatsRequest = 0x05,
  kStatsSubscribe = 0x06,
  // server -> client
  kOpenOk = 0x81,
  kWindowResult = 0x82,
  kFlushOk = 0x83,
  kCloseOk = 0x84,
  kStats = 0x85,
  kError = 0x86,
  kStatsPush = 0x87,
};

// --- frame structs ------------------------------------------------------------

/// Opens one logical stream on the connection. `stream` is a client-chosen
/// id, unique among the connection's live streams.
struct OpenSession {
  std::uint32_t stream = 0;
  std::uint32_t tenant = 0;      ///< quota accounting key
  std::uint8_t kind = 0;         ///< stream::SessionKind
  std::uint8_t target = 0;       ///< app::Target for bio sessions
  std::uint8_t lossy = 0;        ///< 1: try_push semantics (drops counted)
  std::uint32_t window = 512;
  std::uint32_t hop = 512;
  std::uint32_t max_inflight = 4;
  std::uint32_t buffer_capacity = 0;  ///< staging samples; 0 = 4 * window
  bool operator==(const OpenSession&) const = default;
};

struct OpenOk {
  std::uint32_t stream = 0;
  std::uint64_t session = 0;  ///< server-side session id
  std::uint32_t device = 0;   ///< soft-pin device the session landed on
  bool operator==(const OpenOk&) const = default;
};

struct PushSamples {
  std::uint32_t stream = 0;
  std::vector<std::int32_t> samples;  ///< 16.15 fixed point
  bool operator==(const PushSamples&) const = default;
};

struct Flush {
  std::uint32_t stream = 0;
  bool operator==(const Flush&) const = default;
};

/// Sent after every window of a FLUSH (full windows + zero-padded tail)
/// has been delivered as WINDOW_RESULT frames.
struct FlushOk {
  std::uint32_t stream = 0;
  std::uint64_t windows_delivered = 0;  ///< stream-lifetime total
  bool operator==(const FlushOk&) const = default;
};

struct Close {
  std::uint32_t stream = 0;
  bool operator==(const Close&) const = default;
};

/// Final per-stream accounting, sent after the stream's last window.
struct CloseOk {
  std::uint32_t stream = 0;
  std::uint64_t windows_submitted = 0;
  std::uint64_t windows_delivered = 0;
  std::uint64_t windows_failed = 0;
  std::uint64_t samples_in = 0;
  std::uint64_t dropped_samples = 0;
  std::uint64_t dropped_pushes = 0;
  std::uint64_t latency_cycles_total = 0;
  std::uint64_t latency_cycles_max = 0;
  bool operator==(const CloseOk&) const = default;
};

struct StatsRequest {
  bool operator==(const StatsRequest&) const = default;
};

/// One named STATS value. For MetricKind::kReal, `value` holds the bit
/// pattern of an f64; otherwise it is the count or level itself.
struct StatEntry {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;

  double real() const;  ///< the f64 of a kReal entry
  bool operator==(const StatEntry&) const = default;
};

/// Server + fleet telemetry (runtime::DevicePool::peek_stats picture: live,
/// non-blocking, batch-boundary freshness). Each entry is one line of the
/// server's stats table (gateway::for_each_stat).
struct Stats {
  std::vector<StatEntry> entries;

  /// The entry named `name`; throws std::out_of_range when absent.
  const StatEntry& at(std::string_view name) const;
  bool operator==(const Stats&) const = default;
};

struct WindowResult {
  std::uint32_t stream = 0;
  std::uint64_t index = 0;   ///< window index within the stream, from 0
  std::uint32_t device = 0;  ///< device the window ran on
  std::uint64_t cycles = 0;  ///< per-window service cost (simulated)
  double pj = 0.0;           ///< per-window energy
  std::vector<std::int32_t> output;  ///< kernel output words
  /// v6 server-side span breakdown, keyed by window_id(session, index)
  /// client-side. All zero when the server's obs spans are off (the
  /// fields still travel -- a v6 frame has one layout). Host spans are
  /// wall-clock ns measured on the server; the two cycle fields are
  /// simulated device-local clocks, the same timebase as `cycles`.
  std::uint64_t queue_ns = 0;      ///< pool submit -> device claimed the job
  std::uint64_t run_ns = 0;        ///< Device::run wall time
  std::uint64_t deliver_ns = 0;    ///< run end -> WINDOW_RESULT enqueued
  std::uint64_t place_cycles = 0;  ///< estimated device backlog at placement
  std::uint64_t sim_begin = 0;     ///< device-local cycle when the run began
  bool operator==(const WindowResult&) const = default;
};

struct Error {
  std::uint32_t stream = kConnectionStream;
  std::uint16_t code = 0;  ///< ErrorCode
  std::string message;
  bool operator==(const Error&) const = default;
};

/// v4: starts (enable=1) or stops (enable=0) server-initiated STATS_PUSH
/// frames on this connection, every `cadence_ms` milliseconds. A fresh
/// subscribe while already subscribed re-configures the cadence. The first
/// push is sent immediately (it doubles as the subscribe ack).
/// enable=1 with cadence_ms=0 is rejected with ERROR kBadParams.
struct StatsSubscribe {
  std::uint32_t cadence_ms = 0;
  std::uint8_t enable = 1;
  bool operator==(const StatsSubscribe&) const = default;
};

/// One device's live load in a STATS_PUSH (index in the array = device id).
struct DeviceLoad {
  std::uint64_t cycles = 0;  ///< device-local clock (simulated)
  std::uint64_t jobs = 0;    ///< jobs completed on this device
  std::uint8_t dead = 0;     ///< 1 while fail-stopped
  bool operator==(const DeviceLoad&) const = default;
};

/// One session's live load in a STATS_PUSH.
struct SessionLoad {
  std::uint64_t id = 0;
  std::uint32_t device = 0;  ///< device of the last delivered window
  std::uint64_t windows_submitted = 0;
  std::uint64_t windows_delivered = 0;
  std::uint64_t dropped_samples = 0;
  std::uint64_t latency_cycles_total = 0;
  bool operator==(const SessionLoad&) const = default;
};

/// v4: server-initiated stats frame. A distinct type from STATS so pushes
/// can never be mistaken for the reply to an in-flight STATS_REQUEST.
/// `sessions` carries at most the newest kMaxSessionLoads sessions.
struct StatsPush {
  static constexpr std::size_t kMaxSessionLoads = 256;
  std::uint64_t seq = 0;  ///< per-connection push counter, from 0
  Stats stats;
  std::vector<DeviceLoad> devices;
  std::vector<SessionLoad> sessions;
  bool operator==(const StatsPush&) const = default;
};

// New frame alternatives are appended (after Error) so Frame::index()
// stays stable for the existing types; frame_type() maps the indices.
using Frame = std::variant<OpenSession, PushSamples, Flush, Close,
                           StatsRequest, OpenOk, WindowResult, FlushOk,
                           CloseOk, Stats, Error, StatsSubscribe, StatsPush>;

/// The FrameType a Frame alternative encodes as.
FrameType frame_type(const Frame& f);

// --- codec --------------------------------------------------------------------

/// Appends `f`'s wire encoding to `out`. Throws ProtocolError if the frame
/// would exceed kMaxFramePayload.
void encode(const Frame& f, std::vector<std::uint8_t>& out);

/// Convenience: encodes into a fresh buffer.
std::vector<std::uint8_t> encode(const Frame& f);

/// Incremental frame decoder: feed arbitrary byte chunks, poll frames.
class Decoder {
 public:
  /// Appends received bytes to the internal buffer.
  void feed(const std::uint8_t* data, std::size_t n);
  void feed(const std::vector<std::uint8_t>& data) {
    feed(data.data(), data.size());
  }

  /// Decodes the next complete frame, or nullopt when more bytes are
  /// needed. Throws ProtocolError on malformed input (oversized length
  /// prefix, bad version, unknown type, payload that under- or over-runs
  /// its declared length); the decoder is then poisoned and every further
  /// call throws, matching connection-fatal semantics.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
};

} // namespace vwr2a::gateway
