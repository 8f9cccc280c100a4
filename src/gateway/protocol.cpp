#include "gateway/protocol.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace vwr2a::gateway {

namespace {

// --- little-endian scalar append ---------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}
void put_samples(std::vector<std::uint8_t>& out,
                 const std::vector<std::int32_t>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (std::int32_t x : v) put_u32(out, static_cast<std::uint32_t>(x));
}

// --- bounds-checked payload cursor -------------------------------------------

/// Reads one frame's payload. Every accessor checks the remaining length
/// first, so a lying length prefix can never cause an over-read.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}

  std::size_t remaining() const { return n_ - off_; }

  std::uint8_t u8() {
    need(1);
    return p_[off_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(p_[off_]) |
                      static_cast<std::uint16_t>(p_[off_ + 1]) << 8;
    off_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p_[off_ + i]) << (8 * i);
    }
    off_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p_[off_ + i]) << (8 * i);
    }
    off_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string string() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return s;
  }
  std::vector<std::int32_t> samples() {
    const std::uint32_t count = u32();
    // The count is validated against the *actual* remaining bytes before
    // any allocation: a frame claiming 2^31 samples in a 10-byte payload
    // is rejected here, not in the allocator.
    if (remaining() / 4 < count) {
      throw ProtocolError("gateway: sample array overruns its frame");
    }
    std::vector<std::int32_t> v(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      v[i] = static_cast<std::int32_t>(u32());
    }
    return v;
  }
  /// Strict framing: the payload must be consumed exactly.
  void done() const {
    if (off_ != n_) {
      throw ProtocolError("gateway: trailing bytes in frame payload");
    }
  }

 private:
  void need(std::size_t k) const {
    if (n_ - off_ < k) {
      throw ProtocolError("gateway: frame payload truncated");
    }
  }
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

// The STATS entry list appears in two frames (STATS and STATS_PUSH); one
// reader/writer pair keeps them from drifting.
Stats read_stats(Reader& r) {
  const std::uint32_t count = r.u32();
  // An entry is at least 13 bytes (empty name: u32 length + u8 kind + u64
  // value), so the count is checked against the actual remaining bytes
  // before any allocation.
  if (r.remaining() / 13 < count) {
    throw ProtocolError("gateway: stats entry list overruns its frame");
  }
  Stats f;
  f.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StatEntry e;
    e.name = r.string();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(MetricKind::kReal)) {
      throw ProtocolError("gateway: unknown stats entry kind");
    }
    e.kind = static_cast<MetricKind>(kind);
    e.value = r.u64();
    f.entries.push_back(std::move(e));
  }
  return f;
}

void put_stats(std::vector<std::uint8_t>& out, const Stats& v) {
  put_u32(out, static_cast<std::uint32_t>(v.entries.size()));
  for (const StatEntry& e : v.entries) {
    put_string(out, e.name);
    put_u8(out, static_cast<std::uint8_t>(e.kind));
    put_u64(out, e.value);
  }
}

Frame decode_payload(FrameType type, Reader& r) {
  switch (type) {
    case FrameType::kOpenSession: {
      OpenSession f;
      f.stream = r.u32();
      f.tenant = r.u32();
      f.kind = r.u8();
      f.target = r.u8();
      f.lossy = r.u8();
      f.window = r.u32();
      f.hop = r.u32();
      f.max_inflight = r.u32();
      f.buffer_capacity = r.u32();
      return f;
    }
    case FrameType::kPushSamples: {
      PushSamples f;
      f.stream = r.u32();
      f.samples = r.samples();
      return f;
    }
    case FrameType::kFlush:
      return Flush{r.u32()};
    case FrameType::kClose:
      return Close{r.u32()};
    case FrameType::kStatsRequest:
      return StatsRequest{};
    case FrameType::kOpenOk: {
      OpenOk f;
      f.stream = r.u32();
      f.session = r.u64();
      f.device = r.u32();
      return f;
    }
    case FrameType::kWindowResult: {
      WindowResult f;
      f.stream = r.u32();
      f.index = r.u64();
      f.device = r.u32();
      f.cycles = r.u64();
      f.pj = r.f64();
      f.output = r.samples();
      f.queue_ns = r.u64();
      f.run_ns = r.u64();
      f.deliver_ns = r.u64();
      f.place_cycles = r.u64();
      f.sim_begin = r.u64();
      return f;
    }
    case FrameType::kFlushOk: {
      FlushOk f;
      f.stream = r.u32();
      f.windows_delivered = r.u64();
      return f;
    }
    case FrameType::kCloseOk: {
      CloseOk f;
      f.stream = r.u32();
      f.windows_submitted = r.u64();
      f.windows_delivered = r.u64();
      f.windows_failed = r.u64();
      f.samples_in = r.u64();
      f.dropped_samples = r.u64();
      f.dropped_pushes = r.u64();
      f.latency_cycles_total = r.u64();
      f.latency_cycles_max = r.u64();
      return f;
    }
    case FrameType::kStats:
      return read_stats(r);
    case FrameType::kError: {
      Error f;
      f.stream = r.u32();
      f.code = r.u16();
      f.message = r.string();
      return f;
    }
    case FrameType::kStatsSubscribe: {
      StatsSubscribe f;
      f.cadence_ms = r.u32();
      f.enable = r.u8();
      return f;
    }
    case FrameType::kStatsPush: {
      StatsPush f;
      f.seq = r.u64();
      f.stats = read_stats(r);
      // Both array counts are validated against the actual remaining bytes
      // before any allocation (DeviceLoad = 17 bytes, SessionLoad = 44).
      const std::uint32_t ndev = r.u32();
      if (r.remaining() / 17 < ndev) {
        throw ProtocolError("gateway: device-load array overruns its frame");
      }
      f.devices.reserve(ndev);
      for (std::uint32_t i = 0; i < ndev; ++i) {
        DeviceLoad d;
        d.cycles = r.u64();
        d.jobs = r.u64();
        d.dead = r.u8();
        f.devices.push_back(d);
      }
      const std::uint32_t nses = r.u32();
      if (r.remaining() / 44 < nses) {
        throw ProtocolError("gateway: session-load array overruns its frame");
      }
      f.sessions.reserve(nses);
      for (std::uint32_t i = 0; i < nses; ++i) {
        SessionLoad l;
        l.id = r.u64();
        l.device = r.u32();
        l.windows_submitted = r.u64();
        l.windows_delivered = r.u64();
        l.dropped_samples = r.u64();
        l.latency_cycles_total = r.u64();
        f.sessions.push_back(l);
      }
      return f;
    }
  }
  throw ProtocolError("gateway: unknown frame type", ErrorCode::kUnknownType);
}

void encode_payload(const Frame& f, std::vector<std::uint8_t>& out) {
  std::visit(
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, OpenSession>) {
          put_u32(out, v.stream);
          put_u32(out, v.tenant);
          put_u8(out, v.kind);
          put_u8(out, v.target);
          put_u8(out, v.lossy);
          put_u32(out, v.window);
          put_u32(out, v.hop);
          put_u32(out, v.max_inflight);
          put_u32(out, v.buffer_capacity);
        } else if constexpr (std::is_same_v<T, PushSamples>) {
          put_u32(out, v.stream);
          put_samples(out, v.samples);
        } else if constexpr (std::is_same_v<T, Flush>) {
          put_u32(out, v.stream);
        } else if constexpr (std::is_same_v<T, Close>) {
          put_u32(out, v.stream);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          // empty payload
        } else if constexpr (std::is_same_v<T, OpenOk>) {
          put_u32(out, v.stream);
          put_u64(out, v.session);
          put_u32(out, v.device);
        } else if constexpr (std::is_same_v<T, WindowResult>) {
          put_u32(out, v.stream);
          put_u64(out, v.index);
          put_u32(out, v.device);
          put_u64(out, v.cycles);
          put_f64(out, v.pj);
          put_samples(out, v.output);
          put_u64(out, v.queue_ns);
          put_u64(out, v.run_ns);
          put_u64(out, v.deliver_ns);
          put_u64(out, v.place_cycles);
          put_u64(out, v.sim_begin);
        } else if constexpr (std::is_same_v<T, FlushOk>) {
          put_u32(out, v.stream);
          put_u64(out, v.windows_delivered);
        } else if constexpr (std::is_same_v<T, CloseOk>) {
          put_u32(out, v.stream);
          put_u64(out, v.windows_submitted);
          put_u64(out, v.windows_delivered);
          put_u64(out, v.windows_failed);
          put_u64(out, v.samples_in);
          put_u64(out, v.dropped_samples);
          put_u64(out, v.dropped_pushes);
          put_u64(out, v.latency_cycles_total);
          put_u64(out, v.latency_cycles_max);
        } else if constexpr (std::is_same_v<T, Stats>) {
          put_stats(out, v);
        } else if constexpr (std::is_same_v<T, StatsSubscribe>) {
          put_u32(out, v.cadence_ms);
          put_u8(out, v.enable);
        } else if constexpr (std::is_same_v<T, StatsPush>) {
          put_u64(out, v.seq);
          put_stats(out, v.stats);
          put_u32(out, static_cast<std::uint32_t>(v.devices.size()));
          for (const DeviceLoad& d : v.devices) {
            put_u64(out, d.cycles);
            put_u64(out, d.jobs);
            put_u8(out, d.dead);
          }
          put_u32(out, static_cast<std::uint32_t>(v.sessions.size()));
          for (const SessionLoad& l : v.sessions) {
            put_u64(out, l.id);
            put_u32(out, l.device);
            put_u64(out, l.windows_submitted);
            put_u64(out, l.windows_delivered);
            put_u64(out, l.dropped_samples);
            put_u64(out, l.latency_cycles_total);
          }
        } else {  // Error
          put_u32(out, v.stream);
          put_u16(out, v.code);
          put_string(out, v.message);
        }
      },
      f);
}

} // namespace

double StatEntry::real() const { return std::bit_cast<double>(value); }

const StatEntry& Stats::at(std::string_view name) const {
  for (const StatEntry& e : entries) {
    if (e.name == name) return e;
  }
  throw std::out_of_range("gateway: no stats entry named " +
                          std::string(name));
}

FrameType frame_type(const Frame& f) {
  switch (f.index()) {
    case 0: return FrameType::kOpenSession;
    case 1: return FrameType::kPushSamples;
    case 2: return FrameType::kFlush;
    case 3: return FrameType::kClose;
    case 4: return FrameType::kStatsRequest;
    case 5: return FrameType::kOpenOk;
    case 6: return FrameType::kWindowResult;
    case 7: return FrameType::kFlushOk;
    case 8: return FrameType::kCloseOk;
    case 9: return FrameType::kStats;
    case 10: return FrameType::kError;
    case 11: return FrameType::kStatsSubscribe;
    default: return FrameType::kStatsPush;
  }
}

void encode(const Frame& f, std::vector<std::uint8_t>& out) {
  const std::size_t len_at = out.size();
  put_u32(out, 0);  // patched below
  put_u8(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(frame_type(f)));
  encode_payload(f, out);
  const std::size_t body = out.size() - len_at - 4;  // ver + type + payload
  if (body - 2 > kMaxFramePayload) {
    throw ProtocolError("gateway: frame payload exceeds kMaxFramePayload");
  }
  const auto len = static_cast<std::uint32_t>(body);
  for (int i = 0; i < 4; ++i) {
    out[len_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

std::vector<std::uint8_t> encode(const Frame& f) {
  std::vector<std::uint8_t> out;
  encode(f, out);
  return out;
}

void Decoder::feed(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates, so the buffer stays
  // O(one frame + one receive chunk).
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> Decoder::next() {
  if (poisoned_) {
    throw ProtocolError("gateway: decoder poisoned by an earlier bad frame");
  }
  if (buffered() < 4) return std::nullopt;
  const std::uint8_t* p = buf_.data() + pos_;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  if (len < 2 || len - 2 > kMaxFramePayload) {
    poisoned_ = true;
    throw ProtocolError("gateway: frame length prefix out of bounds");
  }
  if (buffered() < 4ull + len) return std::nullopt;
  try {
    const std::uint8_t ver = p[4];
    if (ver != kProtocolVersion) {
      throw ProtocolError("gateway: protocol version mismatch",
                          ErrorCode::kBadVersion);
    }
    const auto type = static_cast<FrameType>(p[5]);
    Reader r(p + 6, len - 2);
    Frame f = decode_payload(type, r);
    r.done();
    pos_ += 4ull + len;
    return f;
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

} // namespace vwr2a::gateway
