// Gateway frame codec: round-trip property tests for every frame type
// (random payloads, chunked incremental feeding) and decoder hardening --
// truncated, oversized, corrupted and random byte streams must raise
// ProtocolError (or wait for more bytes), never crash, over-read, or
// blow up an allocation.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gateway/protocol.hpp"

namespace vwr2a::gateway {
namespace {

std::vector<std::int32_t> random_samples(Rng& rng, unsigned max_len) {
  std::vector<std::int32_t> v(rng.next_below(max_len + 1));
  for (auto& x : v) {
    x = static_cast<std::int32_t>(rng.next_u32());
  }
  return v;
}

std::string random_string(Rng& rng, unsigned max_len) {
  std::string s(rng.next_below(max_len + 1), '\0');
  for (auto& c : s) {
    c = static_cast<char>(rng.next_below(256));
  }
  return s;
}

Stats random_stats(Rng& rng) {
  Stats f;
  f.devices = rng.next_u32();
  f.sessions = rng.next_u64();
  f.connections = rng.next_u64();
  f.windows_delivered = rng.next_u64();
  f.jobs_completed = rng.next_u64();
  f.jobs_failed = rng.next_u64();
  f.fleet_makespan = rng.next_u64();
  f.total_device_cycles = rng.next_u64();
  f.stagings = rng.next_u64();
  f.total_pj = rng.next_range(0.0, 1e12);
  f.images_hydrated = rng.next_u64();
  f.traces_hydrated = rng.next_u64();
  f.artifact_attached = static_cast<std::uint8_t>(rng.next_below(2));
  f.devices_failed = rng.next_u64();
  f.devices_revived = rng.next_u64();
  f.devices_dead = rng.next_u64();
  f.jobs_rescued = rng.next_u64();
  f.checkpoints_restored = rng.next_u64();
  f.traced_launches = rng.next_u64();
  f.traced_rollbacks = rng.next_u64();
  f.replay_decoupled_cycles = rng.next_u64();
  f.replay_lockstep_cycles = rng.next_u64();
  f.replay_interpreted_cycles = rng.next_u64();
  f.replay_sync_points = rng.next_u64();
  return f;
}

/// One random frame of each wire type, round-robin by `i`.
Frame random_frame(Rng& rng, unsigned i) {
  switch (i % 13) {
    case 0: {
      OpenSession f;
      f.stream = rng.next_u32();
      f.tenant = rng.next_u32();
      f.kind = static_cast<std::uint8_t>(rng.next_below(256));
      f.target = static_cast<std::uint8_t>(rng.next_below(256));
      f.lossy = static_cast<std::uint8_t>(rng.next_below(2));
      f.window = rng.next_u32();
      f.hop = rng.next_u32();
      f.max_inflight = rng.next_u32();
      f.buffer_capacity = rng.next_u32();
      return f;
    }
    case 1:
      return PushSamples{rng.next_u32(), random_samples(rng, 600)};
    case 2:
      return Flush{rng.next_u32()};
    case 3:
      return Close{rng.next_u32()};
    case 4:
      return StatsRequest{};
    case 5:
      return OpenOk{rng.next_u32(), rng.next_u64(), rng.next_u32()};
    case 6: {
      WindowResult f;
      f.stream = rng.next_u32();
      f.index = rng.next_u64();
      f.device = rng.next_u32();
      f.cycles = rng.next_u64();
      f.pj = rng.next_range(-1e9, 1e9);
      f.output = random_samples(rng, 600);
      f.queue_ns = rng.next_u64();
      f.run_ns = rng.next_u64();
      f.deliver_ns = rng.next_u64();
      f.place_cycles = rng.next_u64();
      f.sim_begin = rng.next_u64();
      return f;
    }
    case 7:
      return FlushOk{rng.next_u32(), rng.next_u64()};
    case 8: {
      CloseOk f;
      f.stream = rng.next_u32();
      f.windows_submitted = rng.next_u64();
      f.windows_delivered = rng.next_u64();
      f.windows_failed = rng.next_u64();
      f.samples_in = rng.next_u64();
      f.dropped_samples = rng.next_u64();
      f.dropped_pushes = rng.next_u64();
      f.latency_cycles_total = rng.next_u64();
      f.latency_cycles_max = rng.next_u64();
      return f;
    }
    case 9:
      return random_stats(rng);
    case 10: {
      Error f;
      f.stream = rng.next_u32();
      f.code = static_cast<std::uint16_t>(rng.next_below(1u << 16));
      f.message = random_string(rng, 120);
      return f;
    }
    case 11: {
      StatsSubscribe f;
      f.cadence_ms = rng.next_u32();
      f.enable = static_cast<std::uint8_t>(rng.next_below(2));
      return f;
    }
    default: {
      StatsPush f;
      f.seq = rng.next_u64();
      f.stats = random_stats(rng);
      f.devices.resize(rng.next_below(9));
      for (auto& d : f.devices) {
        d.cycles = rng.next_u64();
        d.jobs = rng.next_u64();
        d.dead = static_cast<std::uint8_t>(rng.next_below(2));
      }
      f.sessions.resize(rng.next_below(9));
      for (auto& s : f.sessions) {
        s.id = rng.next_u64();
        s.device = rng.next_u32();
        s.windows_submitted = rng.next_u64();
        s.windows_delivered = rng.next_u64();
        s.dropped_samples = rng.next_u64();
        s.latency_cycles_total = rng.next_u64();
      }
      return f;
    }
  }
}

bool stats_equal(const Stats& x, const Stats& y) {
  return x.devices == y.devices && x.sessions == y.sessions &&
         x.connections == y.connections &&
         x.windows_delivered == y.windows_delivered &&
         x.jobs_completed == y.jobs_completed &&
         x.jobs_failed == y.jobs_failed &&
         x.fleet_makespan == y.fleet_makespan &&
         x.total_device_cycles == y.total_device_cycles &&
         x.stagings == y.stagings && x.total_pj == y.total_pj &&
         x.images_hydrated == y.images_hydrated &&
         x.traces_hydrated == y.traces_hydrated &&
         x.artifact_attached == y.artifact_attached &&
         x.devices_failed == y.devices_failed &&
         x.devices_revived == y.devices_revived &&
         x.devices_dead == y.devices_dead && x.jobs_rescued == y.jobs_rescued &&
         x.checkpoints_restored == y.checkpoints_restored &&
         x.traced_launches == y.traced_launches &&
         x.traced_rollbacks == y.traced_rollbacks &&
         x.replay_decoupled_cycles == y.replay_decoupled_cycles &&
         x.replay_lockstep_cycles == y.replay_lockstep_cycles &&
         x.replay_interpreted_cycles == y.replay_interpreted_cycles &&
         x.replay_sync_points == y.replay_sync_points;
}

bool frames_equal(const Frame& a, const Frame& b) {
  if (a.index() != b.index()) return false;
  bool eq = false;
  std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        const auto& y = std::get<T>(b);
        if constexpr (std::is_same_v<T, OpenSession>) {
          eq = x.stream == y.stream && x.tenant == y.tenant &&
               x.kind == y.kind && x.target == y.target &&
               x.lossy == y.lossy && x.window == y.window && x.hop == y.hop &&
               x.max_inflight == y.max_inflight &&
               x.buffer_capacity == y.buffer_capacity;
        } else if constexpr (std::is_same_v<T, PushSamples>) {
          eq = x.stream == y.stream && x.samples == y.samples;
        } else if constexpr (std::is_same_v<T, Flush>) {
          eq = x.stream == y.stream;
        } else if constexpr (std::is_same_v<T, Close>) {
          eq = x.stream == y.stream;
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          eq = true;
        } else if constexpr (std::is_same_v<T, OpenOk>) {
          eq = x.stream == y.stream && x.session == y.session &&
               x.device == y.device;
        } else if constexpr (std::is_same_v<T, WindowResult>) {
          eq = x.stream == y.stream && x.index == y.index &&
               x.device == y.device && x.cycles == y.cycles && x.pj == y.pj &&
               x.output == y.output && x.queue_ns == y.queue_ns &&
               x.run_ns == y.run_ns && x.deliver_ns == y.deliver_ns &&
               x.place_cycles == y.place_cycles && x.sim_begin == y.sim_begin;
        } else if constexpr (std::is_same_v<T, FlushOk>) {
          eq = x.stream == y.stream &&
               x.windows_delivered == y.windows_delivered;
        } else if constexpr (std::is_same_v<T, CloseOk>) {
          eq = x.stream == y.stream &&
               x.windows_submitted == y.windows_submitted &&
               x.windows_delivered == y.windows_delivered &&
               x.windows_failed == y.windows_failed &&
               x.samples_in == y.samples_in &&
               x.dropped_samples == y.dropped_samples &&
               x.dropped_pushes == y.dropped_pushes &&
               x.latency_cycles_total == y.latency_cycles_total &&
               x.latency_cycles_max == y.latency_cycles_max;
        } else if constexpr (std::is_same_v<T, Stats>) {
          eq = stats_equal(x, y);
        } else if constexpr (std::is_same_v<T, StatsSubscribe>) {
          eq = x.cadence_ms == y.cadence_ms && x.enable == y.enable;
        } else if constexpr (std::is_same_v<T, StatsPush>) {
          eq = x.seq == y.seq && stats_equal(x.stats, y.stats) &&
               x.devices.size() == y.devices.size() &&
               x.sessions.size() == y.sessions.size();
          for (std::size_t j = 0; eq && j < x.devices.size(); ++j) {
            eq = x.devices[j].cycles == y.devices[j].cycles &&
                 x.devices[j].jobs == y.devices[j].jobs &&
                 x.devices[j].dead == y.devices[j].dead;
          }
          for (std::size_t j = 0; eq && j < x.sessions.size(); ++j) {
            eq = x.sessions[j].id == y.sessions[j].id &&
                 x.sessions[j].device == y.sessions[j].device &&
                 x.sessions[j].windows_submitted ==
                     y.sessions[j].windows_submitted &&
                 x.sessions[j].windows_delivered ==
                     y.sessions[j].windows_delivered &&
                 x.sessions[j].dropped_samples ==
                     y.sessions[j].dropped_samples &&
                 x.sessions[j].latency_cycles_total ==
                     y.sessions[j].latency_cycles_total;
          }
        } else {  // Error
          eq = x.stream == y.stream && x.code == y.code &&
               x.message == y.message;
        }
      },
      a);
  return eq;
}

TEST(GatewayProtocol, RoundTripsEveryFrameType) {
  Rng rng(11001);
  for (unsigned i = 0; i < 220; ++i) {
    const Frame want = random_frame(rng, i);
    Decoder dec;
    dec.feed(encode(want));
    const auto got = dec.next();
    ASSERT_TRUE(got.has_value()) << "frame " << i;
    EXPECT_TRUE(frames_equal(want, *got)) << "frame " << i;
    EXPECT_EQ(dec.buffered(), 0u) << "frame " << i;
    EXPECT_FALSE(dec.next().has_value());
  }
}

TEST(GatewayProtocol, DecodesByteAtATimeAndInBursts) {
  // The incremental decoder must produce the same frames regardless of how
  // the byte stream is chunked.
  Rng rng(11002);
  std::vector<Frame> want;
  std::vector<std::uint8_t> wire;
  for (unsigned i = 0; i < 22; ++i) {
    want.push_back(random_frame(rng, i));
    encode(want.back(), wire);
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{17}, wire.size()}) {
    Decoder dec;
    std::vector<Frame> got;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      const std::size_t n = std::min(chunk, wire.size() - off);
      dec.feed(wire.data() + off, n);
      while (auto f = dec.next()) got.push_back(std::move(*f));
    }
    ASSERT_EQ(got.size(), want.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(frames_equal(want[i], got[i]))
          << "chunk " << chunk << " frame " << i;
    }
  }
}

TEST(GatewayProtocol, IncompleteFrameWaitsForMoreBytes) {
  const std::vector<std::uint8_t> wire =
      encode(PushSamples{7, {1, 2, 3, 4, 5}});
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Decoder dec;
    dec.feed(wire.data(), cut);
    EXPECT_FALSE(dec.next().has_value()) << "cut " << cut;  // never throws
    dec.feed(wire.data() + cut, wire.size() - cut);
    EXPECT_TRUE(dec.next().has_value()) << "cut " << cut;
  }
}

TEST(GatewayProtocol, RejectsOversizedLengthPrefixBeforeAllocating) {
  // length = 0xffffffff: must throw on the 4-byte prefix alone, without
  // waiting for (or allocating) 4 GiB.
  Decoder dec;
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  dec.feed(huge, sizeof huge);
  EXPECT_THROW(dec.next(), ProtocolError);
  // Poisoned: connection-fatal semantics.
  EXPECT_THROW(dec.next(), ProtocolError);
}

TEST(GatewayProtocol, RejectsRuntLengthPrefix) {
  Decoder dec;
  const std::uint8_t runt[4] = {1, 0, 0, 0};  // length 1 < ver + type
  dec.feed(runt, sizeof runt);
  EXPECT_THROW(dec.next(), ProtocolError);
}

TEST(GatewayProtocol, RejectsBadVersionAndUnknownType) {
  {
    std::vector<std::uint8_t> wire = encode(Flush{1});
    wire[4] = kProtocolVersion + 1;
    Decoder dec;
    dec.feed(wire);
    try {
      dec.next();
      FAIL() << "bad version accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, ErrorCode::kBadVersion);
    }
  }
  {
    std::vector<std::uint8_t> wire = encode(Flush{1});
    wire[5] = 0x7f;  // no such frame type
    Decoder dec;
    dec.feed(wire);
    try {
      dec.next();
      FAIL() << "unknown type accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, ErrorCode::kUnknownType);
    }
  }
}

TEST(GatewayProtocol, RejectsLyingArrayCountWithoutOverReading) {
  // A PUSH_SAMPLES frame whose sample count claims more than the payload
  // holds: the decoder must reject it before touching bytes past the
  // frame (or allocating count * 4).
  std::vector<std::uint8_t> wire = encode(PushSamples{9, {1, 2, 3}});
  // Patch the count field (payload offset: stream u32 -> count at +4;
  // frame header is 6 bytes).
  wire[10] = 0xff;
  wire[11] = 0xff;
  wire[12] = 0xff;
  wire[13] = 0x7f;
  Decoder dec;
  dec.feed(wire);
  EXPECT_THROW(dec.next(), ProtocolError);
}

TEST(GatewayProtocol, RejectsTrailingBytesInsidePayload) {
  // A frame longer than its payload needs: strict framing rejects it.
  std::vector<std::uint8_t> wire = encode(Flush{3});
  wire.push_back(0xab);                // extra payload byte...
  wire[0] = static_cast<std::uint8_t>(wire[0] + 1);  // ...covered by length
  Decoder dec;
  dec.feed(wire);
  EXPECT_THROW(dec.next(), ProtocolError);
}

TEST(GatewayProtocol, TruncatedPayloadFieldsThrowNotCrash) {
  // Chop a valid frame's length prefix down so the payload ends mid-field:
  // every cut must throw (truncated read), never crash.
  const std::vector<std::uint8_t> full = encode(
      WindowResult{5, 123, 2, 456, 1.5, {10, 20, 30}});
  const std::size_t payload = full.size() - 6;
  for (std::size_t keep = 0; keep < payload; ++keep) {
    std::vector<std::uint8_t> wire(full.begin(),
                                   full.begin() + 6 + static_cast<long>(keep));
    const auto len = static_cast<std::uint32_t>(keep + 2);
    for (int i = 0; i < 4; ++i) {
      wire[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
    Decoder dec;
    dec.feed(wire);
    EXPECT_THROW(dec.next(), ProtocolError) << "keep " << keep;
  }
}

TEST(GatewayProtocol, TruncatedStatsPushThrowsNotCrash) {
  // Same cut-everywhere sweep over a v4 STATS_PUSH: every truncation must
  // hit the count-vs-remaining validation (or a truncated scalar read) and
  // throw before allocating either load array.
  StatsPush push;
  push.seq = 7;
  push.stats.devices = 4;
  push.devices.resize(3);
  push.sessions.resize(2);
  const std::vector<std::uint8_t> full = encode(push);
  const std::size_t payload = full.size() - 6;
  for (std::size_t keep = 0; keep < payload; ++keep) {
    std::vector<std::uint8_t> wire(full.begin(),
                                   full.begin() + 6 + static_cast<long>(keep));
    const auto len = static_cast<std::uint32_t>(keep + 2);
    for (int i = 0; i < 4; ++i) {
      wire[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
    Decoder dec;
    dec.feed(wire);
    EXPECT_THROW(dec.next(), ProtocolError) << "keep " << keep;
  }
}

TEST(GatewayProtocol, RandomByteFuzzNeverCrashes) {
  // Pure noise: the decoder either waits for more, yields a (meaningless
  // but type-safe) frame, or throws ProtocolError. 2k streams.
  Rng rng(11003);
  for (unsigned round = 0; round < 2000; ++round) {
    Decoder dec;
    const unsigned len = 1 + rng.next_below(200);
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    // Bias some prefixes toward plausible headers so deeper paths fuzz too.
    if (round % 4 == 0 && junk.size() >= 6) {
      junk[0] = static_cast<std::uint8_t>(junk.size() - 4);
      junk[1] = junk[2] = junk[3] = 0;
      junk[4] = kProtocolVersion;
      junk[5] = static_cast<std::uint8_t>(1 + rng.next_below(12));
    }
    dec.feed(junk);
    try {
      while (dec.next().has_value()) {
      }
    } catch (const ProtocolError&) {
      // fine: rejected
    }
  }
}

TEST(GatewayProtocol, CorruptedFrameFuzzRoundTrips) {
  // Flip one byte of a valid frame anywhere: decode must yield a frame,
  // wait, or throw -- never crash; and an untouched second frame after a
  // *non-header* corruption inside the first must not be misframed when
  // the first still parses.
  Rng rng(11004);
  for (unsigned round = 0; round < 800; ++round) {
    const Frame f = random_frame(rng, round);
    std::vector<std::uint8_t> wire = encode(f);
    const std::size_t at = rng.next_below(static_cast<unsigned>(wire.size()));
    wire[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    Decoder dec;
    dec.feed(wire);
    try {
      while (dec.next().has_value()) {
      }
    } catch (const ProtocolError&) {
    }
  }
}

} // namespace
} // namespace vwr2a::gateway
