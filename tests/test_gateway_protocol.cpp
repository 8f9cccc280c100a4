// Gateway frame codec: round-trip property tests for every frame type
// (random payloads, chunked incremental feeding) and decoder hardening --
// truncated, oversized, corrupted and random byte streams must raise
// ProtocolError (or wait for more bytes), never crash, over-read, or
// blow up an allocation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "gateway/protocol.hpp"

// The largest single heap allocation since the last reset: the hostile-input
// tests below prove that a lying count is rejected before it reaches the
// allocator.
namespace {
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

// All three stay out of line: inlined, GCC sees the malloc and free behind
// new and delete and warns of a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, n,
                                                std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vwr2a::gateway {
namespace {

/// A STATS frame (header + `payload`), bypassing the encoder.
std::vector<std::uint8_t> stats_frame(
    const std::vector<std::uint8_t>& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size() + 2);
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  wire.push_back(kProtocolVersion);
  wire.push_back(static_cast<std::uint8_t>(FrameType::kStats));
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

/// Decodes `wire` expecting ProtocolError; returns the largest allocation
/// made on the way.
std::size_t largest_alloc_rejecting(const std::vector<std::uint8_t>& wire) {
  Decoder dec;
  dec.feed(wire);
  g_largest_alloc.store(0);
  EXPECT_THROW(dec.next(), ProtocolError);
  return g_largest_alloc.load();
}

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

/// 0-40 entries with random names (any bytes), kinds and values; a kReal
/// value is a random bit pattern, NaNs included.
Stats random_stats(Rng& rng) {
  Stats f;
  f.entries.resize(rng.next_below(41));
  for (StatEntry& e : f.entries) {
    e.name = random_string(rng, 30);
    e.kind = static_cast<MetricKind>(rng.next_below(3));
    e.value = rng.next_u64();
  }
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

TEST(GatewayProtocol, RoundTripsEveryFrameType) {
  Rng rng(11001);
  for (unsigned i = 0; i < 220; ++i) {
    const Frame want = random_frame(rng, i);
    Decoder dec;
    dec.feed(encode(want));
    const auto got = dec.next();
    ASSERT_TRUE(got.has_value()) << "frame " << i;
    EXPECT_TRUE(want == *got) << "frame " << i;
    // Canonical encoding: the journal re-encodes decoded frames and relies
    // on getting the peer's bytes back.
    EXPECT_EQ(encode(*got), encode(want)) << "frame " << i;
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
      EXPECT_TRUE(want[i] == got[i])
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
  push.stats.entries = {{"devices", MetricKind::kGauge, 4},
                        {"total_pj", MetricKind::kReal, 0x4010000000000000}};
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

TEST(GatewayProtocol, StatsEntryCountBeyondThePayloadIsRejected) {
  // count = 0xffffffff in a 10-byte payload: rejected by the
  // count-vs-remaining check, before reserve() sees the count.
  const std::size_t largest = largest_alloc_rejecting(
      stats_frame({0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6}));
  EXPECT_LT(largest, 1024u);
}

TEST(GatewayProtocol, StatsEntryWithUnknownKindIsRejected) {
  Stats st;
  st.entries = {{"jobs_completed", MetricKind::kCounter, 5}};
  std::vector<std::uint8_t> wire = encode(st);
  // Header 6 + count 4 + name length 4 + 14 name bytes: the kind byte.
  const std::size_t kind_at = 6 + 4 + 4 + st.entries[0].name.size();
  ASSERT_EQ(wire[kind_at], 0u);
  wire[kind_at] = 3;
  EXPECT_LT(largest_alloc_rejecting(wire), 1024u);
}

TEST(GatewayProtocol, StatsTruncatedInsideAnEntryIsRejected) {
  // Cut a three-entry STATS at every byte: each cut lands inside the count
  // or inside an entry and must throw without allocating for entries the
  // payload cannot hold.
  Stats st;
  st.entries = {{"devices", MetricKind::kGauge, 4},
                {"total_pj", MetricKind::kReal, 0x400921fb54442d18},
                {"jobs_completed", MetricKind::kCounter, 99}};
  const std::vector<std::uint8_t> full = encode(st);
  const std::vector<std::uint8_t> payload(full.begin() + 6, full.end());
  for (std::size_t keep = 0; keep < payload.size(); ++keep) {
    const std::size_t largest = largest_alloc_rejecting(stats_frame(
        {payload.begin(), payload.begin() + static_cast<long>(keep)}));
    EXPECT_LT(largest, 1024u) << "keep " << keep;
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
