// Flight recorder and metrics registry: counter exactness under concurrent
// recorders, histogram quantile bounds, Prometheus exposition, the
// disabled-mode no-op guarantees, ring-buffer drop-oldest semantics with
// exact drop accounting, capture save/load round-trips and Chrome JSON
// export, and -- the end-to-end gate -- cross-thread window-chain
// reconstruction under 8 concurrent gateway-style sessions.
//
// Tests here mutate the process-wide obs flags; each one that enables
// metrics/tracing restores the disabled default and resets the singletons
// on exit so test order never matters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dsp/signal.hpp"
#include "obs/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "stream/server.hpp"

namespace vwr2a::obs {
namespace {

/// Enables the requested features for one test and restores the disabled
/// default (plus clean singletons) afterwards.
struct ObsScope {
  explicit ObsScope(bool metrics, bool tracing) {
    Registry::get().reset();
    Tracer::get().reset();
    set_metrics(metrics);
    set_tracing(tracing);
  }
  ~ObsScope() {
    set_metrics(false);
    set_tracing(false);
    Registry::get().reset();
    Tracer::get().reset();
  }
};

TEST(ObsMetrics, CounterIsExactAcrossEightThreads) {
  ObsScope scope(true, false);
  Counter& c = Registry::get().counter("test.exact");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 50000;
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(ObsMetrics, HistogramQuantileNeverUnderstates) {
  ObsScope scope(true, false);
  Histogram& h = Registry::get().histogram("test.quantile");
  // 1..1000 uniformly: p50's true value is 500, p99's is 990. The
  // log-bucketed estimate reports the bucket's inclusive upper bound, so
  // it must be >= the true value and within the 12.5% bucket resolution.
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  const std::uint64_t p50 = h.quantile(0.50);
  const std::uint64_t p99 = h.quantile(0.99);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 500u + 500u / 8 + 1);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 990u + 990u / 8 + 1);
  // Exact small-value buckets: a histogram of {0..7} reports exactly.
  Histogram& small = Registry::get().histogram("test.quantile_small");
  for (std::uint64_t v = 0; v < 8; ++v) small.record(v);
  EXPECT_EQ(small.quantile(0.0), 0u);
  EXPECT_EQ(small.quantile(1.0), 7u);
}

TEST(ObsMetrics, HistogramBucketBoundsArePerBucketInvariants) {
  // Every value lands in a bucket whose inclusive upper bound is >= the
  // value and less than 25% above it (exact below 8; the worst case is a
  // value just past a power of two, where the bucket spans value/4).
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 100ull, 1000ull,
                          (1ull << 32) + 12345ull, ~0ull}) {
    const std::size_t b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kBuckets);
    const std::uint64_t hi = Histogram::bucket_upper(b);
    EXPECT_GE(hi, v);
    if (v >= 8 && hi != ~0ull) {
      EXPECT_LT(static_cast<double>(hi - v), static_cast<double>(v) * 0.25);
    }
  }
}

TEST(ObsMetrics, PrometheusDumpSanitizesAndSummarizes) {
  ObsScope scope(true, false);
  Registry::get().counter("test.3.windows").add(7);
  Registry::get().gauge("completer.queue_depth").set(-2);
  Histogram& h = Registry::get().histogram("session.latency_cycles");
  h.record(100);
  h.record(200);
  const std::string dump = Registry::get().dump_prometheus();
  EXPECT_NE(dump.find("test_3_windows 7"), std::string::npos);
  EXPECT_NE(dump.find("completer_queue_depth -2"), std::string::npos);
  EXPECT_NE(dump.find("session_latency_cycles_count 2"), std::string::npos);
  EXPECT_NE(dump.find("session_latency_cycles_sum 300"), std::string::npos);
  EXPECT_NE(dump.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_EQ(dump.find("test.3"), std::string::npos);  // dots sanitized
}

TEST(ObsMetrics, HistogramQuantileEdgeCases) {
  ObsScope scope(true, false);
  // Empty histogram: every quantile is the documented 0, not a crash or a
  // bucket bound.
  Histogram& empty = Registry::get().histogram("test.empty");
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.quantile(0.0), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.quantile(1.0), 0u);
  // Single sample: every quantile collapses to that sample's bucket bound
  // (exact for small values, never understating for large ones).
  Histogram& one = Registry::get().histogram("test.single");
  one.record(5);
  for (double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(one.quantile(p), 5u) << "p=" << p;
  }
  Histogram& big = Registry::get().histogram("test.single_big");
  big.record(1000);
  EXPECT_GE(big.quantile(0.5), 1000u);
  // Reset brings the quantiles back to the empty answer.
  one.reset();
  EXPECT_EQ(one.count(), 0u);
  EXPECT_EQ(one.quantile(0.5), 0u);
}

TEST(ObsMetrics, PrometheusDumpSurvivesHostileNames) {
  ObsScope scope(true, false);
  // Metric names flow in from wire-visible strings (tenant tags, session
  // labels); everything outside [a-zA-Z0-9_:] must be sanitized and the
  // dump must stay line-structured (no injected newlines or HELP forgery).
  Registry::get().counter("evil\nfake_metric 999").add(1);
  Registry::get().counter("spaced name{label=\"x\"}").add(2);
  Registry::get().counter("dash-dot.mix-9").add(3);
  const std::string dump = Registry::get().dump_prometheus();
  // No raw hostile bytes survive.
  EXPECT_EQ(dump.find("evil\nfake"), std::string::npos);
  EXPECT_EQ(dump.find("fake_metric 999 1"), std::string::npos);
  EXPECT_EQ(dump.find("spaced name"), std::string::npos);
  EXPECT_EQ(dump.find("{label"), std::string::npos);
  EXPECT_NE(dump.find("dash_dot_mix_9 3"), std::string::npos);
  // Every non-comment line is exactly "name[ {...}] value".
  std::size_t start = 0;
  while (start < dump.size()) {
    std::size_t end = dump.find('\n', start);
    if (end == std::string::npos) end = dump.size();
    const std::string line = dump.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    for (char ch : line.substr(0, sp)) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '_' || ch == ':' ||
                      ch == '{' || ch == '}' || ch == '=' || ch == '"' ||
                      ch == '.' || ch == ',';
      EXPECT_TRUE(ok) << "hostile char '" << ch << "' in: " << line;
    }
  }
}

TEST(ObsMetrics, ResetRacingAddStaysInBounds) {
  ObsScope scope(true, false);
  // reset() may race concurrent add()s: the contract is no torn counts and
  // a final value that only reflects post-reset adds that the reset did
  // not consume -- i.e. somewhere in [0, kAdds]. TSan builds of this test
  // are the data-race gate; the bounds check is meaningful everywhere.
  Counter& c = Registry::get().counter("test.reset_race");
  Histogram& h = Registry::get().histogram("test.reset_race_hist");
  constexpr std::uint64_t kAdds = 20000;
  std::thread adder([&c, &h] {
    for (std::uint64_t i = 0; i < kAdds; ++i) {
      c.add(1);
      h.record(i & 1023);
    }
  });
  for (int r = 0; r < 50; ++r) {
    c.reset();
    h.reset();
    EXPECT_LE(c.value(), kAdds);
    EXPECT_LE(h.count(), kAdds);
  }
  adder.join();
  EXPECT_LE(c.value(), kAdds);
  EXPECT_LE(h.count(), kAdds);
  // Quantile on a histogram that was reset mid-stream still answers from
  // whatever landed after the last reset.
  const std::uint64_t q = h.quantile(0.5);
  EXPECT_LE(q, 1023u + 1023u / 8 + 1);
}

TEST(ObsMetrics, DisabledModeRecordsNothingThroughTheSitePattern) {
  ObsScope scope(false, false);
  // The instrumentation-site pattern: guard, then record. With the guard
  // off the counter is never even registered.
  if (metrics_enabled()) {
    Registry::get().counter("test.should_not_exist").add(1);
  }
  for (const auto& e : Registry::get().entries()) {
    EXPECT_EQ(e.name.find("should_not_exist"), std::string::npos);
  }
  // Spans and instants are inert: nothing lands in any ring.
  const std::uint64_t before = Tracer::get().snapshot().events.size();
  {
    Span s("test.span", 42);
    instant("test.instant", 42);
  }
  EXPECT_EQ(Tracer::get().snapshot().events.size(), before);
}

TEST(ObsMetrics, RegistryDoesNotGrowWithSessionCount) {
  // Per-session counts live in SessionStats; the registry holds only
  // process-wide metrics, so 200 sessions (each delivering a window) must
  // register nothing beyond what the first few did.
  ObsScope scope(true, false);
  stream::StreamServer::Config cfg;
  cfg.pool.device_arch = {
      soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache}};
  stream::StreamServer server(cfg);
  dsp::RespirationParams p;
  Rng rng(7200);
  const auto window = dsp::respiration_q16_15(app::kWindow, p, rng);
  auto run_sessions = [&server, &window](unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      stream::Session& s = server.open_session();
      s.push(window);
      s.finish();
    }
  };
  run_sessions(2);
  const std::size_t warm = Registry::get().entries().size();
  EXPECT_GT(warm, 0u);  // the delivery path did record
  run_sessions(200);
  EXPECT_EQ(Registry::get().entries().size(), warm);
}

TEST(ObsTrace, RingOverflowKeepsNewestAndCountsDropsExactly) {
  ObsScope scope(false, true);
  Tracer::get().set_ring_capacity(64);
  // A fresh thread gets the 64-slot ring; emit 200 events: the ring must
  // hold the newest 64 in order and report exactly 136 drops.
  std::thread t([] {
    for (std::uint64_t i = 0; i < 200; ++i) {
      instant("test.overflow", 0, i);
    }
  });
  t.join();
  const Tracer::Snapshot snap = Tracer::get().snapshot();
  std::vector<std::uint64_t> kept;
  for (const TraceEvent& e : snap.events) {
    if (std::string(e.name) == "test.overflow") kept.push_back(e.a1);
  }
  ASSERT_EQ(kept.size(), 64u);
  EXPECT_EQ(snap.dropped, 136u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i], 136 + i);  // oldest-to-newest, newest 64 survive
  }
  Tracer::get().set_ring_capacity(32768);  // restore the default
}

TEST(ObsTrace, CaptureRoundTripsThroughDisk) {
  ObsScope scope(false, true);
  std::thread t([] {
    instant("test.rt_a", window_id(1, 2), 11, 22, 33);
    Span s("test.rt_b", window_id(1, 3));
    s.set_sim(1000, 250);
  });
  t.join();
  const std::string path = ::testing::TempDir() + "obs_roundtrip.vwr2trc";
  std::string why;
  ASSERT_TRUE(Tracer::get().save(path, &why)) << why;
  Capture cap;
  ASSERT_TRUE(load_capture(path, &cap, &why)) << why;
  std::remove(path.c_str());
  ASSERT_EQ(cap.events.size(), 2u);
  const auto& a = cap.events[0];
  const auto& b = cap.events[1];
  EXPECT_EQ(cap.name_of(a), "test.rt_a");
  EXPECT_EQ(a.kind, 1);
  EXPECT_EQ(a.window, window_id(1, 2));
  EXPECT_EQ(a.a1, 11u);
  EXPECT_EQ(a.a3, 33u);
  EXPECT_EQ(cap.name_of(b), "test.rt_b");
  EXPECT_EQ(b.kind, 0);
  EXPECT_EQ(b.sim_begin, 1000u);
  EXPECT_EQ(b.sim_dur, 250u);
  EXPECT_EQ(a.tid, b.tid);

  // Truncated files are rejected, not crashed on.
  const std::string trunc = ::testing::TempDir() + "obs_trunc.vwr2trc";
  ASSERT_TRUE(Tracer::get().save(trunc, &why)) << why;
  {
    std::FILE* f = std::fopen(trunc.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_EQ(std::fclose(f), 0);
    ASSERT_EQ(truncate(trunc.c_str(), size - 7), 0);
  }
  Capture bad;
  EXPECT_FALSE(load_capture(trunc, &bad, &why));
  std::remove(trunc.c_str());
}

TEST(ObsTrace, ChromeJsonCarriesSpansInstantsAndFlows) {
  ObsScope scope(false, true);
  std::thread t([] {
    complete("test.cj_span", window_id(2, 0), now_ns() - 1000, 1000, 5);
    instant("test.cj_instant", window_id(2, 0));
    complete("test.cj_span", window_id(2, 0), now_ns(), 500);
  });
  t.join();
  const Capture cap = to_capture(Tracer::get().snapshot());
  std::ostringstream os;
  write_chrome_json(cap, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_NE(json.find("test.cj_span"), std::string::npos);
}

TEST(ObsTrace, WindowIdPacksSessionAndIndex) {
  EXPECT_EQ(window_session(window_id(0, 0)), 0u);
  EXPECT_EQ(window_index(window_id(0, 0)), 0u);
  EXPECT_EQ(window_session(window_id(41, 1234)), 41u);
  EXPECT_EQ(window_index(window_id(41, 1234)), 1234u);
  EXPECT_NE(window_id(0, 1), window_id(1, 0));
}

TEST(ObsTrace, EightConcurrentSessionsChainAcrossThreads) {
  // The tentpole gate at test scale: 8 producer threads stream windows
  // through a StreamServer with completion lanes while tracing records.
  // Every window's chain must reconstruct completely (push -> slice ->
  // place -> queue -> run -> complete -> deliver), cross >= 3 distinct
  // threads (producer, pool worker, delivery lane), and the summed
  // device.run simulated cycles must equal the sessions' accounted
  // latency_cycles_total -- the tracer and the session counters observe
  // the same simulation.
  ObsScope scope(false, true);
  constexpr unsigned kSessions = 8;
  constexpr unsigned kWindowsPerSession = 3;

  std::vector<stream::SessionStats> session_stats;
  {
    stream::StreamServer::Config cfg;
    cfg.pool.devices = 4;
    cfg.completion_threads = 2;
    for (unsigned d = 0; d < 4; ++d) {
      cfg.pool.device_arch.push_back(
          soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache});
    }
    stream::StreamServer server(cfg);
    std::vector<stream::Session*> sessions;
    for (unsigned i = 0; i < kSessions; ++i) {
      stream::SessionConfig scfg;
      if (i % 2 == 1) scfg.kind = stream::SessionKind::kPipeline;
      sessions.push_back(
          &server.open_session(scfg, [](const stream::WindowResult&) {}));
    }
    std::vector<std::thread> producers;
    for (unsigned i = 0; i < kSessions; ++i) {
      producers.emplace_back([&sessions, i] {
        dsp::RespirationParams p;
        p.breath_hz = 0.2 + 0.03 * i;
        Rng rng(7100 + i);
        const auto signal = dsp::respiration_q16_15(
            kWindowsPerSession * app::kWindow, p, rng);
        for (std::size_t off = 0; off < signal.size(); off += 256) {
          const std::size_t take =
              std::min<std::size_t>(256, signal.size() - off);
          sessions[i]->push(
              std::span<const std::int32_t>(signal).subspan(off, take));
        }
      });
    }
    for (auto& t : producers) t.join();
    server.finish();
    session_stats = server.peek_sessions();
  }

  const Capture cap = to_capture(Tracer::get().snapshot());
  EXPECT_EQ(cap.dropped, 0u);
  const std::vector<WindowChain> chains = analyze_windows(cap);
  ASSERT_EQ(chains.size(),
            std::size_t{kSessions} * kWindowsPerSession);

  std::set<std::uint64_t> sessions_seen;
  std::uint64_t traced_run_cycles = 0;
  for (const WindowChain& c : chains) {
    EXPECT_TRUE(c.complete())
        << "window " << c.window << ": push=" << c.has_push
        << " slice=" << c.has_slice << " place=" << c.has_place
        << " queue=" << c.has_queue << " run=" << c.has_run
        << " complete=" << c.has_complete << " deliver=" << c.has_deliver;
    EXPECT_GE(c.distinct_tids, 3u) << "window " << c.window;
    sessions_seen.insert(window_session(c.window));
    traced_run_cycles += c.run_cycles;
  }
  EXPECT_EQ(sessions_seen.size(), kSessions);

  std::uint64_t accounted_cycles = 0;
  for (const auto& s : session_stats) {
    accounted_cycles += s.latency_cycles_total;
  }
  EXPECT_EQ(traced_run_cycles, accounted_cycles);
}

} // namespace
} // namespace vwr2a::obs
