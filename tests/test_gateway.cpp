// Gateway end-to-end: loopback and TCP clients against a real fleet.
// Window results must be bit-identical to offline golden runs (and to the
// same workload pushed straight into stream::StreamServer), per-stream
// delivery ordered, admission control and rate quotas enforced with
// deterministic clocks, malformed bytes answered with ERROR frames --
// never a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "app/mbiotracker.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"

namespace vwr2a::gateway {
namespace {

std::vector<std::int32_t> make_stream_samples(std::size_t n, double breath_hz,
                                              unsigned seed) {
  dsp::RespirationParams p;
  p.breath_hz = breath_hz;
  Rng rng(seed);
  return dsp::respiration_q16_15(static_cast<unsigned>(n), p, rng);
}

std::vector<std::vector<std::int32_t>> slice_windows(
    const std::vector<std::int32_t>& samples, unsigned window, unsigned hop,
    bool flush_tail) {
  std::vector<std::vector<std::int32_t>> out;
  std::size_t start = 0;
  while (start + window <= samples.size()) {
    out.emplace_back(samples.begin() + start, samples.begin() + start + window);
    start += hop;
  }
  if (flush_tail && start < samples.size()) {
    std::vector<std::int32_t> tail(samples.begin() + start, samples.end());
    tail.resize(window, 0);
    out.push_back(std::move(tail));
  }
  return out;
}

std::vector<std::int32_t> offline_bio(const std::vector<std::int32_t>& wq) {
  soc::Platform plat;
  app::MBioTracker tracker(plat);
  tracker.init();
  std::vector<double> x(app::kWindow);
  for (unsigned i = 0; i < app::kWindow; ++i) x[i] = fx::from_q16_15(wq[i]);
  const app::AppResult a = tracker.run(app::Target::kCpuVwr2a, x);
  std::vector<std::int32_t> out;
  out.push_back(a.svm_class);
  out.push_back(static_cast<std::int32_t>(a.extrema));
  for (double f : a.feat.as_vector()) out.push_back(fx::to_q16_15(f));
  return out;
}

std::vector<std::int32_t> offline_pipeline(
    const std::vector<std::int32_t>& wq,
    const std::vector<std::int32_t>& taps) {
  const auto filt = dsp::fir_fx(wq, taps);
  std::vector<std::int32_t> out;
  out.push_back(dsp::energy_fx(filt));
  for (const dsp::CplxFx& b : dsp::rfft_fx(filt)) {
    out.push_back(b.re);
    out.push_back(b.im);
  }
  return out;
}

TEST(Gateway, LoopbackStreamBitIdenticalToOfflineAndOrdered) {
  Server::Config cfg;
  cfg.stream.pool.devices = 2;
  Server server(cfg);
  Client client(server.connect_loopback());

  const auto samples = make_stream_samples(3 * app::kWindow + 201, 0.22, 7001);
  std::vector<WindowResult> delivered;
  const std::uint32_t sid = client.open(
      Client::StreamOpts{},
      [&](const WindowResult& r) { delivered.push_back(r); });

  std::size_t off = 0;
  unsigned chunk = 73;
  while (off < samples.size()) {
    const std::size_t take = std::min<std::size_t>(chunk, samples.size() - off);
    client.push(sid, std::span<const std::int32_t>(samples).subspan(off, take));
    off += take;
    chunk = 41 + (chunk * 5) % 173;
  }
  const FlushOk fo = client.flush(sid);  // barrier: all results delivered

  const auto want =
      slice_windows(samples, app::kWindow, app::kWindow, /*flush_tail=*/true);
  EXPECT_EQ(fo.windows_delivered, want.size());
  ASSERT_EQ(delivered.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(delivered[i].stream, sid);
    EXPECT_EQ(delivered[i].index, i);  // ordered by construction
    EXPECT_EQ(delivered[i].output, offline_bio(want[i]));
    EXPECT_GT(delivered[i].cycles, 0u);
  }

  const CloseOk co = client.close_stream(sid);
  EXPECT_EQ(co.windows_submitted, want.size());
  EXPECT_EQ(co.windows_delivered, want.size());
  EXPECT_EQ(co.windows_failed, 0u);
  EXPECT_EQ(co.samples_in, samples.size());
  EXPECT_EQ(co.dropped_samples, 0u);
  server.stop();
}

TEST(Gateway, MultiplexedStreamsOnOneConnection) {
  // Four streams (bio + overlapped pipeline) multiplexed on a single
  // connection, pushes interleaved: per-stream order and goldens must hold.
  Server::Config cfg;
  cfg.stream.pool.devices = 4;
  cfg.stream.pool.device_arch = {soc::ArchConfig{},
                                 soc::ArchConfig{.vwr_count = 2},
                                 soc::ArchConfig{.vwr_count = 4},
                                 soc::ArchConfig{.simd_width = 16}};
  Server server(cfg);
  Client client(server.connect_loopback());
  const auto taps = dsp::fir11_lowpass_q15();

  constexpr unsigned kStreams = 4;
  std::vector<std::vector<std::int32_t>> streams;
  std::map<std::uint32_t, std::vector<WindowResult>> delivered;
  std::vector<std::uint32_t> sids;
  for (unsigned i = 0; i < kStreams; ++i) {
    streams.push_back(
        make_stream_samples(2 * app::kWindow + 57 * i, 0.18 + 0.05 * i,
                            7100 + i));
    Client::StreamOpts opts;
    if (i % 2 == 1) {
      opts.kind = 1;  // pipeline
      opts.hop = 256;
    }
    sids.push_back(client.open(opts, [&delivered, i, &sids](
                                         const WindowResult& r) {
      delivered[r.stream].push_back(r);
      (void)i;
      (void)sids;
    }));
  }

  for (std::size_t off = 0;; off += 131) {
    bool any = false;
    for (unsigned i = 0; i < kStreams; ++i) {
      if (off >= streams[i].size()) continue;
      const std::size_t take =
          std::min<std::size_t>(131, streams[i].size() - off);
      client.push(sids[i],
                  std::span<const std::int32_t>(streams[i]).subspan(off, take));
      any = true;
    }
    if (!any) break;
  }
  for (unsigned i = 0; i < kStreams; ++i) client.flush(sids[i]);

  for (unsigned i = 0; i < kStreams; ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    const bool pipeline = i % 2 == 1;
    const auto want = slice_windows(streams[i], app::kWindow,
                                    pipeline ? 256 : app::kWindow,
                                    /*flush_tail=*/true);
    const auto& got = delivered[sids[i]];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t w = 0; w < want.size(); ++w) {
      SCOPED_TRACE("window " + std::to_string(w));
      EXPECT_EQ(got[w].index, w);
      EXPECT_EQ(got[w].output, pipeline ? offline_pipeline(want[w], taps)
                                        : offline_bio(want[w]));
      // Soft-pinning over the wire: every window ran on the stream's device.
      EXPECT_EQ(got[w].device, client.device_of(sids[i]));
    }
  }
  server.stop();
}

TEST(Gateway, TcpMatchesLoopbackBitForBit) {
  Server::Config cfg;
  cfg.stream.pool.devices = 2;
  Server server(cfg);
  std::uint16_t port = 0;
  try {
    port = server.listen_tcp(0);
  } catch (const HostError& e) {
    GTEST_SKIP() << "TCP unavailable in this environment: " << e.what();
  }

  const auto samples = make_stream_samples(2 * app::kWindow + 99, 0.3, 7200);
  auto run = [&samples](Client& client) {
    std::vector<std::vector<std::int32_t>> outputs;
    const std::uint32_t sid = client.open(
        Client::StreamOpts{},
        [&](const WindowResult& r) { outputs.push_back(r.output); });
    client.push(sid, samples);
    client.flush(sid);
    client.close_stream(sid);
    return outputs;
  };

  Client tcp_client(connect_tcp("127.0.0.1", port));
  const auto via_tcp = run(tcp_client);
  Client loop_client(server.connect_loopback());
  const auto via_loop = run(loop_client);

  ASSERT_EQ(via_tcp.size(), via_loop.size());
  EXPECT_EQ(via_tcp, via_loop);
  EXPECT_GT(via_tcp.size(), 0u);
  server.stop();
}

TEST(Gateway, SessionQuotasEnforced) {
  Server::Config cfg;
  cfg.stream.pool.devices = 1;
  cfg.quotas.max_sessions_per_tenant = 2;
  cfg.quotas.max_inflight = 8;
  Server server(cfg);
  Client client(server.connect_loopback());

  Client::StreamOpts opts;
  opts.tenant = 42;
  const auto s1 = client.open(opts, nullptr);
  (void)client.open(opts, nullptr);
  try {
    (void)client.open(opts, nullptr);
    FAIL() << "third session of the tenant admitted past the quota";
  } catch (const GatewayError& e) {
    EXPECT_EQ(e.error.code,
              static_cast<std::uint16_t>(ErrorCode::kQuotaSessions));
  }
  // A different tenant is unaffected.
  Client::StreamOpts other;
  other.tenant = 43;
  (void)client.open(other, nullptr);

  // In-flight cap.
  Client::StreamOpts greedy;
  greedy.tenant = 43;
  greedy.max_inflight = 9;
  try {
    (void)client.open(greedy, nullptr);
    FAIL() << "max_inflight above the cap admitted";
  } catch (const GatewayError& e) {
    EXPECT_EQ(e.error.code,
              static_cast<std::uint16_t>(ErrorCode::kQuotaInflight));
  }

  // Bad parameters (bio sessions need window == 512).
  Client::StreamOpts bad;
  bad.tenant = 43;
  bad.window = 100;
  bad.hop = 100;
  try {
    (void)client.open(bad, nullptr);
    FAIL() << "bad session params admitted";
  } catch (const GatewayError& e) {
    EXPECT_EQ(e.error.code, static_cast<std::uint16_t>(ErrorCode::kBadParams));
  }

  // Closing a stream releases its quota slot.
  client.close_stream(s1);
  (void)client.open(opts, nullptr);

  // Control frames on unknown streams answer kUnknownStream.
  try {
    client.flush(9999);
    FAIL() << "flush on unknown stream acked";
  } catch (const GatewayError& e) {
    EXPECT_EQ(e.error.code,
              static_cast<std::uint16_t>(ErrorCode::kUnknownStream));
  }
  server.stop();
}

TEST(Gateway, ByteRateQuotaWithDeterministicClock) {
  std::uint64_t fake_ns = 0;  // the clock never advances unless we say so
  Server::Config cfg;
  cfg.stream.pool.devices = 1;
  cfg.quotas.bytes_per_second = 1000.0;
  cfg.quotas.burst_bytes = 4096.0;
  cfg.clock_ns = [&fake_ns] { return fake_ns; };
  Server server(cfg);
  Client client(server.connect_loopback());

  std::vector<std::uint16_t> errors;
  const std::uint32_t sid =
      client.open(Client::StreamOpts{}, nullptr,
                  [&](const Error& e) { errors.push_back(e.code); });

  // 1024 samples = 4096 bytes: exactly the burst, accepted.
  std::vector<std::int32_t> chunk(1024, 0);
  client.push(sid, chunk);
  // The bucket is empty and the clock frozen: any further push is rejected.
  client.push(sid, std::span<const std::int32_t>(chunk).subspan(0, 8));
  client.flush(sid);  // barrier: the ERROR frame precedes FLUSH_OK
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], static_cast<std::uint16_t>(ErrorCode::kQuotaRate));

  // Advance the fake clock 2 seconds: 2000 bytes refilled, 500 samples fit.
  fake_ns += 2'000'000'000ull;
  client.push(sid, std::span<const std::int32_t>(chunk).subspan(0, 500));
  client.flush(sid);
  EXPECT_EQ(errors.size(), 1u);  // no new rejection
  EXPECT_EQ(server.telemetry().rate_limited, 1u);
  server.stop();
}

TEST(Gateway, LossyStreamDropsAreAccountedInCloseOk) {
  Server::Config cfg;
  cfg.stream.pool.devices = 1;
  Server server(cfg);
  Client client(server.connect_loopback());

  Client::StreamOpts opts;
  opts.lossy = true;
  opts.buffer_capacity = app::kWindow;  // one-window staging buffer
  const std::uint32_t sid = client.open(opts, nullptr);

  // Larger than the whole staging buffer: guaranteed drop regardless of
  // timing.
  std::vector<std::int32_t> big(app::kWindow + 64, 0);
  client.push(sid, big);
  // An exactly-fitting window is accepted once the buffer is empty.
  std::vector<std::int32_t> fit(app::kWindow, 0);
  client.push(sid, fit);
  const CloseOk co = client.close_stream(sid);
  EXPECT_EQ(co.dropped_pushes, 1u);
  EXPECT_EQ(co.dropped_samples, big.size());
  EXPECT_EQ(co.samples_in, fit.size());
  EXPECT_EQ(co.windows_delivered, 1u);
  server.stop();
}

TEST(Gateway, StatsFrameReportsFleetAndGatewayCounters) {
  Server::Config cfg;
  cfg.stream.pool.devices = 3;
  Server server(cfg);
  Client client(server.connect_loopback());

  const auto samples = make_stream_samples(2 * app::kWindow, 0.25, 7300);
  const std::uint32_t sid = client.open(Client::StreamOpts{}, nullptr);
  client.push(sid, samples);
  client.flush(sid);
  // STATS freshness is batch-boundary (peek_stats never blocks); quiesce
  // the fleet so the counters below are exact rather than lower bounds.
  server.streams().pool().wait_idle();

  const Stats st = client.stats();
  EXPECT_EQ(st.at("devices").value, 3u);
  EXPECT_EQ(st.at("connections").value, 1u);
  EXPECT_EQ(st.at("sessions").value, 1u);
  EXPECT_EQ(st.at("windows_delivered").value, 2u);
  EXPECT_GE(st.at("jobs_completed").value, 2u);
  EXPECT_EQ(st.at("jobs_failed").value, 0u);
  EXPECT_GT(st.at("fleet_makespan").value, 0u);
  EXPECT_GT(st.at("total_pj").real(), 0.0);
  server.stop();
}

TEST(Gateway, StatsTableNamesEachMetricOnceAndMatchesItsSource) {
  // Walk the STATS table (for_each_stat) against a quiescent server: each
  // line must appear exactly once in a STATS reply and in a STATS_PUSH,
  // with the kind and value its source -- the pool's stats() or the
  // server's telemetry() -- holds, and the frames carry nothing else.
  Server::Config cfg;
  cfg.stream.pool.devices = 2;
  Server server(cfg);
  Client client(server.connect_loopback());
  const std::uint32_t sid = client.open(Client::StreamOpts{}, nullptr);
  client.push(sid, make_stream_samples(2 * app::kWindow, 0.25, 7400));
  client.flush(sid);
  client.close_stream(sid);
  runtime::DevicePool& pool = server.streams().pool();
  pool.wait_idle();

  auto check = [&](const Stats& st) {
    std::size_t lines = 0;
    for_each_stat(
        pool.num_devices(), server.telemetry(), pool.stats(),
        [&](std::string_view name, MetricKind kind, std::uint64_t value) {
          ++lines;
          const auto named = std::count_if(
              st.entries.begin(), st.entries.end(),
              [name](const StatEntry& e) { return e.name == name; });
          ASSERT_EQ(named, 1) << name;
          EXPECT_EQ(st.at(name).kind, kind) << name;
          EXPECT_EQ(st.at(name).value, value) << name;
        });
    EXPECT_EQ(st.entries.size(), lines);
    EXPECT_GT(st.at("jobs_completed").value, 0u);  // the walk saw real work
  };
  {
    SCOPED_TRACE("STATS");
    check(client.stats());
  }
  std::mutex mu;
  std::condition_variable cv;
  std::optional<StatsPush> first;
  // A long cadence: the immediate first push is the only one in the test.
  client.subscribe_stats(60000, [&](const StatsPush& p) {
    std::lock_guard<std::mutex> lock(mu);
    if (!first) first = p;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&first] { return first.has_value(); }));
    SCOPED_TRACE("STATS_PUSH");
    check(first->stats);
  }
  client.unsubscribe_stats();
  server.stop();
}

TEST(Gateway, RawProtocolViolationsGetErrorFrames) {
  // Drive the wire by hand: duplicate stream ids and garbage bytes.
  Server::Config cfg;
  cfg.stream.pool.devices = 1;
  Server server(cfg);
  auto t = server.connect_loopback();

  auto send_frame = [&t](const Frame& f) {
    const auto bytes = encode(f);
    ASSERT_TRUE(t->send(bytes.data(), bytes.size()));
  };
  Decoder dec;
  auto read_frame = [&t, &dec]() -> Frame {
    std::uint8_t buf[4096];
    for (;;) {
      if (auto f = dec.next()) return std::move(*f);
      const std::size_t n = t->recv(buf, sizeof buf);
      if (n == 0) throw HostError("connection closed");
      dec.feed(buf, n);
    }
  };

  OpenSession open;
  open.stream = 5;
  send_frame(open);
  ASSERT_TRUE(std::holds_alternative<OpenOk>(read_frame()));
  send_frame(open);  // duplicate id
  {
    const Frame f = read_frame();
    const auto* err = std::get_if<Error>(&f);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code,
              static_cast<std::uint16_t>(ErrorCode::kDuplicateStream));
  }

  // Garbage: an impossible length prefix. The server answers with a
  // connection-level ERROR and drops the connection.
  const std::uint8_t junk[8] = {0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4};
  ASSERT_TRUE(t->send(junk, sizeof junk));
  {
    const Frame f = read_frame();
    const auto* err = std::get_if<Error>(&f);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->stream, kConnectionStream);
    EXPECT_EQ(err->code, static_cast<std::uint16_t>(ErrorCode::kBadFrame));
  }
  server.stop();
}

TEST(Gateway, MatchesDirectStreamServerBitForBit) {
  // The acceptance-criterion identity in miniature: the same tenant
  // streams through the gateway and directly through a StreamServer with
  // the identical fleet configuration must produce identical window
  // outputs in identical per-session order.
  constexpr unsigned kStreams = 6;
  std::vector<std::vector<std::int32_t>> streams;
  for (unsigned i = 0; i < kStreams; ++i) {
    streams.push_back(
        make_stream_samples(2 * app::kWindow + 77 * i, 0.2 + 0.04 * i,
                            7400 + i));
  }

  auto fleet_cfg = [] {
    stream::StreamServer::Config scfg;
    scfg.pool.devices = 4;
    scfg.pool.device_arch = {soc::ArchConfig{},
                             soc::ArchConfig{.vwr_count = 2},
                             soc::ArchConfig{.vwr_count = 4},
                             soc::ArchConfig{.simd_width = 16}};
    return scfg;
  };

  // Direct run (producer-thread reaping, the PR-3 path).
  std::vector<std::vector<std::vector<std::int32_t>>> direct(kStreams);
  {
    stream::StreamServer server(fleet_cfg());
    std::vector<stream::Session*> sessions;
    for (unsigned i = 0; i < kStreams; ++i) {
      stream::SessionConfig sc;
      if (i % 2 == 1) sc.kind = stream::SessionKind::kPipeline;
      sessions.push_back(&server.open_session(
          sc, [&direct, i](const stream::WindowResult& r) {
            direct[i].push_back(r.job.output);
          }));
    }
    for (unsigned i = 0; i < kStreams; ++i) sessions[i]->push(streams[i]);
    server.finish();
  }

  // Gateway run (one loopback client per stream). Pre-sized slots: each
  // stream's results arrive on its own client's reader thread (single
  // writer per slot, no shared-container mutation).
  std::vector<std::vector<std::vector<std::int32_t>>> gated(kStreams);
  {
    Server::Config cfg;
    cfg.stream = fleet_cfg();
    Server server(cfg);
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::uint32_t> sids;
    for (unsigned i = 0; i < kStreams; ++i) {
      clients.push_back(std::make_unique<Client>(server.connect_loopback()));
      Client::StreamOpts opts;
      if (i % 2 == 1) opts.kind = 1;
      sids.push_back(clients.back()->open(
          opts, [&gated, i](const WindowResult& r) {
            gated[i].push_back(r.output);
          }));
    }
    for (unsigned i = 0; i < kStreams; ++i) {
      clients[i]->push(sids[i], streams[i]);
    }
    for (unsigned i = 0; i < kStreams; ++i) clients[i]->flush(sids[i]);
    server.stop();
  }

  ASSERT_EQ(direct.size(), gated.size());
  for (unsigned i = 0; i < kStreams; ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    EXPECT_EQ(direct[i], gated[i]);
    EXPECT_GT(direct[i].size(), 0u);
  }
}

TEST(Gateway, StatsReportsDeviceFaultsOverTheWire) {
  Server::Config cfg;
  cfg.stream.pool.devices = 3;
  Server server(cfg);
  Client client(server.connect_loopback());

  const std::uint32_t sid = client.open(Client::StreamOpts{}, nullptr);
  const auto samples = make_stream_samples(2 * app::kWindow, 0.25, 8100);
  client.push(sid, samples);
  client.flush(sid);
  server.streams().pool().wait_idle();

  // Fail-stop a device the session is not pinned to (the fleet is idle,
  // so the kill completes synchronously) and read the counters back over
  // the wire.
  const std::uint32_t victim = (client.device_of(sid) + 1) % 3;
  ASSERT_TRUE(server.streams().pool().kill_device(victim));
  Stats st = client.stats();
  EXPECT_EQ(st.at("devices_failed").value, 1u);
  EXPECT_EQ(st.at("devices_dead").value, 1u);
  EXPECT_EQ(st.at("devices_revived").value, 0u);

  ASSERT_TRUE(server.streams().pool().revive_device(victim));
  st = client.stats();
  EXPECT_EQ(st.at("devices_failed").value, 1u);
  EXPECT_EQ(st.at("devices_dead").value, 0u);
  EXPECT_EQ(st.at("devices_revived").value, 1u);
  server.stop();
}

TEST(Gateway, AbruptDisconnectReleasesSessionQuota) {
  // A client that vanishes without CLOSE (crash, cable pull) must not
  // leak its session quota or its server-side Connection: the reader
  // sees EOF, tears the streams down, and serve() reaps the connection.
  Server::Config cfg;
  cfg.stream.pool.devices = 1;
  cfg.quotas.max_sessions_per_tenant = 1;
  Server server(cfg);

  {
    // Drive the wire by hand so no CLOSE frame is ever sent.
    auto t = server.connect_loopback();
    OpenSession open;
    open.stream = 1;
    open.tenant = 42;
    const auto bytes = encode(Frame{open});
    ASSERT_TRUE(t->send(bytes.data(), bytes.size()));
    Decoder dec;
    std::uint8_t buf[4096];
    for (;;) {
      if (auto f = dec.next()) {
        ASSERT_TRUE(std::holds_alternative<OpenOk>(*f));
        break;
      }
      const std::size_t n = t->recv(buf, sizeof buf);
      ASSERT_NE(n, 0u);
      dec.feed(buf, n);
    }
  }  // transport dropped here: abrupt disconnect, no CLOSE

  // The teardown runs on the server's reader thread after it notices
  // EOF, so the quota release is asynchronous -- poll until the tenant's
  // slot comes back.
  Client client(server.connect_loopback());
  Client::StreamOpts opts;
  opts.tenant = 42;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      (void)client.open(opts, nullptr);
      break;
    } catch (const GatewayError& e) {
      ASSERT_EQ(e.error.code,
                static_cast<std::uint16_t>(ErrorCode::kQuotaSessions));
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "session quota never released after an abrupt disconnect";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  server.stop();
}

TEST(Gateway, StatsSubscribeDeliversPushesWithoutPolling) {
  // v4 push-mode: one subscribe must yield server-initiated STATS_PUSH
  // frames at the requested cadence -- strictly increasing seq, a device
  // array matching the fleet, the per-session load array -- with no
  // STATS_REQUEST ever in flight. Unsubscribe settles the stream.
  Server::Config cfg;
  cfg.stream.pool.devices = 2;
  Server server(cfg);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<StatsPush> pushes;

  Client client(server.connect_loopback());
  // A little real work first so the pushed frames carry live counters.
  Client::StreamOpts opts;
  const std::uint32_t sid =
      client.open(opts, [](const WindowResult&) {});
  const auto samples = make_stream_samples(app::kWindow, 0.2, 9301);
  client.push(sid, samples);
  client.flush(sid);

  client.subscribe_stats(5, [&](const StatsPush& p) {
    std::lock_guard<std::mutex> lock(mu);
    pushes.push_back(p);
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&pushes] { return pushes.size() >= 4; }));
  }
  client.unsubscribe_stats();
  // Frames already queued may still land; after the settle window the
  // count must stop moving.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::size_t settled;
  {
    std::lock_guard<std::mutex> lock(mu);
    settled = pushes.size();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(pushes.size(), settled);
    ASSERT_GE(pushes.size(), 4u);
    for (std::size_t i = 0; i < pushes.size(); ++i) {
      if (i > 0) {
        EXPECT_EQ(pushes[i].seq, pushes[i - 1].seq + 1);
      }
      EXPECT_EQ(pushes[i].devices.size(), 2u);
      EXPECT_EQ(pushes[i].stats.at("devices").value, 2u);
    }
    // The stream above ran one window; the newest push must know it.
    const StatsPush& last = pushes.back();
    ASSERT_EQ(last.sessions.size(), 1u);
    EXPECT_EQ(last.sessions[0].windows_submitted, 1u);
    EXPECT_EQ(last.sessions[0].windows_delivered, 1u);
    EXPECT_GT(last.sessions[0].latency_cycles_total, 0u);
    std::uint64_t dev_jobs = 0;
    for (const auto& d : last.devices) dev_jobs += d.jobs;
    EXPECT_EQ(dev_jobs, last.stats.at("jobs_completed").value);
  }
  client.close_stream(sid);
  client.close();
  server.stop();
}

TEST(Gateway, StatsSubscribeZeroCadenceRejected) {
  // enable=1 with cadence 0 is a contract violation: the server answers
  // with ERROR kBadParams on the connection stream and keeps serving.
  Server::Config cfg;
  cfg.stream.pool.devices = 1;
  Server server(cfg);
  auto t = server.connect_loopback();

  auto send_frame = [&t](const Frame& f) {
    const auto bytes = encode(f);
    ASSERT_TRUE(t->send(bytes.data(), bytes.size()));
  };
  Decoder dec;
  auto read_frame = [&t, &dec]() -> Frame {
    std::uint8_t buf[4096];
    for (;;) {
      if (auto f = dec.next()) return std::move(*f);
      const std::size_t n = t->recv(buf, sizeof buf);
      if (n == 0) throw HostError("connection closed");
      dec.feed(buf, n);
    }
  };

  send_frame(StatsSubscribe{0, 1});
  {
    const Frame f = read_frame();
    const auto* err = std::get_if<Error>(&f);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, static_cast<std::uint16_t>(ErrorCode::kBadParams));
    EXPECT_EQ(err->stream, kConnectionStream);
  }
  // The connection survives: a normal request still gets its reply.
  send_frame(StatsRequest{});
  EXPECT_TRUE(std::holds_alternative<Stats>(read_frame()));
  t->shutdown();
  server.stop();
}

} // namespace
} // namespace vwr2a::gateway
