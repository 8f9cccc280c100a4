// gateway-open: TCP 127.0.0.1, four connections, one generator thread
// each, 16 streams per connection alternating bio and pipeline sessions,
// into a prewarmed (artifact) 16-device trace-cache fleet. This is the
// serving path end to end: codec, transport, Windower, Completer and
// soft-pinned placement.
//
// Three loads drive it:
// - closed: each stream keeps kClosedDepth windows awaiting results, which
//   saturates the fleet. Gives the gated throughput, per reference CPU
//   second.
// - unloaded: one window in flight in the whole gateway, stream after
//   stream. Gives the printed latency, which throughput does not fix.
// - open: samples due on a fixed real-time schedule, each window timed
//   from when its last sample was due until its WINDOW_RESULT arrives --
//   reported at fixed aggregate rates and on a rate ladder (the highest
//   rate whose p99 stays under the limit without a growing backlog), but
//   not gated: on a shared host its latency moves 2-4x between runs.
// The traced run repeats the closed and unloaded loads with the program's
// v6 spans on, and again straight into stream::StreamServer.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "artifact/builder.hpp"
#include "catalog.hpp"
#include "dsp/signal.hpp"
#include "gateway/client.hpp"
#include "gateway/protocol.hpp"
#include "gateway/server.hpp"
#include "obs/obs.hpp"
#include "stream/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vwr2a;

namespace {

constexpr unsigned kConns = 4;             ///< connections = generator threads
constexpr unsigned kStreamsPerConn = 16;
constexpr unsigned kStreams = kConns * kStreamsPerConn;
constexpr unsigned kWindow = 512;          ///< samples per window (hop = window)
constexpr unsigned kChunk = 128;           ///< samples per PUSH_SAMPLES frame
constexpr unsigned kChunksPerWindow = kWindow / kChunk;
constexpr unsigned kDevices = 16;
constexpr unsigned kWorkers = 4;
constexpr unsigned kSetupReps = 15;
/// Reference-speed samples taken before each part of the untraced run.
constexpr unsigned kRefSamplesPerPart = 40;
/// p99 limit of the rate ladder. Above host stalls (tens of ms on a shared
/// machine) yet far below what a growing backlog reaches within a probe.
constexpr double kLimitMs = 100.0;
/// Rounds of the untraced run, each one closed and one unloaded part; the
/// gated figures are medians over the parts, so one host stall moves one
/// part, not the figure.
constexpr unsigned kRounds = 5;
/// Parts of each load in each half (untraced, traced) of the traced run.
constexpr unsigned kTracedParts = 3;
/// Windows in flight per stream in the closed load: each stream's in-flight
/// bound (Client::StreamOpts::max_inflight, default 4), so the closed load
/// offers all the concurrency a stream is allowed without meeting the
/// server's backpressure. Depth 1 gave clearly less throughput
/// (perfbench/README.md).
constexpr unsigned kClosedDepth = 4;
/// Windows per stream of a closed and of an unloaded part, per second of
/// --seconds.
constexpr double kClosedWindowsPerS = 8.0, kUnloadedWindowsPerS = 1.0;
/// Fixed open-loop rates (windows/s), well below the knee: the reference
/// rate (also the traced run's) and a lighter point.
constexpr double kRefRate = 500.0;
constexpr double kLowRate = 250.0;
/// Shares of --seconds given to each open-loop phase: the light point,
/// the reference rate, and each ladder probe.
constexpr double kLowShare = 0.05, kRefShare = 0.1, kProbeShare = 0.02;
/// Shortest traced open-loop phase: 2 s at the reference rate gives 4000
/// lag samples, enough for loadgen.lag_p99_ms at any --seconds.
constexpr double kMinLagPhaseS = 2.0;
/// The fixed rate ladder: 250 * 2^(k/8) windows/s, k = 0..40 (250..8000),
/// searched by bisection (6 probes).
constexpr unsigned kRungs = 41;
double rung_rate(unsigned k) { return 250.0 * std::pow(2.0, k / 8.0); }
/// A stream whose awaited window has not been answered this long is
/// stalled: its generator stops, and its missing windows count as failed.
constexpr auto kStallTimeout = std::chrono::seconds(20);

runtime::DevicePool::Config pool_config(const std::string& artifact) {
  runtime::DevicePool::Config cfg = trace_fleet_config(kDevices, kWorkers);
  cfg.schedule = runtime::Schedule::kShortestLocalClock;
  cfg.artifact_path = artifact;
  cfg.artifact_prewarm = true;
  return cfg;
}

stream::StreamServer::Config stream_config(const std::string& artifact) {
  stream::StreamServer::Config cfg;
  cfg.pool = pool_config(artifact);
  cfg.completion_threads = 4;
  return cfg;
}

/// Stream k: connection k % kConns, kind bio (even) or pipeline (odd).
bool is_pipeline(unsigned k) { return k % 2 == 1; }

/// How a phase paces its windows.
struct Load {
  enum Kind { kOpen, kClosed, kUnloaded } kind = kOpen;
  double rate = 0;       ///< kOpen: offered windows/s
  double seconds = 0;    ///< kOpen: phase length
  unsigned windows = 0;  ///< kClosed, kUnloaded: windows per stream
  static Load open(double rate, double seconds) { return {kOpen, rate, seconds, 0}; }
  static Load closed(unsigned windows) { return {kClosed, 0, 0, windows}; }
  static Load unloaded(unsigned windows) { return {kUnloaded, 0, 0, windows}; }
};

/// The open-loop schedule of one phase: every stream sends one chunk per
/// period; stream k is offset by k/kStreams of a period so the aggregate
/// arrivals are evenly spaced.
struct Schedule {
  std::uint64_t t0 = 0;
  double chunk_period_ns = 0;  ///< per stream
  unsigned windows = 0;        ///< per stream
  Schedule(std::uint64_t start, double rate, double seconds) : t0(start) {
    windows = std::max(1u, static_cast<unsigned>(std::lround(rate * seconds / kStreams)));
    chunk_period_ns = 1e9 * kStreams / (rate * kChunksPerWindow);
  }
  /// Stream k's chunks: chunk i is due at pacer(k).due(i).
  Pacer pacer(unsigned k) const {
    return Pacer(t0 + static_cast<std::uint64_t>(static_cast<double>(k) / kStreams *
                                                 chunk_period_ns),
                 chunk_period_ns);
  }
  std::uint64_t window_due(unsigned k, std::uint64_t w) const {
    return pacer(k).due((w + 1) * kChunksPerWindow - 1);
  }
};

/// Per-stream record of one phase. Generator-side fields are written by the
/// stream's generator thread, result-side fields by the thread delivering
/// its results; both are read after the phase has ended.
struct StreamRec {
  std::vector<std::uint64_t> push_begin, push_end;  ///< per chunk
  std::vector<std::uint64_t> lag_ns;                ///< per chunk (open loop)
  std::vector<std::uint64_t> arrive;               ///< per window, in order
  std::vector<std::uint64_t> queue_ns, run_ns, deliver_ns;  ///< v6 spans
  std::uint64_t digest = kFnvOffset;
  std::uint64_t next_index = 0;
  std::uint64_t cycles = 0;
  double pj = 0.0;
  std::uint64_t failed = 0;  ///< errors, out-of-order or missing windows
  unsigned windows = 0;      ///< windows to send
  std::vector<double> latency_ms;  ///< per delivered window (finish_phase)
};

/// Windows answered per stream -- results and errors alike -- which the
/// closed and unloaded loads wait on.
struct Progress {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> answered = std::vector<std::uint64_t>(kStreams, 0);
  bool stalled = false;
  void answer(unsigned k) {
    {
      std::lock_guard<std::mutex> lk(mu);
      ++answered[k];
    }
    cv.notify_all();
  }
  /// Waits until stream k has `n` windows answered; false (and the phase
  /// marked stalled) if that takes longer than kStallTimeout.
  bool await(unsigned k, std::uint64_t n) {
    std::unique_lock<std::mutex> lk(mu);
    if (cv.wait_for(lk, kStallTimeout, [&] { return stalled || answered[k] >= n; }) &&
        !stalled) {
      return true;
    }
    if (!stalled) std::fprintf(stderr, "  stream %u: no result within the stall timeout\n", k);
    stalled = true;
    return false;
  }
};

struct PhaseResult {
  Load load;
  Schedule sched{0, 1, 1};  ///< open loop; t0 is the phase start for all loads
  std::vector<StreamRec> streams = std::vector<StreamRec>(kStreams);
  std::unique_ptr<Progress> progress = std::make_unique<Progress>();
  Summary latency;
  std::vector<double> lag_ms;
  bool pass = false;
  std::uint64_t windows = 0, failed = 0;
  double last_arrival_s = 0;  ///< phase start -> last arrival
  double cpu_s = 0;           ///< process CPU time, first push -> streams closed
  double cycles = 0, pj = 0;  ///< simulated cost of the delivered windows
};

/// Per-stream reference digests: ref[k][w] is the FNV fold of stream k's
/// outputs for windows 0..w, from a direct stream::StreamServer run.
using RefDigests = std::vector<std::vector<std::uint64_t>>;

/// Judges a phase: latency summary, failures (reported errors, missing or
/// out-of-order windows, and -- when `ref` is given -- digest mismatches
/// against the direct run) and the pass verdict. Idempotent.
void finish_phase(PhaseResult& ph, const RefDigests& ref) {
  std::vector<double> all;
  double worst_last = 0;
  std::uint64_t last_arrive = ph.sched.t0;
  ph.lag_ms.clear();
  ph.windows = 0;
  ph.failed = 0;
  ph.cycles = 0;
  ph.pj = 0;
  for (unsigned k = 0; k < kStreams; ++k) {
    StreamRec& s = ph.streams[k];
    // Open loop: from when the window's last sample was due. Closed and
    // unloaded: from when its last sample was pushed.
    s.latency_ms.clear();
    for (std::size_t w = 0; w < s.arrive.size() && w < s.windows; ++w) {
      const unsigned last = static_cast<unsigned>(w + 1) * kChunksPerWindow - 1;
      if (last >= s.push_begin.size()) break;
      const std::uint64_t from =
          ph.load.kind == Load::kOpen ? ph.sched.window_due(k, w) : s.push_begin[last];
      s.latency_ms.push_back(latency_ms(from, s.arrive[w]));
    }
    all.insert(all.end(), s.latency_ms.begin(), s.latency_ms.end());
    for (std::uint64_t l : s.lag_ns) ph.lag_ms.push_back(static_cast<double>(l) * 1e-6);
    std::uint64_t failed = s.failed;
    if (s.next_index < s.windows) failed += s.windows - s.next_index;
    if (!ref.empty() && (s.next_index == 0 || s.next_index > ref[k].size() ||
                         ref[k][s.next_index - 1] != s.digest)) {
      failed += 1;
      std::fprintf(stderr, "  stream %u: output digest differs from the direct run\n", k);
    }
    if (!s.latency_ms.empty()) worst_last = std::max(worst_last, s.latency_ms.back());
    if (!s.arrive.empty()) last_arrive = std::max(last_arrive, s.arrive.back());
    ph.windows += s.windows;
    ph.failed += std::min<std::uint64_t>(failed, s.windows);
    ph.cycles += static_cast<double>(s.cycles);
    ph.pj += s.pj;
  }
  ph.latency = summarize(std::move(all));
  ph.last_arrival_s = static_cast<double>(last_arrive - ph.sched.t0) * 1e-9;
  const double p99 =
      samples_beyond(ph.latency.n, 0.99) >= 10 ? ph.latency.sorted_at(0.99) : ph.latency.tail;
  // No growing backlog: the last window of every stream also lands within
  // the limit of when it was due.
  ph.pass = ph.failed == 0 && p99 <= kLimitMs && worst_last <= kLimitMs;
}

/// The signal every phase streams: stream k's samples, long enough for
/// the longest phase (phases reuse prefixes).
std::vector<std::vector<std::int32_t>> make_signals(std::uint64_t seed, unsigned windows) {
  std::vector<std::vector<std::int32_t>> sig;
  for (unsigned k = 0; k < kStreams; ++k) {
    Rng rng(seed * 1000003ull + k);
    dsp::RespirationParams p;
    p.breath_hz = 0.12 + 0.4 * rng.next_double();
    sig.push_back(dsp::respiration_q16_15(windows * kWindow, p, rng));
  }
  return sig;
}

/// Sends chunk i of stream k.
using PushFn = std::function<void(unsigned k, unsigned i)>;

/// Drives one phase's load through `push`, recording each chunk's push
/// times (and, on the open loop, the generator's lag). Returns when every
/// chunk is sent, or early when a stream stalls.
void drive(PhaseResult& ph, const PushFn& push) {
  const Load& load = ph.load;
  const bool open = load.kind == Load::kOpen;
  ph.sched = Schedule(now_ns() + (open ? 20'000'000 : 0), open ? load.rate : 1.0,
                      open ? load.seconds : 1.0);
  const unsigned windows = open ? ph.sched.windows : load.windows;
  for (StreamRec& s : ph.streams) s.windows = windows;
  Progress& pr = *ph.progress;
  auto send = [&](unsigned k, unsigned i) {
    StreamRec& s = ph.streams[k];
    const std::uint64_t t0 = now_ns();
    push(k, i);
    s.push_begin.push_back(t0);
    s.push_end.push_back(now_ns());
  };
  if (load.kind == Load::kUnloaded) {
    for (unsigned w = 0; w < windows; ++w) {
      for (unsigned k = 0; k < kStreams; ++k) {
        for (unsigned c = 0; c < kChunksPerWindow; ++c) send(k, w * kChunksPerWindow + c);
        if (!pr.await(k, w + 1)) return;
      }
    }
    return;
  }
  std::vector<std::thread> gen;
  for (unsigned c = 0; c < kConns; ++c) {
    gen.emplace_back([&, c] {
      for (unsigned i = 0; i < windows * kChunksPerWindow; ++i) {
        for (unsigned k = c; k < kStreams; k += kConns) {
          if (open) {
            ph.streams[k].lag_ns.push_back(ph.sched.pacer(k).wait(i));
          } else if (i % kChunksPerWindow == 0) {
            const unsigned w = i / kChunksPerWindow;
            if (w >= kClosedDepth && !pr.await(k, w + 1 - kClosedDepth)) return;
          }
          send(k, i);
        }
      }
    });
  }
  for (auto& t : gen) t.join();
}

/// One gateway with its TCP clients.
struct Rig {
  std::unique_ptr<gateway::Server> server;
  std::vector<std::unique_ptr<gateway::Client>> clients;
  explicit Rig(const std::string& artifact) {
    gateway::Server::Config cfg;
    cfg.stream = stream_config(artifact);
    server = std::make_unique<gateway::Server>(cfg);
    const std::uint16_t port = server->listen_tcp(0);
    for (unsigned c = 0; c < kConns; ++c) {
      clients.push_back(std::make_unique<gateway::Client>(
          gateway::connect_tcp("127.0.0.1", port)));
    }
  }
  ~Rig() {
    for (auto& c : clients) c->close();
    server->stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
};

/// Runs one phase through the gateway.
PhaseResult gateway_phase(Rig& rig, const std::vector<std::vector<std::int32_t>>& sig,
                          const Load& load) {
  PhaseResult ph;
  ph.load = load;
  std::vector<std::uint32_t> sid(kStreams);
  // Opened in a fixed order from one thread: placement is deterministic.
  for (unsigned k = 0; k < kStreams; ++k) {
    gateway::Client::StreamOpts o;
    o.tenant = k;
    o.kind = is_pipeline(k) ? 1 : 0;
    o.window = kWindow;
    o.hop = kWindow;
    o.max_inflight = kClosedDepth;
    StreamRec* rec = &ph.streams[k];
    Progress* pr = ph.progress.get();
    sid[k] = rig.clients[k % kConns]->open(
        o,
        [rec, pr, k](const gateway::WindowResult& r) {
          const std::uint64_t now = now_ns();
          if (r.index != rec->next_index) rec->failed += 1;
          rec->next_index = r.index + 1;
          rec->digest = fnv_fold(rec->digest, r.output);
          rec->arrive.push_back(now);
          rec->queue_ns.push_back(r.queue_ns);
          rec->run_ns.push_back(r.run_ns);
          rec->deliver_ns.push_back(r.deliver_ns);
          rec->cycles += r.cycles;
          rec->pj += r.pj;
          pr->answer(k);
        },
        [rec, pr, k](const gateway::Error& e) {
          rec->failed += 1;
          std::fprintf(stderr, "  gateway error %u: %s\n", e.code, e.message.c_str());
          pr->answer(k);
        });
  }
  const std::uint64_t c0 = cpu_ns();
  drive(ph, [&](unsigned k, unsigned i) {
    rig.clients[k % kConns]->push(
        sid[k], std::span<const std::int32_t>(sig[k]).subspan(std::size_t{i} * kChunk, kChunk));
  });
  for (unsigned k = 0; k < kStreams; ++k) {
    const gateway::CloseOk co = rig.clients[k % kConns]->close_stream(sid[k]);
    ph.streams[k].failed += co.windows_failed + co.dropped_samples;
  }
  ph.cpu_s = static_cast<double>(cpu_ns() - c0) * 1e-9;
  return ph;
}

/// Runs one phase straight into stream::StreamServer sessions (no wire):
/// the stream layer's own latency under the same load.
PhaseResult stream_phase(const std::string& artifact,
                         const std::vector<std::vector<std::int32_t>>& sig, const Load& load) {
  PhaseResult ph;
  ph.load = load;
  stream::StreamServer server(stream_config(artifact));
  std::vector<stream::Session*> sessions;
  for (unsigned k = 0; k < kStreams; ++k) {
    stream::SessionConfig sc;
    if (is_pipeline(k)) sc.kind = stream::SessionKind::kPipeline;
    StreamRec* rec = &ph.streams[k];
    Progress* pr = ph.progress.get();
    sessions.push_back(&server.open_session(
        sc,
        [rec, pr, k](const stream::WindowResult& r) {
          const std::uint64_t now = now_ns();
          if (r.index != rec->next_index) rec->failed += 1;
          rec->next_index = r.index + 1;
          rec->digest = fnv_fold(rec->digest, r.job.output);
          rec->arrive.push_back(now);
          pr->answer(k);
        },
        [rec, pr, k](std::uint64_t, std::uint64_t, const std::string& why) {
          rec->failed += 1;
          std::fprintf(stderr, "  stream window failed: %s\n", why.c_str());
          pr->answer(k);
        }));
  }
  drive(ph, [&](unsigned k, unsigned i) {
    sessions[k]->push(
        std::span<const std::int32_t>(sig[k]).subspan(std::size_t{i} * kChunk, kChunk));
  });
  server.finish();
  return ph;
}

/// Reference digests after every window, from a direct StreamServer run
/// (producer-thread delivery, no schedule) over `windows` per stream.
RefDigests reference_digests(const std::string& artifact,
                             const std::vector<std::vector<std::int32_t>>& sig,
                             unsigned windows) {
  RefDigests ref(kStreams);
  stream::StreamServer::Config cfg;
  cfg.pool = pool_config(artifact);
  stream::StreamServer server(cfg);
  std::vector<stream::Session*> sessions;
  for (unsigned k = 0; k < kStreams; ++k) {
    stream::SessionConfig sc;
    if (is_pipeline(k)) sc.kind = stream::SessionKind::kPipeline;
    sc.max_inflight = 16;
    std::vector<std::uint64_t>* out = &ref[k];
    sessions.push_back(&server.open_session(sc, [out](const stream::WindowResult& r) {
      out->push_back(fnv_fold(out->empty() ? kFnvOffset : out->back(), r.job.output));
    }));
  }
  for (unsigned w = 0; w < windows; ++w) {
    for (unsigned k = 0; k < kStreams; ++k) {
      sessions[k]->push(std::span<const std::int32_t>(sig[k]).subspan(
          std::size_t{w} * kWindow, kWindow));
    }
  }
  server.finish();
  return ref;
}

/// Windows per second of a closed part, first push to last result.
double throughput(const PhaseResult& ph) {
  return ph.last_arrival_s > 0 ? static_cast<double>(ph.windows) / ph.last_arrival_s : 0.0;
}

void print_phase(const char* label, const PhaseResult& ph) {
  char name[96];
  if (ph.load.kind == Load::kOpen) {
    std::snprintf(name, sizeof name, "%s %.0f win/s", label, ph.load.rate);
  } else {
    std::snprintf(name, sizeof name, "%s", label);
  }
  print_summary(name, ph.latency, "ms");
  std::printf("    %llu windows, %llu failed, last result %.3f s after the start%s\n",
              static_cast<unsigned long long>(ph.windows),
              static_cast<unsigned long long>(ph.failed), ph.last_arrival_s,
              ph.load.kind != Load::kOpen ? ""
              : ph.pass                   ? ", meets the limit"
                                          : ", misses the limit");
}

}  // namespace

Outcome run_gateway_open(const Options& opt) {
  // Deployment step, not set-up: the prebuilt artifact the fleet warms from.
  const std::string artifact = opt.work_dir + "/gateway-fleet.vwr2art";
  artifact::build_artifact(artifact, trace_fleet_mix());

  // Set-up: a prewarmed gateway listening on TCP with its four clients.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    rig.reset();
    const std::uint64_t c0 = cpu_ns();
    auto fresh = std::make_unique<Rig>(artifact);
    setup.push_back(static_cast<double>(cpu_ns() - c0) * 1e-9);
    rig = std::move(fresh);
  }

  const double S = opt.seconds;
  const double lag_phase_s = std::max(kRefShare * S, kMinLagPhaseS);
  auto per_stream = [&](double windows_per_s) {
    return std::max(1u, static_cast<unsigned>(std::lround(windows_per_s * S)));
  };
  const Load closed = Load::closed(per_stream(kClosedWindowsPerS));
  const Load unloaded = Load::unloaded(per_stream(kUnloadedWindowsPerS));
  // The longest phase any load could need, for the shared signals.
  const unsigned max_windows = std::max(
      closed.windows,
      static_cast<unsigned>(std::ceil(std::max(rung_rate(kRungs - 1) * kProbeShare * S,
                                               kRefRate * lag_phase_s) /
                                      kStreams)) + 1);
  const auto sig = make_signals(opt.seed, max_windows);

  Outcome out;
  std::vector<PhaseResult> phases;
  auto check_all = [&] {
    unsigned need = 0;
    for (const PhaseResult& p : phases) need = std::max(need, p.streams[0].windows);
    const RefDigests ref = reference_digests(artifact, sig, need);
    for (PhaseResult& p : phases) {
      finish_phase(p, ref);
      out.attempted += p.windows;
      out.failed += p.failed;
    }
  };

  if (!opt.trace) {
    // Gated figures: kRounds closed and unloaded parts, alternating.
    RefSpeed ref;
    for (unsigned i = 0; i < kRounds; ++i) {
      ref.sample(kRefSamplesPerPart);
      phases.push_back(gateway_phase(*rig, sig, closed));
      ref.sample(kRefSamplesPerPart);
      phases.push_back(gateway_phase(*rig, sig, unloaded));
    }
    // The open loop: two fixed rates and the rate ladder (printed).
    const std::size_t open0 = phases.size();
    phases.push_back(gateway_phase(*rig, sig, Load::open(kLowRate, kLowShare * S)));
    phases.push_back(gateway_phase(*rig, sig, Load::open(kRefRate, kRefShare * S)));
    int lo = -1, hi = static_cast<int>(kRungs);
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      phases.push_back(gateway_phase(*rig, sig, Load::open(rung_rate(mid), kProbeShare * S)));
      // Judged now; digests are checked after the timed part, and a
      // mismatch fails the run either way.
      finish_phase(phases.back(), {});
      (phases.back().pass ? lo : hi) = mid;
    }
    check_all();
    std::vector<double> p50, rate, cpu_rate, cycle_cpu_rate;
    for (unsigned i = 0; i < kRounds; ++i) {
      const PhaseResult& part = phases[2 * i];
      const PhaseResult& idle = phases[2 * i + 1];
      print_phase("closed load", part);
      print_phase("unloaded", idle);
      rate.push_back(throughput(part));
      cpu_rate.push_back(static_cast<double>(part.windows) / part.cpu_s);
      cycle_cpu_rate.push_back(part.cycles / part.cpu_s);
      p50.push_back(idle.latency.median);
    }
    std::printf("  medians over the %u parts: closed %.0f win/s wall, %.0f win/CPU-s; "
                "unloaded p50 %.4f ms\n",
                kRounds, median(rate), median(cpu_rate), median(p50));
    for (std::size_t i = open0; i < phases.size(); ++i) {
      print_phase(i < open0 + 2 ? "open loop at" : "ladder probe", phases[i]);
    }
    std::printf("  max rate meeting p99 <= %.0f ms without a growing backlog: %.0f win/s\n",
                kLimitMs, lo >= 0 ? rung_rate(static_cast<unsigned>(lo)) : 0.0);
    std::vector<double> lag;
    for (const PhaseResult& p : phases) lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
    print_summary("generator lag (open loop)", summarize(lag), "ms");
    add_end_to_end(out.metrics, ref, setup, median(cycle_cpu_rate), median(cpu_rate),
                   phases[0].cycles, phases[0].pj * 1e-6, out.attempted, out.failed);
    return out;
  }

  // Traced run: kTracedParts closed parts and then as many unloaded parts,
  // untraced (the overhead baseline); the same with the program's v6 spans
  // on; one of each straight into the stream layer; last a short open loop
  // for the generator's lag.
  auto block = [&](const Load& load) {  // returns the first part's index
    for (unsigned i = 0; i < kTracedParts; ++i) {
      phases.push_back(gateway_phase(*rig, sig, load));
    }
    return phases.size() - kTracedParts;
  };
  const std::size_t base_c = block(closed), base_u = block(unloaded);
  runtime::DevicePool& pool = rig->server->streams().pool();
  const runtime::FleetStats f0 = pool.stats();
  obs::set_spans(true);
  const std::size_t tr_c = block(closed);
  const std::uint64_t ledger_from = now_ns();
  const std::size_t tr_u = block(unloaded);
  obs::set_spans(false);
  const runtime::FleetStats f1 = pool.stats();
  phases.push_back(stream_phase(artifact, sig, closed));
  phases.push_back(stream_phase(artifact, sig, unloaded));
  phases.push_back(gateway_phase(*rig, sig, Load::open(kRefRate, lag_phase_s)));
  check_all();
  const PhaseResult& direct = phases[phases.size() - 2];
  const PhaseResult& lag_phase = phases.back();
  auto parts = [&](std::size_t first) {
    return std::span<const PhaseResult>(phases).subspan(first, kTracedParts);
  };
  auto median_p50 = [&](std::size_t first) {
    std::vector<double> v;
    for (const PhaseResult& p : parts(first)) v.push_back(p.latency.median);
    return median(v);
  };
  auto median_rate = [&](std::size_t first) {
    std::vector<double> v;
    for (const PhaseResult& p : parts(first)) v.push_back(throughput(p));
    return median(v);
  };
  const char* labels[4] = {"gateway closed, untraced", "gateway unloaded, untraced",
                           "gateway closed, traced", "gateway unloaded, traced"};
  const std::size_t firsts[4] = {base_c, base_u, tr_c, tr_u};
  for (unsigned g = 0; g < 4; ++g) {
    for (const PhaseResult& p : parts(firsts[g])) print_phase(labels[g], p);
  }
  print_phase("stream layer closed, direct", phases[phases.size() - 3]);
  print_phase("stream layer unloaded, direct", direct);
  print_phase("open loop at", lag_phase);
  const double base_p50 = median_p50(base_u), tr_p50 = median_p50(tr_u);
  const double base_rate = median_rate(base_c), tr_rate = median_rate(tr_c);
  std::printf("  tracing overhead (medians over %u parts): unloaded p50 %.4f ms traced vs "
              "%.4f ms untraced (%+.1f%%); closed %.0f win/s traced vs %.0f untraced (%+.1f%%)\n",
              kTracedParts, tr_p50, base_p50, 100.0 * (tr_p50 / base_p50 - 1.0), tr_rate,
              base_rate, 100.0 * (base_rate / tr_rate - 1.0));
  if (f1.batch_groups != f0.batch_groups) {
    // Only FIR jobs form fleet groups; bio and pipeline windows never do,
    // so each window's run_ns below is its own.
    std::printf("  note: %llu fleet groups formed; run times count a group per lane\n",
                static_cast<unsigned long long>(f1.batch_groups - f0.batch_groups));
  }

  // Spans of the traced unloaded parts, one tree per window: the window
  // (first push -> result) holds its four push calls and the server-side
  // queue/run/deliver spans (v6 durations, laid end to end from the last
  // push's return). What they leave uncovered inside a window is gateway
  // time: codec, transport, reader/writer threads, windowing. Between
  // windows, the ledger's residual is the generator's own time.
  SpanLog log;
  std::vector<double> residual_ms, push_ns, queue, deliver;
  std::uint64_t ledger_to = ledger_from;
  for (const PhaseResult& tr : parts(tr_u)) {
    for (unsigned k = 0; k < kStreams; ++k) {
      const StreamRec& s = tr.streams[k];
      for (std::size_t w = 0; w < s.latency_ms.size(); ++w) {
        const unsigned first = static_cast<unsigned>(w) * kChunksPerWindow;
        const unsigned last = first + kChunksPerWindow - 1;
        const std::uint64_t id = (std::uint64_t{k} << 32) | w;
        const std::int64_t root =
            log.add("gateway.window", s.push_begin[first], s.arrive[w], -1, id);
        for (unsigned c = first; c <= last; ++c) {
          log.add("gateway.Client::push", s.push_begin[c], s.push_end[c], root, id);
          push_ns.push_back(static_cast<double>(s.push_end[c] - s.push_begin[c]));
        }
        std::uint64_t t = s.push_end[last];
        log.add("runtime.queue_wait", t, t + s.queue_ns[w], root, id);
        t += s.queue_ns[w];
        log.add("runtime.Device::run", t, t + s.run_ns[w], root, id);
        t += s.run_ns[w];
        log.add("stream.deliver", t, t + s.deliver_ns[w], root, id);
        queue.push_back(static_cast<double>(s.queue_ns[w]));
        deliver.push_back(static_cast<double>(s.deliver_ns[w]));
        residual_ms.push_back(latency_ms(s.push_end[last], s.arrive[w]) -
                              static_cast<double>(s.queue_ns[w] + s.run_ns[w] +
                                                  s.deliver_ns[w]) * 1e-6);
        ledger_to = std::max(ledger_to, s.arrive[w]);
      }
    }
  }
  print_ledger(log, ledger_from, ledger_to);
  const std::string spans = opt.work_dir + "/spans-gateway-open.json";
  if (!log.write(spans, ledger_from)) throw std::runtime_error("cannot write " + spans);
  std::printf("  spans: %s\n", spans.c_str());

  // Codec cost per frame, on the PUSH_SAMPLES frames of the traced
  // unloaded parts.
  std::vector<gateway::Frame> frames;
  for (const PhaseResult& p : parts(tr_u)) {
    for (unsigned k = 0; k < kStreams; ++k) {
      for (std::size_t i = 0; i < p.streams[k].push_begin.size(); ++i) {
        const auto first = sig[k].begin() + static_cast<std::ptrdiff_t>(i * kChunk);
        frames.emplace_back(gateway::PushSamples{k + 1, {first, first + kChunk}});
      }
    }
  }
  const std::size_t n_frames = frames.size();
  std::vector<std::uint8_t> wire;
  const std::uint64_t e0 = now_ns();
  for (const gateway::Frame& f : frames) gateway::encode(f, wire);
  const std::uint64_t e1 = now_ns();
  gateway::Decoder dec;
  dec.feed(wire);
  std::size_t decoded = 0;
  while (dec.next()) ++decoded;
  const std::uint64_t e2 = now_ns();
  if (decoded != n_frames) throw std::runtime_error("codec round trip lost frames");

  // Host run time of every traced part (for the replay cost per cycle) and
  // of the closed ones alone (for the workers' busy share).
  double run_total = 0, run_closed = 0, closed_s = 0;
  std::vector<double> bio_run, pipe_run;
  for (std::size_t i = tr_c; i < tr_u + kTracedParts; ++i) {
    const bool is_closed = i < tr_c + kTracedParts;
    if (is_closed) closed_s += phases[i].last_arrival_s;
    for (unsigned k = 0; k < kStreams; ++k) {
      for (std::uint64_t r_ns : phases[i].streams[k].run_ns) {
        const double r = static_cast<double>(r_ns);
        (is_pipeline(k) ? pipe_run : bio_run).push_back(r);
        run_total += r;
        if (is_closed) run_closed += r;
      }
    }
  }
  MetricSet& m = out.metrics;
  add_fleet_metrics(m, f0, f1, run_total);
  m.add("runtime.device_run_ns.pipeline", median(pipe_run), "ns");
  m.add("runtime.device_run_ns.bio", median(bio_run), "ns");
  m.add("runtime.pool_wait_ns", median(queue), "ns");
  m.add("runtime.worker_busy", run_closed / (closed_s * 1e9 * kWorkers), "ratio");
  m.add("stream.window_latency_p50_ms", direct.latency.median, "ms");
  m.add("stream.deliver_ns", median(deliver), "ns");
  m.add("gateway.encode_ns_per_frame", static_cast<double>(e1 - e0) / n_frames, "ns");
  m.add("gateway.decode_ns_per_frame", static_cast<double>(e2 - e1) / n_frames, "ns");
  m.add("gateway.client_push_ns", median(push_ns), "ns");
  m.add("gateway.residual_ms", median(residual_ms), "ms");
  m.add("gateway.overhead_ms", base_p50 - direct.latency.median, "ms");

  // Artifact hydration alone: a bare pool constructed with prewarm.
  std::vector<double> prewarm;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    runtime::DevicePool bare(pool_config(artifact));
    prewarm.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  m.add("artifact.prewarm_s", median(prewarm), "s");
  m.add("artifact.misses", static_cast<double>(f1.artifact_misses), "count");
  const Summary lag_s = summarize(lag_phase.lag_ms);
  print_summary("generator lag (open loop)", lag_s, "ms");
  m.add("loadgen.lag_p99_ms", lag_s.at(0.99), "ms");
  m.add("error_rate", static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "ratio");
  return out;
}

}  // namespace perfbench
