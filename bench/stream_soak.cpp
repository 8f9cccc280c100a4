// Streaming soak: the headline scaling benchmark of the stream layer.
// 16 tenant sessions (heavy whole-app BioTracker streams alternating with
// lighter FIR->energy->rFFT feature pipelines) push a fixed number of
// windows each onto a 4-device heterogeneous fleet, three times:
//   * baseline: round-robin session placement, SPM residency tracking and
//     cross-job staging dedup disabled (the PR-2 runtime);
//   * tuned: shortest-local-clock placement + residency + dedup;
//   * trace: the tuned config on ExecMode::kTraceCache -- identical
//     simulated behaviour (outputs, makespan, stagings), kTraceGate times
//     less host wall-clock per simulated cycle;
//   * trace @ fleet 16: the tuned trace config scaled to a 16-device
//     mixed fleet -- the host driver-path tracking config (per-descriptor
//     DMA programming, per-window session bookkeeping). Its
//     sim_cycles_per_host_second record tracks that path run over run:
//     measured at PR 5, ~85% of its host time is inside Device::run (the
//     simulated kernels), so the driver path is no longer the ceiling.
// Same sample streams, same windows, bit-identical outputs across all
// configs. Exit status enforces tuned < baseline (simulated), the
// trace/tuned identity (and fleet-16 output identity), and the kTraceGate
// host speedup, taken between the medians of bench::kGateReps alternating
// tuned and trace runs. The gate was 5x over the per-cycle switch
// interpreter; the pre-resolved interpreter runs the tuned config
// kInterpSpeedup times faster, so the same replay ceiling is
// 5x / kInterpSpeedup over it. Machine-readable records land in
// BENCH_runtime.json for the nightly perf-trajectory artifact.

#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_util.hpp"
#include "stream/server.hpp"

namespace {

/// Interpreter-leg speedup of the tuned config when the interpreter moved
/// to pre-resolved lines: median over 7 alternating runs of the switch-
/// interpreter and pre-resolved builds on one host (4-core x86-64).
constexpr double kInterpSpeedup = 3.54;
/// The trace-over-interpreter gate: the old 5x, re-based by that speedup.
constexpr double kTraceGate = 5.0 / kInterpSpeedup;

}  // namespace

int main() {
  using namespace vwr2a;
  using Clock = std::chrono::steady_clock;

  constexpr unsigned kSessions = 16;
  constexpr unsigned kWindowsPerSession = 12;
  constexpr unsigned kChunk = 160;  // push granularity (samples)

  // Fixed per-tenant streams: even sessions run the whole application
  // (heavy), odd sessions the feature pipeline (light).
  std::vector<std::vector<std::int32_t>> streams;
  for (unsigned i = 0; i < kSessions; ++i) {
    dsp::RespirationParams p;
    p.breath_hz = 0.15 + 0.05 * (i % 8);
    Rng rng(4000 + i);
    streams.push_back(dsp::respiration_q16_15(
        kWindowsPerSession * app::kWindow, p, rng));
  }

  struct Run {
    stream::ServerStats stats;
    /// FNV-1a over every delivered output word, per session in window
    /// order: the configs must agree bit-for-bit.
    std::vector<std::uint64_t> output_hash;
    double wall_ms = 0.0;
  };
  auto soak = [&streams](runtime::Schedule sched, bool residency,
                         cgra::ExecMode mode, unsigned devices = 4) {
    stream::StreamServer::Config cfg;
    cfg.pool.devices = devices;
    cfg.pool.schedule = sched;
    cfg.pool.device_opts.residency = residency;
    cfg.pool.device_opts.dedup = residency;
    const std::vector<soc::ArchConfig> mix = {
        soc::ArchConfig{.exec_mode = mode},
        soc::ArchConfig{.vwr_count = 2, .exec_mode = mode},
        soc::ArchConfig{.vwr_count = 4, .exec_mode = mode},
        soc::ArchConfig{.simd_width = 16, .exec_mode = mode}};
    for (unsigned d = 0; d < devices; ++d) {
      cfg.pool.device_arch.push_back(mix[d % 4]);
    }
    stream::StreamServer server(cfg);

    // One shared taps buffer across every pipeline tenant: cross-job dedup
    // stages it once per device per residency interval.
    const auto taps = runtime::make_buffer(dsp::fir11_lowpass_q15());
    std::vector<std::uint64_t> hashes(streams.size(), 1469598103934665603ull);
    std::vector<stream::Session*> sessions;
    for (unsigned i = 0; i < streams.size(); ++i) {
      stream::SessionConfig scfg;
      if (i % 2 == 1) {
        scfg.kind = stream::SessionKind::kPipeline;
        scfg.taps = taps;
      }
      sessions.push_back(
          &server.open_session(scfg, [&hashes](const stream::WindowResult& r) {
            std::uint64_t& h = hashes[r.session];
            for (std::int32_t w : r.job.output) {
              h = (h ^ static_cast<std::uint32_t>(w)) * 1099511628211ull;
            }
          }));
    }

    const auto t0 = Clock::now();
    for (std::size_t off = 0;; off += kChunk) {
      bool any = false;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (off >= streams[i].size()) continue;
        const std::size_t take =
            std::min<std::size_t>(kChunk, streams[i].size() - off);
        sessions[i]->push(
            std::span<const std::int32_t>(streams[i]).subspan(off, take));
        any = true;
      }
      if (!any) break;
    }
    server.finish();
    Run r;
    r.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    r.stats = server.stats();
    r.output_hash = std::move(hashes);
    return r;
  };

  bench::header("Stream soak: 16 sessions x 12 windows, 4-device mixed fleet");
  std::printf("  %-28s | %13s %11s %9s %9s | %8s\n", "config", "makespan cyc",
              "windows/s", "occup", "stagings", "wall ms");

  const Run base =
      soak(runtime::Schedule::kRoundRobin, false, cgra::ExecMode::kInterpret);
  Run tuned, traced;
  const bench::Paired engines = bench::time_alternating(
      bench::kGateReps,
      [&] {
        tuned = soak(runtime::Schedule::kShortestLocalClock, true,
                     cgra::ExecMode::kInterpret);
        return tuned.wall_ms;
      },
      [&] {
        traced = soak(runtime::Schedule::kShortestLocalClock, true,
                      cgra::ExecMode::kTraceCache);
        return traced.wall_ms;
      });
  // Report each engine's median run; the last run carries its results.
  tuned.wall_ms = bench::median(engines.a);
  traced.wall_ms = bench::median(engines.b);
  const Run fleet16 = soak(runtime::Schedule::kShortestLocalClock, true,
                           cgra::ExecMode::kTraceCache, /*devices=*/16);
  auto row = [](const char* name, const Run& r) {
    std::printf("  %-28s | %13llu %11.0f %9.2f %9llu | %8.1f\n", name,
                static_cast<unsigned long long>(r.stats.fleet.fleet_makespan),
                r.stats.windows_per_sim_second(), r.stats.fleet_occupancy(),
                static_cast<unsigned long long>(r.stats.fleet.stagings),
                r.wall_ms);
  };
  row("round-robin, no residency", base);
  row("shortest-clock + residency", tuned);
  row("  + trace-cache engine", traced);
  row("  trace engine, fleet 16", fleet16);

  const double gain =
      base.stats.fleet.fleet_makespan > 0
          ? 1.0 - static_cast<double>(tuned.stats.fleet.fleet_makespan) /
                      static_cast<double>(base.stats.fleet.fleet_makespan)
          : 0.0;
  std::printf("\n  per-session mean latency (tuned, cycles):\n    ");
  for (const auto& s : tuned.stats.sessions) {
    std::printf("s%llu:%.0f ", static_cast<unsigned long long>(s.id),
                s.mean_latency_cycles());
  }
  std::printf("\n\n  makespan reduction: %.1f%% (%s)\n", gain * 100.0,
              gain > 0.0 ? "tuned wins" : "REGRESSION");

  const bool identical = tuned.output_hash == base.output_hash;
  if (!identical) std::printf("  OUTPUT MISMATCH between configs\n");

  // Trace-cache identity: same simulated universe as the tuned config --
  // outputs, makespan, stagings, fleet energy -- at a fraction of the host
  // wall-clock.
  const bool trace_identical =
      traced.output_hash == tuned.output_hash &&
      traced.stats.fleet.fleet_makespan == tuned.stats.fleet.fleet_makespan &&
      traced.stats.fleet.stagings == tuned.stats.fleet.stagings &&
      traced.stats.fleet.total_pj == tuned.stats.fleet.total_pj &&
      traced.stats.windows_delivered == tuned.stats.windows_delivered;
  const double trace_speedup = engines.speedup();
  std::printf("  trace-cache: %s identity, %.2fx host speedup, median of %u "
              "runs each (%s %.2fx target = old 5x / interpreter speedup s "
              "%.2f)\n",
              trace_identical ? "bit/cycle/energy" : "BROKEN", trace_speedup,
              bench::kGateReps,
              trace_speedup >= kTraceGate ? "meets" : "MISSES", kTraceGate,
              kInterpSpeedup);

  struct Named {
    const char* name;
    const Run* run;
  };
  for (const Named& n : {Named{"round_robin_interpret", &base},
                         Named{"tuned_interpret", &tuned},
                         Named{"tuned_trace_cache", &traced},
                         Named{"tuned_trace_cache_fleet16", &fleet16}}) {
    const Run& r = *n.run;
    bench::JsonRecord("stream_soak")
        .field("config", std::string(n.name))
        .field("windows",
               static_cast<std::uint64_t>(r.stats.windows_delivered))
        .field("makespan_cycles",
               static_cast<std::uint64_t>(r.stats.fleet.fleet_makespan))
        .field("stagings", static_cast<std::uint64_t>(r.stats.fleet.stagings))
        .field("wall_seconds", r.wall_ms * 1e-3)
        .field("sim_cycles_per_host_second",
               static_cast<double>(r.stats.fleet.total_device_cycles) /
                   (r.wall_ms * 1e-3))
        .field("windows_per_sim_second", r.stats.windows_per_sim_second())
        .write();
  }

  // Outputs are device-count-invariant: the fleet-16 run must agree bit
  // for bit with the 4-device tuned run.
  const bool fleet16_identical = fleet16.output_hash == tuned.output_hash &&
                                 fleet16.stats.windows_delivered ==
                                     tuned.stats.windows_delivered;
  if (!fleet16_identical) std::printf("  FLEET-16 OUTPUT MISMATCH\n");

  const bool ok =
      identical &&
      tuned.stats.fleet.fleet_makespan < base.stats.fleet.fleet_makespan &&
      tuned.stats.fleet.stagings < base.stats.fleet.stagings &&
      tuned.stats.windows_delivered == base.stats.windows_delivered &&
      trace_identical && fleet16_identical && trace_speedup >= kTraceGate;
  return ok ? 0 : 1;
}
