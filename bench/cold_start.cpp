// Cold-start latency: process start -> fleet fully warm, with and without
// the prebuilt binary artifact (src/artifact/).
//
// "Warm" means every kernel image and compiled trace a device can ever use
// is resident, so no job pays a first-touch assembly or trace-compilation
// hiccup. A cold fleet can only get there one way: execute the whole
// catalog (the warm-up wave IS simulated work). A fleet with the artifact
// attached gets there in the constructor -- Config::artifact_prewarm
// hydrates every entry with a flat bounds-checked parse of the mmap, no
// simulation at all. That asymmetry is the artifact's reason to exist, and
// this bench gates it: fleet-ready time must improve by >= 2x.
//
// After both fleets are warm the same catalog wave is executed and the
// output hashes compared -- hydration must be bit-identical (the
// cycle/energy identity is pinned by tests/test_runtime_jobs.cpp). The
// replay counters (traced launches, rollbacks, sync points, per-tier
// cycles) must match exactly too: a hydrated trace plans the same replay
// tiers as a compiled one, so a prewarmed fleet never pays rollbacks a
// cold fleet does not.
//
// Appends cold_start_cold / cold_start_warm records to BENCH_runtime.json
// for the nightly perf-trajectory artifact. Exit 1 on gate or identity
// failure.

#include <array>
#include <chrono>
#include <cstdio>
#include <vector>

#include "artifact/builder.hpp"
#include "bench/bench_util.hpp"
#include "runtime/pool.hpp"

int main() {
  using namespace vwr2a;
  using Clock = std::chrono::steady_clock;

  const std::vector<soc::ArchConfig> variants = artifact::default_variants();
  const std::string path = "/tmp/vwr2a_cold_start.vwr2art";

  const auto tb0 = Clock::now();
  const artifact::BuildInfo built = artifact::build_artifact(path, variants);
  const double build_s =
      std::chrono::duration<double>(Clock::now() - tb0).count();
  std::printf("artifact: %zu images, %zu traces, %.1f KiB, built in %.2fs\n",
              built.images, built.traces, built.bytes / 1024.0, build_s);

  // The first-touch wave: the full catalog, once per device (pinned), so
  // every device assembles/compiles -- or hydrates -- its whole working set.
  auto make_wave = [&](unsigned devices) {
    std::vector<runtime::Job> jobs;
    for (unsigned d = 0; d < devices; ++d) {
      for (runtime::Job job : artifact::catalog_jobs()) {
        job.pin = static_cast<int>(d);
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  };

  struct Run {
    double ready_s = 0.0;      ///< process start -> fleet fully warm
    double first_job_s = 0.0;  ///< process start -> first job completed
    double wave_s = 0.0;       ///< the catalog wave, measured post-warm
    std::uint64_t hash = 1469598103934665603ull;
    runtime::FleetStats stats;
  };
  auto hash_outputs = [](std::vector<runtime::JobHandle>& handles,
                         std::uint64_t h) {
    for (auto& hd : handles) {
      for (std::int32_t w : hd.get().output) {
        h = (h ^ static_cast<std::uint32_t>(w)) * 1099511628211ull;
      }
    }
    return h;
  };
  auto measure = [&](bool warm) {
    Run best;
    for (int rep = 0; rep < 3; ++rep) {
      runtime::DevicePool::Config cfg;
      cfg.devices = static_cast<unsigned>(variants.size());
      cfg.device_arch = variants;
      cfg.artifact_path = warm ? path : "";
      cfg.artifact_env = false;  // this bench controls the path explicitly
      cfg.artifact_prewarm = warm;
      Run r;
      const auto t0 = Clock::now();
      runtime::DevicePool pool(cfg);
      auto warmup = std::chrono::duration<double>(Clock::now() - t0).count();
      auto handles = pool.submit_batch(make_wave(cfg.devices));
      handles[0].wait();
      r.first_job_s = std::chrono::duration<double>(Clock::now() - t0).count();
      pool.wait_idle();
      const auto t1 = Clock::now();
      // Cold fleets are warm only after the wave; prewarmed fleets were
      // warm when the constructor returned.
      r.ready_s = warm ? warmup
                       : std::chrono::duration<double>(t1 - t0).count();
      r.hash = hash_outputs(handles, r.hash);
      // A second wave on the now-warm fleet: pure simulation, the floor
      // both configurations share.
      auto handles2 = pool.submit_batch(make_wave(cfg.devices));
      pool.wait_idle();
      r.wave_s = std::chrono::duration<double>(Clock::now() - t1).count();
      hash_outputs(handles2, 0);  // drain
      r.stats = pool.stats();
      if (rep == 0 || r.ready_s < best.ready_s) best = std::move(r);
    }
    return best;
  };

  const Run cold = measure(false);
  const Run warm = measure(true);

  const double ready_speedup = cold.ready_s / warm.ready_s;
  bench::header("cold start (6-variant fleet, full-catalog working set)");
  std::printf(
      "  cold: fleet ready %7.2f ms (executes the catalog: %llu images built, "
      "%llu traces compiled), first job %6.2f ms\n",
      cold.ready_s * 1e3,
      static_cast<unsigned long long>(cold.stats.image_cache.builds),
      static_cast<unsigned long long>(cold.stats.trace_cache.compiled),
      cold.first_job_s * 1e3);
  std::printf(
      "  warm: fleet ready %7.2f ms (prewarm: %llu images, %llu traces "
      "hydrated), first job %6.2f ms\n",
      warm.ready_s * 1e3,
      static_cast<unsigned long long>(warm.stats.image_cache.hydrated),
      static_cast<unsigned long long>(warm.stats.trace_cache.hydrated),
      warm.first_job_s * 1e3);
  std::printf("  warm-fleet catalog wave: cold %.2f ms, warm %.2f ms (shared sim floor)\n",
              cold.wave_s * 1e3, warm.wave_s * 1e3);
  std::printf("  fleet-ready speedup: %.2fx (gate: >= 2x)\n", ready_speedup);

  bench::JsonRecord("cold_start_cold")
      .field("ready_s", cold.ready_s)
      .field("first_job_s", cold.first_job_s)
      .field("wave_s", cold.wave_s)
      .field("builds", cold.stats.image_cache.builds)
      .field("traces_compiled", cold.stats.trace_cache.compiled)
      .write();
  bench::JsonRecord("cold_start_warm")
      .field("ready_s", warm.ready_s)
      .field("first_job_s", warm.first_job_s)
      .field("wave_s", warm.wave_s)
      .field("images_hydrated", warm.stats.image_cache.hydrated)
      .field("traces_hydrated", warm.stats.trace_cache.hydrated)
      .field("artifact_bytes", static_cast<std::uint64_t>(built.bytes))
      .field("artifact_build_s", build_s)
      .field("ready_speedup", ready_speedup)
      .write();

  if (cold.hash != warm.hash) {
    std::printf("FAIL: warm outputs diverge from cold (hash mismatch)\n");
    return 1;
  }
  // Both fleets ran the same pinned waves, so equal replay tiers mean
  // exactly equal counters.
  auto tiers = [](const runtime::FleetStats& s) {
    return std::array<std::uint64_t, 6>{
        s.traced_launches,         s.traced_rollbacks,
        s.replay_sync_points,      s.replay_decoupled_cycles,
        s.replay_lockstep_cycles,  s.replay_interpreted_cycles};
  };
  const auto ct = tiers(cold.stats);
  const auto wt = tiers(warm.stats);
  std::printf("  replay (launches, rollbacks, sync points, decoupled/lockstep/"
              "interpreted cycles):\n");
  for (const auto& [name, t] : {std::pair{"cold", ct}, std::pair{"warm", wt}}) {
    std::printf("    %s: %llu, %llu, %llu, %llu/%llu/%llu\n", name,
                static_cast<unsigned long long>(t[0]),
                static_cast<unsigned long long>(t[1]),
                static_cast<unsigned long long>(t[2]),
                static_cast<unsigned long long>(t[3]),
                static_cast<unsigned long long>(t[4]),
                static_cast<unsigned long long>(t[5]));
  }
  if (ct != wt) {
    std::printf("FAIL: warm fleet replay tiers diverge from cold\n");
    return 1;
  }
  if (!warm.stats.artifact_attached ||
      warm.stats.image_cache.hydrated == 0 ||
      warm.stats.trace_cache.hydrated == 0 ||
      warm.stats.image_cache.builds != 0) {
    std::printf("FAIL: warm fleet did not hydrate its working set (builds %llu)\n",
                static_cast<unsigned long long>(warm.stats.image_cache.builds));
    return 1;
  }
  if (ready_speedup < 2.0) {
    std::printf("FAIL: fleet-ready speedup %.2fx < 2x gate\n", ready_speedup);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
