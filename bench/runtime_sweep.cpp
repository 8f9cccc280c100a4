// Architecture ablation sweep as ONE heterogeneous runtime batch: a fleet
// of six devices -- VWR count {2, 3, 4} x SIMD width {32, 16} -- each
// serving the full kernel catalog (FIR, cFFT, rFFT, iFFT, reduction,
// delineation, whole-app window) pinned to its variant. Per-job costs come
// back through the normal future path; per-variant fleet stats close the
// loop the ROADMAP asks for (Sec 3.2 / 5.1.1 ablations in a single run).
//
// Outputs are bit-identical across variants (the variants share the
// functional model); only the modeled cycles/energy move, reproducing the
// U-shape in energy*delay the paper reports for the VWR count. Exits
// nonzero on any cross-variant output mismatch, or unless vwr3 has the
// lowest energy*delay of the three VWR counts at each SIMD width.

#include <cstdio>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "runtime/pool.hpp"

int main() {
  using namespace vwr2a;

  const std::vector<soc::ArchConfig> variants = {
      {.vwr_count = 2, .simd_width = 32}, {.vwr_count = 3, .simd_width = 32},
      {.vwr_count = 4, .simd_width = 32}, {.vwr_count = 2, .simd_width = 16},
      {.vwr_count = 3, .simd_width = 16}, {.vwr_count = 4, .simd_width = 16},
  };

  runtime::DevicePool::Config cfg;
  cfg.devices = static_cast<unsigned>(variants.size());
  cfg.device_arch = variants;
  runtime::DevicePool pool(cfg);

  // One shared input set for every variant (buffers alias fleet-wide).
  Rng rng(21);
  auto q15 = [&rng](unsigned n, double lim) {
    std::vector<std::int32_t> x(n);
    for (auto& v : x) v = fx::to_q16_15(rng.next_range(-lim, lim));
    return runtime::make_buffer(std::move(x));
  };
  const auto taps = runtime::make_buffer(dsp::fir11_lowpass_q15());
  const auto fir_x = q15(512, 0.9);
  const auto cfft_x = q15(2 * 512, 0.4);
  const auto rfft_x = q15(512, 0.4);
  const auto ifft_x = q15(2 * 256, 0.4);
  const auto red_x = q15(512, 0.9);
  dsp::RespirationParams rp;
  Rng sig(22);
  const auto delin_x = runtime::make_buffer(dsp::respiration_q16_15(512, rp, sig));
  Rng sigw(23);
  const auto win = dsp::respiration(app::kWindow, rp, sigw);
  std::vector<std::int32_t> winq(app::kWindow);
  for (unsigned i = 0; i < app::kWindow; ++i) winq[i] = fx::to_q16_15(win[i]);
  const auto bio_x = runtime::make_buffer(std::move(winq));

  struct CatalogEntry {
    const char* name;
    runtime::Job job;
  };
  const std::vector<CatalogEntry> catalog = {
      {"fir-512", {runtime::FirJob{512, taps, fir_x}, ""}},
      {"cfft-512", {runtime::CfftJob{512, cfft_x}, ""}},
      {"rfft-512", {runtime::RfftJob{512, rfft_x}, ""}},
      {"ifft-256", {runtime::IfftJob{256, ifft_x}, ""}},
      {"energy-512", {runtime::ReduceJob{runtime::ReduceOp::kEnergy, 512, red_x}, ""}},
      {"delin-512", {runtime::DelineationJob{512, fx::to_q16_15(0.08), delin_x}, ""}},
      {"bioapp-512", {runtime::BioTrackerJob{app::Target::kCpuVwr2a, bio_x}, ""}},
  };

  // The whole sweep is one batch: catalog x variants, each job pinned.
  std::vector<runtime::Job> jobs;
  for (unsigned d = 0; d < cfg.devices; ++d) {
    for (const CatalogEntry& e : catalog) {
      runtime::Job job = e.job;
      job.tag = e.name;
      job.pin = static_cast<int>(d);
      jobs.push_back(std::move(job));
    }
  }
  auto handles = pool.submit_batch(std::move(jobs));
  std::vector<runtime::JobResult> results;
  results.reserve(handles.size());
  for (auto& h : handles) results.push_back(h.get());

  std::printf("==== Runtime ablation sweep: VWR count x SIMD width, one "
              "heterogeneous batch ====\n");
  std::printf("  %-10s", "job");
  for (const auto& v : variants) std::printf(" | %14s", v.name().c_str());
  std::printf("\n");
  const std::size_t per = catalog.size();
  for (std::size_t j = 0; j < per; ++j) {
    std::printf("  %-10s", catalog[j].name);
    for (std::size_t d = 0; d < variants.size(); ++d) {
      const auto& r = results[d * per + j];
      std::printf(" | %8llu cyc",
                  static_cast<unsigned long long>(r.cost.total_cycles()));
    }
    std::printf("\n  %-10s", "");
    for (std::size_t d = 0; d < variants.size(); ++d) {
      const auto& r = results[d * per + j];
      std::printf(" | %11.3f uJ", r.cost.total_uj());
    }
    std::printf("\n");
  }

  // Outputs must be bit-identical across variants.
  unsigned mismatches = 0;
  for (std::size_t j = 0; j < per; ++j) {
    for (std::size_t d = 1; d < variants.size(); ++d) {
      if (results[d * per + j].output != results[j].output) ++mismatches;
    }
  }
  std::printf("\n  cross-variant output mismatches: %u (must be 0)\n",
              mismatches);

  const runtime::FleetStats s = pool.stats();
  std::printf("\n  per-variant fleet stats (%llu jobs total):\n",
              static_cast<unsigned long long>(s.jobs_completed));
  std::printf("  %-14s | %6s | %12s | %12s | %14s\n", "variant", "jobs",
              "cycles", "energy uJ", "energy*delay");
  const double base_c = static_cast<double>(s.device_cycles[1]);
  const double base_e = s.device_pj[1] * 1e-6;
  std::vector<double> edp(variants.size());
  for (std::size_t d = 0; d < variants.size(); ++d) {
    const double c = static_cast<double>(s.device_cycles[d]);
    const double e = s.device_pj[d] * 1e-6;
    edp[d] = 100.0 * (c * e) / (base_c * base_e);
    std::printf("  %-14s | %6llu | %12.0f | %12.3f | %13.1f%%\n",
                s.device_arch[d].name().c_str(),
                static_cast<unsigned long long>(s.device_jobs[d]), c, e,
                edp[d]);
  }
  std::printf("  (energy*delay relative to the paper's vwr3.w32 design "
              "point)\n");

  // The VWR-count U-shape: at each SIMD width (variants come in groups of
  // vwr2, vwr3, vwr4), vwr3 must have the lowest energy*delay.
  std::printf("\n  paper (Sec 3.2): \"After testing different "
              "implementations, we found out that 3 VWRs represent a good "
              "compromise between performance and energy efficiency.\"\n");
  bool u_shape = true;
  for (std::size_t g = 0; g < variants.size(); g += 3) {
    const bool ok = edp[g + 1] < edp[g] && edp[g + 1] < edp[g + 2];
    std::printf("  w%-2u energy*delay: vwr2 %.1f%% | vwr3 %.1f%% | vwr4 %.1f%%"
                "  -> vwr3 lowest: %s\n",
                variants[g].simd_width, edp[g], edp[g + 1], edp[g + 2],
                ok ? "yes" : "NO");
    u_shape = u_shape && ok;
  }
  std::printf("  image cache: %llu hits, %llu misses, %zu images "
              "(namespaced per variant)\n",
              static_cast<unsigned long long>(s.image_cache.hits),
              static_cast<unsigned long long>(s.image_cache.misses),
              s.image_cache.entries);
  return mismatches == 0 && u_shape ? 0 : 1;
}
