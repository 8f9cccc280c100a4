#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "catalog.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<KernelDef>& kernel_set() {
  static const std::vector<KernelDef> k = {
      {"cfft-512", 7125},      {"cfft-1024", 12405},    {"cfft-2048", 30217},
      {"rfft-512", 3666},      {"rfft-1024", 7133},     {"rfft-2048", 14427},
      {"fir-256", 1849},       {"ifft-512", 0},         {"reduce-min-512", 0},
      {"reduce-max-512", 0},   {"reduce-mean-512", 0},  {"reduce-energy-512", 0},
      {"delin-1024", 0},       {"bio-512", 0},
  };
  return k;
}

const std::vector<std::string>& job_families() {
  static const std::vector<std::string> f = {
      "fir", "cfft", "rfft", "ifft", "reduce", "delineation", "pipeline", "bio"};
  return f;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},
      {"sim_cycles_per_ref_cpu_s", "cycles/s"},
      {"jobs_per_ref_cpu_s", "1/s"},
      {"sim_cycles", "cycles"},
      {"sim_energy_uj", "uJ"},
      {"peak_rss_mb", "MiB"},
      {"ok_ratio", "ratio"},
  };
  return m;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> m = [] {
    std::vector<MetricDef> v = {
        {"cgra.interp_ns_per_cycle", "ns"},
        {"cgra.replay_ns_per_cycle", "ns"},
        {"cgra.decoupled_cycles", "cycles/job"},
        {"cgra.lockstep_cycles", "cycles/job"},
        {"cgra.interpreted_cycles", "cycles/job"},
        {"cgra.sync_points", "count/job"},
        {"cgra.rollbacks", "count/job"},
        {"cgra.batched_launches", "count/job"},
        {"cgra.trace_compiled", "count"},
        {"cgra.trace_hits", "count/job"},
        {"cgra.trace_hydrated", "count"},
    };
    for (const KernelDef& k : kernel_set()) {
      v.push_back({"kernels." + k.label + ".sim_cycles", "cycles"});
      v.push_back({"kernels." + k.label + ".energy_pj", "pJ"});
      if (k.paper_cycles > 0) {
        v.push_back({"kernels." + k.label + ".paper_ratio", "ratio"});
      }
    }
    for (const std::string& f : job_families()) {
      v.push_back({"runtime.device_run_ns." + f, "ns"});
    }
    const std::vector<MetricDef> rest = {
        {"runtime.stagings_per_job", "count/job"},
        {"runtime.pool_submit_ns", "ns"},
        {"runtime.pool_wait_ns", "ns"},
        {"runtime.jobs_batched_ratio", "ratio"},
        {"runtime.worker_busy", "ratio"},
        {"stream.window_latency_p50_ms", "ms"},
        {"stream.deliver_ns", "ns"},
        {"gateway.encode_ns_per_frame", "ns"},
        {"gateway.decode_ns_per_frame", "ns"},
        {"gateway.client_push_ns", "ns"},
        {"gateway.residual_ms", "ms"},
        {"gateway.overhead_ms", "ms"},
        {"artifact.prewarm_s", "s"},
        {"artifact.misses", "count"},
        {"loadgen.lag_p99_ms", "ms"},
        {"error_rate", "ratio"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return m;
}

void complete_layer_metrics(MetricSet& m) {
  for (const Metric& have : m.all()) {
    const auto& defs = layer_metrics();
    const bool known = std::any_of(defs.begin(), defs.end(), [&](const MetricDef& d) {
      return d.name == have.name && d.unit == have.unit;
    });
    if (!known) {
      throw std::logic_error("metric outside the catalog: " + have.name +
                             " [" + have.unit + "]");
    }
  }
  for (const MetricDef& d : layer_metrics()) {
    if (!m.has(d.name)) m.add(d.name, 0.0, d.unit);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return summarize(std::move(v)).median;
}

std::vector<vwr2a::soc::ArchConfig> trace_fleet_mix() {
  using vwr2a::cgra::ExecMode;
  using vwr2a::soc::ArchConfig;
  return {ArchConfig{.exec_mode = ExecMode::kTraceCache},
          ArchConfig{.vwr_count = 2, .exec_mode = ExecMode::kTraceCache},
          ArchConfig{.vwr_count = 4, .exec_mode = ExecMode::kTraceCache},
          ArchConfig{.simd_width = 16, .exec_mode = ExecMode::kTraceCache}};
}

vwr2a::runtime::DevicePool::Config trace_fleet_config(unsigned devices,
                                                      unsigned workers) {
  vwr2a::runtime::DevicePool::Config cfg;
  cfg.devices = devices;
  cfg.workers = workers;
  cfg.artifact_env = false;
  const auto mix = trace_fleet_mix();
  for (unsigned d = 0; d < devices; ++d) cfg.device_arch.push_back(mix[d % mix.size()]);
  return cfg;
}

void add_fleet_metrics(MetricSet& m, const vwr2a::runtime::FleetStats& s0,
                       const vwr2a::runtime::FleetStats& s1, double run_ns) {
  const double jobs = static_cast<double>(s1.jobs_completed - s0.jobs_completed);
  auto per_job = [&](std::uint64_t a, std::uint64_t b) {
    return jobs > 0 ? static_cast<double>(b - a) / jobs : 0.0;
  };
  const double replayed = static_cast<double>(
      (s1.replay_decoupled_cycles - s0.replay_decoupled_cycles) +
      (s1.replay_lockstep_cycles - s0.replay_lockstep_cycles));
  m.add("cgra.replay_ns_per_cycle", replayed > 0 ? run_ns / replayed : 0.0, "ns");
  m.add("cgra.decoupled_cycles",
        per_job(s0.replay_decoupled_cycles, s1.replay_decoupled_cycles), "cycles/job");
  m.add("cgra.lockstep_cycles",
        per_job(s0.replay_lockstep_cycles, s1.replay_lockstep_cycles), "cycles/job");
  m.add("cgra.interpreted_cycles",
        per_job(s0.replay_interpreted_cycles, s1.replay_interpreted_cycles), "cycles/job");
  m.add("cgra.sync_points", per_job(s0.replay_sync_points, s1.replay_sync_points),
        "count/job");
  m.add("cgra.rollbacks", per_job(s0.traced_rollbacks, s1.traced_rollbacks), "count/job");
  m.add("cgra.batched_launches", per_job(s0.batched_launches, s1.batched_launches),
        "count/job");
  m.add("cgra.trace_compiled", static_cast<double>(s1.trace_cache.compiled), "count");
  m.add("cgra.trace_hits", per_job(s0.trace_cache.hits, s1.trace_cache.hits), "count/job");
  m.add("cgra.trace_hydrated", static_cast<double>(s1.trace_cache.hydrated), "count");
  m.add("runtime.stagings_per_job", per_job(s0.stagings, s1.stagings), "count/job");
  m.add("runtime.jobs_batched_ratio", per_job(s0.jobs_batched, s1.jobs_batched), "ratio");
}

void add_end_to_end(MetricSet& m, const RefSpeed& ref, const std::vector<double>& setup_cpu_s,
                    double cycles_per_cpu_s, double jobs_per_cpu_s, double sim_cycles,
                    double sim_energy_uj, std::uint64_t attempted, std::uint64_t failed) {
  ref.print();
  std::printf("  set-up repetitions (CPU s):");
  for (double s : setup_cpu_s) std::printf(" %.4f", s);
  std::printf("\n");
  m.add("setup_s", median(setup_cpu_s) * ref.scale(), "s");
  m.add("sim_cycles_per_ref_cpu_s", cycles_per_cpu_s / ref.scale(), "cycles/s");
  m.add("jobs_per_ref_cpu_s", jobs_per_cpu_s / ref.scale(), "1/s");
  m.add("sim_cycles", sim_cycles, "cycles");
  m.add("sim_energy_uj", sim_energy_uj, "uJ");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");
  m.add("ok_ratio",
        attempted == 0 ? 0.0
                       : 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted),
        "ratio");
}

}  // namespace perfbench
