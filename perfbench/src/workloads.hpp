#pragma once
// The three workloads. Each runs for `seconds`, checks every output it
// gets, and fills one metric set: the end-to-end metrics when untraced,
// the per-layer metrics when traced.

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "runtime/pool.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< where spans and the artifact are written
};

struct Outcome {
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, refused or wrong-output operations
};

Outcome run_kernels_interp(const Options& opt);
Outcome run_fleet_replay(const Options& opt);
Outcome run_gateway_open(const Options& opt);

/// Adds the per-layer metrics no workload-specific code sets, as 0 --
/// a layer that does no work on a workload reports zero work -- so every
/// traced run prints the same metric set.
void complete_layer_metrics(MetricSet& m);

/// End-to-end metrics shared by every workload, in BENCHMARK.json order.
/// Host time is process CPU time (cpu_ns) converted into reference CPU
/// time by the run's `ref`: the set-up time is the median of
/// `setup_cpu_s`, and the throughputs come in per CPU second. Wall-clock
/// rates and latencies are printed, not gated: on a shared host they move
/// with the host's load.
void add_end_to_end(MetricSet& m, const RefSpeed& ref, const std::vector<double>& setup_cpu_s,
                    double cycles_per_cpu_s, double jobs_per_cpu_s, double sim_cycles,
                    double sim_energy_uj, std::uint64_t attempted, std::uint64_t failed);

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// The trace-cache architecture mix of fleet-replay and gateway-open:
/// baseline, 2-VWR, 4-VWR and SIMD-16, device d taking entry d % 4.
std::vector<vwr2a::soc::ArchConfig> trace_fleet_mix();

/// A pool of `devices` trace-cache devices in that mix with `workers`
/// workers; the artifact is neither read from the environment nor attached.
vwr2a::runtime::DevicePool::Config trace_fleet_config(unsigned devices,
                                                      unsigned workers);

/// Adds the fleet's replay-tier, trace-cache, staging and batching
/// counters between two snapshots, per completed job. `run_ns` is the
/// host time spent in Device::run over the same interval, each batched
/// group's shared run window counted once.
void add_fleet_metrics(MetricSet& m, const vwr2a::runtime::FleetStats& s0,
                       const vwr2a::runtime::FleetStats& s1, double run_ns);

}  // namespace perfbench
