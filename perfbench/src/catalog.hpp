#pragma once
// The metric catalog: every end-to-end and per-layer metric the benchmark
// reports, with its unit. BENCHMARK.json lists the same names (checked by
// perfbench/test_run.py through `perfbench --list-metrics`).

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The kernel set of kernels-interp, in run order. paper_cycles is the
/// paper's VWR2A cycle count (Tables 2 and 4), 0 where it gives none.
struct KernelDef {
  std::string label;
  double paper_cycles = 0.0;
};
const std::vector<KernelDef>& kernel_set();

/// Job families of runtime::Job::work, in variant order.
const std::vector<std::string>& job_families();

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& layer_metrics();

}  // namespace perfbench
