// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload <kernels-interp|fleet-replay|gateway-open>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --list-metrics
//
// The last line of standard output is the JSON result. See
// perfbench/README.md for the workloads and the metric map.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "catalog.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --list-metrics\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricDef& d : end_to_end_metrics()) {
        std::printf("end_to_end %s %s\n", d.name.c_str(), d.unit.c_str());
      }
      for (const MetricDef& d : layer_metrics()) {
        std::printf("per_layer %s %s\n", d.name.c_str(), d.unit.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  Outcome out;
  try {
    std::printf("perfbench %s: seed %llu, %.1f s, trace %d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    if (opt.workload == "kernels-interp") {
      out = run_kernels_interp(opt);
    } else if (opt.workload == "fleet-replay") {
      out = run_fleet_replay(opt);
    } else if (opt.workload == "gateway-open") {
      out = run_gateway_open(opt);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
    if (opt.trace) {
      complete_layer_metrics(out.metrics);
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("metrics:\n");
  out.metrics.print();
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("%s\n",
              out.metrics.to_json(correct, out.attempted, out.failed).c_str());
  return correct ? 0 : 1;
}
