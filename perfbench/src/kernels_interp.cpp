// kernels-interp: a closed loop on one thread calling runtime::Device::run
// directly -- no pool -- on an interpret-mode baseline device, over the
// paper's kernel set. Almost all host time is the cycle interpreter
// (cgra/column) and the kernel drivers; pool, stream and gateway do no
// work. This is the path the paper-table benches take.

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "catalog.hpp"
#include "cgra/trace.hpp"
#include "jobs.hpp"
#include "runtime/device.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vwr2a;

namespace {

constexpr unsigned kSets = 4;       ///< distinct seeded input sets
constexpr unsigned kSetupReps = 15;  ///< set-up repetitions (median reported)
/// Job samples preallocated per second of run, above any rate seen (about
/// 1500 jobs/s), so peak RSS does not move with the job count.
constexpr double kJobsPerS = 4000;

/// One interpret-mode baseline device with its own image cache.
struct Rig {
  isa::ImageCache cache;
  runtime::Device dev{0, cache};
};

/// Times each kernel launch from the cgra layer's public per-cycle hook:
/// a launch is a run of consecutive interpreted cycles. Attached only in
/// the traced run (the hook already forces the interpreter this workload
/// uses, so execution is unchanged). Every cycle reads the cheap tick
/// counter; ticks become ns at launch end.
class LaunchTimer final : public cgra::Tracer {
 public:
  explicit LaunchTimer(SpanLog& log) : log_(log), clock_(TickClock::calibrate()) {}
  void on_cycle(Cycle cycle, const cgra::Column&, const cgra::Column&) override {
    const std::uint64_t now = TickClock::ticks();
    if (!open_ || cycle != last_cycle_ + 1) {
      close();
      open_ = true;
      start_ = now;
    }
    last_cycle_ = cycle;
    last_tick_ = now;
  }
  /// Ends the open launch (call when Device::run returns).
  void close() {
    if (open_) {
      log_.add("cgra.launch", clock_.to_ns(start_), clock_.to_ns(last_tick_),
               parent_, request_);
    }
    open_ = false;
  }
  void set_parent(std::int64_t parent, std::uint64_t request) {
    parent_ = parent;
    request_ = request;
  }

 private:
  SpanLog& log_;
  TickClock clock_;
  bool open_ = false;
  Cycle last_cycle_ = 0;
  std::uint64_t start_ = 0, last_tick_ = 0;
  std::int64_t parent_ = -1;
  std::uint64_t request_ = 0;
};

struct Tally {
  std::vector<double> job_ms;
  std::vector<double> round_s;
  /// One sweep = one round on each allowed CPU in turn: the vCPUs of a
  /// shared host run at different speeds that drift, so a one-CPU figure
  /// moves with whichever the scheduler picked. Wall and CPU time.
  std::vector<double> sweep_s, sweep_cpu_s, sweep_cycles_per_cpu_s;
  std::uint64_t jobs = 0, failed = 0, rounds = 0;
  double sim_cycles = 0.0, sim_uj = 0.0;  ///< first kSets rounds
  std::vector<double> kernel_cycles, kernel_pj;  ///< first round, per kernel
  std::vector<double> family_run_ns;    ///< summed Device::run ns per family
  std::vector<double> family_jobs;
  std::uint64_t stagings = 0;
};

}  // namespace

Outcome run_kernels_interp(const Options& opt) {
  Rng rng(opt.seed);
  std::vector<std::vector<CheckedJob>> sets;
  for (unsigned s = 0; s < kSets; ++s) sets.push_back(make_kernel_round(rng));
  const std::size_t per_round = sets[0].size();

  // Set-up: a fresh device plus one warm-up round (first-touch kernel
  // assembly). Repeated; the last rig is the one measured.
  std::uint64_t seq = 0;
  std::unique_ptr<Rig> rig;
  std::vector<double> setup;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    const std::uint64_t c0 = cpu_ns();
    auto fresh = std::make_unique<Rig>();
    for (const CheckedJob& j : sets[0]) fresh->dev.run(j.job, seq++);
    setup.push_back(static_cast<double>(cpu_ns() - c0) * 1e-9);
    rig = std::move(fresh);
  }
  runtime::Device& dev = rig->dev;

  const std::vector<int> cpus = allowed_cpus();
  RefSpeed ref;
  if (cpus.empty()) throw std::runtime_error("no CPU in this process's affinity mask");
  SpanLog log;
  LaunchTimer timer(log);
  auto measure = [&](double seconds, bool traced, Tally& t) {
    t.family_run_ns.assign(job_families().size(), 0.0);
    t.family_jobs.assign(job_families().size(), 0.0);
    preallocate(t.job_ms, static_cast<std::size_t>(seconds * kJobsPerS));
    if (traced) dev.platform().vwr2a().set_tracer(&timer);
    const std::uint64_t stag0 = dev.stagings();
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    double sweep_s = 0.0, sweep_cycles = 0.0;
    std::uint64_t sweep_c0 = cpu_ns();
    while (t.rounds < kSets || now_ns() < deadline || t.rounds % cpus.size() != 0) {
      pin(cpus, cpus[t.rounds % cpus.size()]);
      const std::vector<CheckedJob>& set = sets[t.rounds % kSets];
      const std::uint64_t r0 = now_ns();
      const std::int64_t round_span =
          traced ? log.open("bench.round", r0, -1, t.rounds) : -1;
      double round_cycles = 0.0;
      for (std::size_t k = 0; k < set.size(); ++k) {
        const CheckedJob& cj = set[k];
        const std::uint64_t id = seq;
        std::int64_t run_span = -1;
        if (traced) {
          run_span = log.open("runtime.Device::run", now_ns(), round_span, id);
          timer.set_parent(run_span, id);
        }
        const std::uint64_t j0 = now_ns();
        runtime::JobResult res;
        bool ok = true;
        try {
          res = dev.run(cj.job, seq++);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "  %s failed: %s\n", cj.kernel.c_str(), e.what());
          ok = false;
        }
        const std::uint64_t j1 = now_ns();
        if (traced) {
          timer.close();
          log.close(run_span, j1);
        }
        ok = ok && res.output == cj.expect;
        if (traced) log.add("bench.check", j1, now_ns(), round_span, id);
        if (!ok) {
          ++t.failed;
          std::fprintf(stderr, "  %s: wrong output\n", cj.kernel.c_str());
        }
        ++t.jobs;
        t.job_ms.push_back(static_cast<double>(j1 - j0) * 1e-6);
        t.family_run_ns[cj.family] += static_cast<double>(j1 - j0);
        t.family_jobs[cj.family] += 1;
        round_cycles += static_cast<double>(res.cost.total_cycles());
        if (t.rounds < kSets) {
          t.sim_cycles += static_cast<double>(res.cost.total_cycles());
          t.sim_uj += res.cost.total_uj();
        }
        if (t.rounds == 0) {
          t.kernel_cycles.push_back(static_cast<double>(res.cost.total_cycles()));
          t.kernel_pj.push_back(res.cost.total_pj());
        }
      }
      const std::uint64_t r1 = now_ns();
      if (traced) log.close(round_span, r1);
      const double rs = static_cast<double>(r1 - r0) * 1e-9;
      t.round_s.push_back(rs);
      sweep_s += rs;
      sweep_cycles += round_cycles;
      if (++t.rounds % cpus.size() == 0) {
        const double cpu_s = static_cast<double>(cpu_ns() - sweep_c0) * 1e-9;
        t.sweep_s.push_back(sweep_s);
        t.sweep_cpu_s.push_back(cpu_s);
        t.sweep_cycles_per_cpu_s.push_back(sweep_cycles / cpu_s);
        sweep_s = sweep_cycles = 0.0;
        ref.sample();
        sweep_c0 = cpu_ns();
      }
    }
    pin(cpus);
    t.stagings = dev.stagings() - stag0;
    if (traced) dev.platform().vwr2a().set_tracer(nullptr);
  };

  Outcome out;
  if (!opt.trace) {
    Tally t;
    measure(opt.seconds, false, t);
    print_summary("job latency (Device::run)", summarize(t.job_ms), "ms");
    print_summary("round time", summarize(t.round_s), "s");
    print_summary("sweep time (one round per CPU)", summarize(t.sweep_s), "s");
    print_summary("sweep CPU time", summarize(t.sweep_cpu_s), "s");
    const double sweep_jobs = static_cast<double>(per_round * cpus.size());
    std::printf("  wall clock: %.1f jobs/s (median sweep)\n", sweep_jobs / median(t.sweep_s));
    out.attempted = t.jobs;
    out.failed = t.failed;
    add_end_to_end(out.metrics, ref, setup, median(t.sweep_cycles_per_cpu_s),
                   sweep_jobs / median(t.sweep_cpu_s), t.sim_cycles, t.sim_uj, t.jobs,
                   t.failed);
    return out;
  }

  // Traced run: half untraced (the overhead baseline), half traced.
  Tally base, tr;
  measure(opt.seconds / 2, false, base);
  const std::uint64_t icyc0 = dev.platform().vwr2a().interpreted_cycles();
  const std::uint64_t w0 = now_ns();
  measure(opt.seconds / 2, true, tr);
  const std::uint64_t w1 = now_ns();
  const double icyc =
      static_cast<double>(dev.platform().vwr2a().interpreted_cycles() - icyc0);
  print_ledger(log, w0, w1);
  const double base_rt = median(base.round_s), tr_rt = median(tr.round_s);
  std::printf("  tracing overhead: median round %.3f ms traced vs %.3f ms "
              "untraced (%+.1f%%)\n",
              tr_rt * 1e3, base_rt * 1e3, 100.0 * (tr_rt / base_rt - 1.0));
  const std::string spans = opt.work_dir + "/spans-kernels-interp.json";
  if (!log.write(spans, w0)) throw std::runtime_error("cannot write " + spans);
  std::printf("  spans: %s\n", spans.c_str());

  MetricSet& m = out.metrics;
  double launch_ns = 0.0;
  for (const Span& s : log.spans()) {
    if (s.name == "cgra.launch") launch_ns += static_cast<double>(s.end - s.start);
  }
  m.add("cgra.interp_ns_per_cycle", icyc > 0 ? launch_ns / icyc : 0.0, "ns");
  m.add("cgra.interpreted_cycles", icyc / static_cast<double>(tr.jobs), "cycles/job");
  const auto& ks = kernel_set();
  for (std::size_t k = 0; k < ks.size(); ++k) {
    m.add("kernels." + ks[k].label + ".sim_cycles", base.kernel_cycles[k], "cycles");
    m.add("kernels." + ks[k].label + ".energy_pj", base.kernel_pj[k], "pJ");
    if (ks[k].paper_cycles > 0) {
      m.add("kernels." + ks[k].label + ".paper_ratio",
            base.kernel_cycles[k] / ks[k].paper_cycles, "ratio");
    }
  }
  for (std::size_t f = 0; f < job_families().size(); ++f) {
    if (base.family_jobs[f] > 0) {
      m.add("runtime.device_run_ns." + job_families()[f],
            base.family_run_ns[f] / base.family_jobs[f], "ns");
    }
  }
  m.add("runtime.stagings_per_job",
        static_cast<double>(base.stagings) / static_cast<double>(base.jobs),
        "count/job");
  out.attempted = base.jobs + tr.jobs;
  out.failed = base.failed + tr.failed;
  m.add("error_rate",
        static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "ratio");
  return out;
}

}  // namespace perfbench
