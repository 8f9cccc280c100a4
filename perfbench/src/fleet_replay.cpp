// fleet-replay: one submitter thread drives a closed loop of fixed-size
// submit_batch calls into a DevicePool of 16 trace-cache devices (the
// 4-variant architecture mix) served by 4 workers. The job mix is FIR-256
// on one shared taps buffer (batchable; hits tap dedup), cfft-2048 (the
// scheduled replay tier), rfft-512 and reduce-128 (dispatch-dominated).
// Host time splits between trace replay and pool dispatch/staging; the
// interpreter does no work. After every throughput slice, a latency probe
// runs one batch's jobs one at a time on the otherwise idle pool.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "catalog.hpp"
#include "dsp/signal.hpp"
#include "jobs.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vwr2a;

namespace {

constexpr unsigned kDevices = 16;
constexpr unsigned kWorkers = 4;
constexpr unsigned kSetupReps = 25;
constexpr unsigned kDistinct = 8;       ///< distinct seeded inputs per kind
constexpr unsigned kExactBatches = 8;   ///< batches summed into sim_cycles
constexpr unsigned kSliceBatches = 16;  ///< batches per throughput sample
/// Probe samples preallocated per second of run, above any rate seen
/// (about 4000/s), so peak RSS does not move with how many slices a run
/// completes.
constexpr double kProbesPerS = 8000;

/// Jobs of one batch, by kind. 48 jobs: not a multiple of the 16 devices,
/// so round-robin placement rotates the mix over the fleet batch by batch.
/// The shares are a choice, not taken from a deployment: they give each of
/// the three host-time paths this workload exercises -- batched FIR replay,
/// cfft-2048 scheduled replay, and the dispatch of small jobs (rfft-512,
/// reduce-128) -- a comparable share of the workers' time, which the
/// traced run prints per kind (see perfbench/README.md).
constexpr unsigned kFir = 28, kCfft = 2, kRfft = 8, kReduce = 10;
constexpr unsigned kBatch = kFir + kCfft + kRfft + kReduce;

/// The job order of every batch (kind indices: 0 FIR, 1 cfft, 2 rfft,
/// 3 reduce): the kinds spread evenly, by their share of the batch. Fixed
/// across seeds, so a seed changes only the data each device sees.
std::vector<unsigned> batch_order() {
  const unsigned counts[4] = {kFir, kCfft, kRfft, kReduce};
  std::vector<std::pair<double, unsigned>> slots;
  for (unsigned kind = 0; kind < 4; ++kind) {
    for (unsigned j = 0; j < counts[kind]; ++j) {
      slots.emplace_back((j + 0.5) / counts[kind], kind);
    }
  }
  std::stable_sort(slots.begin(), slots.end());
  std::vector<unsigned> kinds;
  for (const auto& s : slots) kinds.push_back(s.second);
  return kinds;
}

struct Tally {
  std::vector<double> probe_ms;  ///< single-job latency on an idle pool
  std::vector<double> slice_jobs_per_s;  ///< wall clock
  std::vector<double> slice_jobs_per_cpu_s, slice_cycles_per_cpu_s;
  std::uint64_t jobs = 0, failed = 0, batches = 0;
  double sim_cycles = 0.0, sim_uj = 0.0;  ///< first kExactBatches batches
  // Traced-run figures (obs spans stamp JobResult::Timing).
  std::vector<double> submit_ns_per_job, wait_ns;
  /// Per job family, batch jobs only: jobs, simulated cycles and host
  /// Device::run time (a batched group's window split over its lanes).
  std::vector<double> family_jobs, family_cycles, family_run_ns;
  double run_ns = 0.0;  ///< Device::run host time, each group window once
  double wall_ns = 0.0;
};

/// Records the Device::run windows of one traced submission. The lanes of
/// a batched FIR group all carry the group's one run window, so a window
/// is booked -- as a span and in run_ns -- once, and split evenly across
/// its lanes for the per-family figures.
void book_runs(const std::vector<runtime::JobResult>& results,
               const std::vector<const CheckedJob*>& refs, bool per_family,
               SpanLog& log, std::int64_t parent, Tally& t) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, unsigned> lanes;
  for (const runtime::JobResult& res : results) {
    if (!res.timing.stamped()) continue;
    const runtime::JobResult::Timing& tm = res.timing;
    log.add("runtime.queue_wait", tm.enq_ns, tm.run_begin_ns, parent, res.seq);
    t.wait_ns.push_back(static_cast<double>(tm.run_begin_ns - tm.enq_ns));
    if (lanes[{tm.run_begin_ns, tm.run_end_ns}]++ == 0) {
      log.add("runtime.Device::run", tm.run_begin_ns, tm.run_end_ns, parent, res.seq);
      t.run_ns += static_cast<double>(tm.run_end_ns - tm.run_begin_ns);
    }
  }
  if (!per_family) return;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const runtime::JobResult::Timing& tm = results[i].timing;
    if (!tm.stamped()) continue;
    const unsigned f = refs[i]->family;
    t.family_jobs[f] += 1;
    t.family_cycles[f] += static_cast<double>(results[i].cost.total_cycles());
    t.family_run_ns[f] += static_cast<double>(tm.run_end_ns - tm.run_begin_ns) /
                          lanes[{tm.run_begin_ns, tm.run_end_ns}];
  }
}

}  // namespace

Outcome run_fleet_replay(const Options& opt) {
  Rng rng(opt.seed);
  const auto taps = runtime::make_buffer(dsp::fir11_lowpass_q15());
  std::vector<CheckedJob> fir, cfft, rfft, reduce;
  for (unsigned i = 0; i < kDistinct; ++i) {
    fir.push_back(make_fir(256, taps, rng));
    cfft.push_back(make_cfft(2048, rng));
    rfft.push_back(make_rfft(512, rng));
    const auto op = static_cast<runtime::ReduceOp>(i % 4);
    reduce.push_back(make_reduce(op, runtime::make_buffer(random_q15(128, rng, 0.95))));
  }
  const std::vector<unsigned> order = batch_order();
  // Batch b's j-th job of a kind uses input (b * count + j) % kDistinct.
  auto make_batch = [&](std::uint64_t b, std::vector<const CheckedJob*>& refs) {
    std::vector<runtime::Job> jobs;
    refs.clear();
    unsigned used[4] = {0, 0, 0, 0};
    const std::vector<CheckedJob>* pools[4] = {&fir, &cfft, &rfft, &reduce};
    const unsigned counts[4] = {kFir, kCfft, kRfft, kReduce};
    for (unsigned kind : order) {
      const auto idx = (b * counts[kind] + used[kind]++) % kDistinct;
      const CheckedJob& cj = (*pools[kind])[idx];
      refs.push_back(&cj);
      jobs.push_back(cj.job);
    }
    return jobs;
  };

  // Set-up: build the pool and run one warm-up batch (first-touch kernel
  // assembly and trace compilation for every variant). Repeated.
  std::vector<const CheckedJob*> refs;
  std::unique_ptr<runtime::DevicePool> pool;
  std::vector<double> setup;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    pool.reset();
    const std::uint64_t c0 = cpu_ns();
    auto fresh = std::make_unique<runtime::DevicePool>(trace_fleet_config(kDevices, kWorkers));
    for (auto& h : fresh->submit_batch(make_batch(0, refs))) h.get();
    setup.push_back(static_cast<double>(cpu_ns() - c0) * 1e-9);
    pool = std::move(fresh);
  }

  SpanLog log;
  RefSpeed ref;
  std::uint64_t batch_no = 1;  // batch 0 was the warm-up
  // Collects one submission's results; a throw or a wrong output is a
  // failure. Returns the simulated cycles and energy of the results.
  auto collect = [&](std::vector<runtime::JobHandle>& handles,
                     std::vector<runtime::JobResult>& results, Tally& t) {
    results.assign(handles.size(), {});
    for (std::size_t i = 0; i < handles.size(); ++i) {
      try {
        results[i] = handles[i].get();
        if (results[i].output == refs[i]->expect) continue;
        std::fprintf(stderr, "  %s: wrong output\n", refs[i]->kernel.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "  %s failed: %s\n", refs[i]->kernel.c_str(), e.what());
      }
      ++t.failed;
    }
    t.jobs += handles.size();
    std::pair<double, double> cost{0.0, 0.0};
    for (const runtime::JobResult& r : results) {
      cost.first += static_cast<double>(r.cost.total_cycles());
      cost.second += r.cost.total_uj();
    }
    return cost;
  };
  // The latency probe: the next batch's jobs, one at a time, each submitted
  // alone and awaited, so the pool is otherwise idle. Printed, not gated:
  // a throughput change that leaves the single-job path alone does not
  // move it, but its wall-clock wake-ups move with the host's load.
  auto probe = [&](bool traced, Tally& t) {
    std::vector<runtime::Job> jobs = make_batch(batch_no, refs);
    const std::vector<const CheckedJob*> batch_refs = refs;
    std::vector<runtime::JobResult> results;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      refs.assign(1, batch_refs[i]);
      const std::uint64_t p0 = now_ns();
      std::vector<runtime::JobHandle> handles;
      handles.push_back(pool->submit(std::move(jobs[i])));
      collect(handles, results, t);
      const std::uint64_t p1 = now_ns();
      t.probe_ms.push_back(static_cast<double>(p1 - p0) * 1e-6);
      if (traced) {
        book_runs(results, refs, false, log, log.add("bench.probe", p0, p1, -1, batch_no), t);
      }
    }
    refs = batch_refs;
  };
  auto measure = [&](double seconds, bool traced, Tally& t) {
    const std::size_t families = job_families().size();
    t.family_jobs.assign(families, 0.0);
    t.family_cycles.assign(families, 0.0);
    t.family_run_ns.assign(families, 0.0);
    preallocate(t.probe_ms, static_cast<std::size_t>(seconds * kProbesPerS));
    for (std::vector<double>* v :
         {&t.slice_jobs_per_s, &t.slice_jobs_per_cpu_s, &t.slice_cycles_per_cpu_s}) {
      preallocate(*v, t.probe_ms.capacity() / kBatch);
    }
    obs::set_spans(traced);
    const std::uint64_t start = now_ns();
    const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t slice_t0 = start, slice_c0 = cpu_ns();
    double slice_cycles = 0.0;
    unsigned slice_n = 0;
    std::vector<runtime::JobResult> results;
    while (t.batches < kExactBatches || now_ns() < deadline) {
      std::vector<runtime::Job> jobs = make_batch(batch_no, refs);
      const std::uint64_t b0 = now_ns();
      const std::int64_t bspan =
          traced ? log.open("bench.batch", b0, -1, batch_no) : -1;
      std::vector<runtime::JobHandle> handles = pool->submit_batch(std::move(jobs));
      const std::uint64_t b_sub = now_ns();
      const auto [batch_cycles, batch_uj] = collect(handles, results, t);
      if (traced) {
        const std::uint64_t b1 = now_ns();
        book_runs(results, refs, true, log, bspan, t);
        log.add("runtime.DevicePool::submit_batch", b0, b_sub, bspan, batch_no);
        log.add("bench.check", b1, now_ns(), bspan, batch_no);
        log.close(bspan, now_ns());
        t.submit_ns_per_job.push_back(static_cast<double>(b_sub - b0) / kBatch);
      }
      if (t.batches < kExactBatches) {
        t.sim_cycles += batch_cycles;
        t.sim_uj += batch_uj;
      }
      ++t.batches;
      ++batch_no;
      slice_cycles += batch_cycles;
      if (++slice_n == kSliceBatches) {
        const double s = static_cast<double>(now_ns() - slice_t0) * 1e-9;
        const double cpu_s = static_cast<double>(cpu_ns() - slice_c0) * 1e-9;
        t.slice_jobs_per_s.push_back(kSliceBatches * kBatch / s);
        t.slice_jobs_per_cpu_s.push_back(kSliceBatches * kBatch / cpu_s);
        t.slice_cycles_per_cpu_s.push_back(slice_cycles / cpu_s);
        ref.sample();
        probe(traced, t);
        slice_t0 = now_ns();
        slice_c0 = cpu_ns();
        slice_cycles = 0.0;
        slice_n = 0;
      }
    }
    t.wall_ns = static_cast<double>(now_ns() - start);
    obs::set_spans(false);
  };

  Outcome out;
  if (!opt.trace) {
    Tally t;
    measure(opt.seconds, false, t);
    print_summary("single-job latency (idle pool)", summarize(t.probe_ms), "ms");
    print_summary("wall-clock throughput per 16-batch slice", summarize(t.slice_jobs_per_s),
                  "jobs/s");
    print_summary("CPU-time throughput per 16-batch slice",
                  summarize(t.slice_jobs_per_cpu_s), "jobs/s");
    out.attempted = t.jobs;
    out.failed = t.failed;
    add_end_to_end(out.metrics, ref, setup, median(t.slice_cycles_per_cpu_s),
                   median(t.slice_jobs_per_cpu_s), t.sim_cycles, t.sim_uj, t.jobs, t.failed);
    return out;
  }

  Tally base, tr;
  measure(opt.seconds / 2, false, base);
  const runtime::FleetStats s0 = pool->stats();
  const std::uint64_t w0 = now_ns();
  measure(opt.seconds / 2, true, tr);
  const std::uint64_t w1 = now_ns();
  const runtime::FleetStats s1 = pool->stats();
  print_ledger(log, w0, w1);
  const double base_jps = median(base.slice_jobs_per_s);
  const double tr_jps = median(tr.slice_jobs_per_s);
  std::printf("  tracing overhead: %.0f jobs/s traced vs %.0f untraced (%+.1f%%); "
              "single-job p50 %.4f ms traced vs %.4f ms untraced\n",
              tr_jps, base_jps, 100.0 * (base_jps / tr_jps - 1.0), median(tr.probe_ms),
              median(base.probe_ms));
  print_summary("pool wait (submit -> Device::run)", summarize(tr.wait_ns), "ns");
  // How the batch mix splits: each kind's share of the batch jobs, of
  // their simulated cycles and of their host Device::run time; the rest
  // of the workers' time is pool dispatch, staging and idling.
  double all_jobs = 0, all_cycles = 0, all_run = 0;
  for (std::size_t f = 0; f < job_families().size(); ++f) {
    all_jobs += tr.family_jobs[f];
    all_cycles += tr.family_cycles[f];
    all_run += tr.family_run_ns[f];
  }
  std::printf("  batch mix by kind       jobs  sim cycles  Device::run time\n");
  for (std::size_t f = 0; f < job_families().size(); ++f) {
    if (tr.family_jobs[f] == 0) continue;
    std::printf("    %-18s %6.1f%%  %9.1f%%  %15.1f%%\n", job_families()[f].c_str(),
                100.0 * tr.family_jobs[f] / all_jobs, 100.0 * tr.family_cycles[f] / all_cycles,
                100.0 * tr.family_run_ns[f] / all_run);
  }
  const double worker_ns = tr.wall_ns * kWorkers;
  std::printf("  worker time: %.1f%% in Device::run, %.1f%% elsewhere\n",
              100.0 * tr.run_ns / worker_ns, 100.0 * (1.0 - tr.run_ns / worker_ns));
  const std::string spans = opt.work_dir + "/spans-fleet-replay.json";
  if (!log.write(spans, w0)) throw std::runtime_error("cannot write " + spans);
  std::printf("  spans: %s\n", spans.c_str());

  MetricSet& m = out.metrics;
  add_fleet_metrics(m, s0, s1, tr.run_ns);
  for (std::size_t f = 0; f < job_families().size(); ++f) {
    if (tr.family_jobs[f] > 0) {
      m.add("runtime.device_run_ns." + job_families()[f],
            tr.family_run_ns[f] / tr.family_jobs[f], "ns");
    }
  }
  m.add("runtime.pool_submit_ns", median(tr.submit_ns_per_job), "ns");
  m.add("runtime.pool_wait_ns", median(tr.wait_ns), "ns");
  m.add("runtime.worker_busy", tr.run_ns / worker_ns, "ratio");
  out.attempted = base.jobs + tr.jobs;
  out.failed = base.failed + tr.failed;
  m.add("error_rate",
        static_cast<double>(out.failed) / static_cast<double>(out.attempted), "ratio");
  return out;
}

}  // namespace perfbench
