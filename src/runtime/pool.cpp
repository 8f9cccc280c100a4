#include "runtime/pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "artifact/store.hpp"
#include "common/log.hpp"
#include "common/status.hpp"
#include "obs/trace.hpp"

namespace vwr2a::runtime {

namespace {

/// Integer log2 for the FFT-family estimates (n is a power of two).
unsigned ilog2(unsigned n) {
  unsigned lg = 0;
  while (n > 1) {
    n >>= 1;
    ++lg;
  }
  return lg;
}

/// Relative simulated-time factor of an architecture variant on a typical
/// mixed job stream (1.0 = the paper's design point). Matches the
/// direction and rough magnitude of Platform::apply_arch_model: 2 VWRs pay
/// SPM round trips, 4 VWRs save twiddle reloads, the 16-bit dual lane
/// halves elementwise ALU cycles.
double arch_speed(const soc::ArchConfig& a) {
  double s = 1.0;
  if (a.vwr_count == 2) s *= 1.06;
  if (a.vwr_count == 4) s *= 0.99;
  if (a.simd_width == 16) s *= 0.84;
  return s;
}

/// Folds one device's figures into a fleet aggregate -- the single place
/// stats() (live snapshots) and peek_stats() (cached snapshots) share, so
/// a new FleetStats field cannot silently diverge between the two views.
void fold_device(FleetStats& s, const soc::Platform::Snapshot& snap,
                 std::uint64_t jobs, std::uint64_t stagings,
                 const soc::ArchConfig& arch, const ReplayStats& replay) {
  const Cycle local = snap.total_cycles();
  s.device_cycles.push_back(local);
  s.device_pj.push_back(snap.total_pj());
  s.device_jobs.push_back(jobs);
  s.device_stagings.push_back(stagings);
  s.stagings += stagings;
  s.device_arch.push_back(arch);
  s.fleet_makespan = std::max(s.fleet_makespan, local);
  s.total_device_cycles += local;
  s.total_pj += snap.total_pj();
  s.traced_launches += replay.traced_launches;
  s.traced_rollbacks += replay.traced_rollbacks;
  s.replay_decoupled_cycles += replay.decoupled_cycles;
  s.replay_lockstep_cycles += replay.lockstep_cycles;
  s.replay_interpreted_cycles += replay.interpreted_cycles;
  s.replay_sync_points += replay.sync_points;
}

} // namespace

DevicePool::DevicePool(Config cfg) : cfg_(std::move(cfg)) {
  family_factor_.fill(1.0);
  if (cfg_.devices == 0) throw HostError("DevicePool: need at least 1 device");
  if (cfg_.workers == 0) cfg_.workers = cfg_.devices;
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  if (!cfg_.device_arch.empty() && cfg_.device_arch.size() != 1 &&
      cfg_.device_arch.size() != cfg_.devices) {
    throw HostError(
        "DevicePool: device_arch must be empty, one entry, or one per device");
  }

  // Attach the prebuilt artifact (if any) before the devices exist, so
  // even the first kernel lookup can hydrate. VWR2A_ARTIFACT overrides the
  // config path; any failure to open degrades to a cold start, never an
  // error (see artifact/store.hpp's failure model).
  std::string artifact_path = cfg_.artifact_path;
  if (cfg_.artifact_env) {
    if (const char* env = std::getenv("VWR2A_ARTIFACT");
        env != nullptr && env[0] != '\0') {
      artifact_path = env;
    }
  }
  if (!artifact_path.empty()) {
    std::string why;
    artifact_ = artifact::Store::open(artifact_path, &why);
    if (artifact_) {
      cache_.set_source(artifact_.get());
      cache_.traces().set_source(artifact_.get());
    } else {
      log::Line(log::Level::kWarn) << "DevicePool: starting cold, " << why;
    }
  }

  for (const FaultEvent& ev : cfg_.faults.events) {
    if (ev.device >= cfg_.devices) {
      throw HostError("DevicePool: fault plan names a device outside the fleet");
    }
    fault_trace_.push_back(FaultTrace{ev, false, false});
  }

  devices_.resize(cfg_.devices);
  sched_load_.resize(cfg_.devices, 0);
  sched_speed_.reserve(cfg_.devices);
  for (unsigned d = 0; d < cfg_.devices; ++d) {
    const soc::ArchConfig arch =
        cfg_.device_arch.empty()
            ? soc::ArchConfig{}
            : cfg_.device_arch[cfg_.device_arch.size() == 1 ? 0 : d];
    devices_[d].device =
        std::make_unique<Device>(d, cache_, arch, cfg_.device_opts);
    sched_speed_.push_back(arch_speed(arch));
  }
  if (artifact_ && cfg_.artifact_prewarm) {
    // Hydrate each distinct variant's whole working set concurrently; the
    // caches' miss paths are thread-safe and per-key serialized.
    std::vector<std::string> variants;
    for (const DeviceState& ds : devices_) {
      const std::string name = ds.device->arch().name();
      if (std::find(variants.begin(), variants.end(), name) == variants.end()) {
        variants.push_back(name);
      }
    }
    std::vector<std::thread> warmers;
    warmers.reserve(variants.size());
    for (const std::string& v : variants) {
      warmers.emplace_back(
          [this, v] { artifact_->prewarm(cache_, v); });
    }
    for (std::thread& t : warmers) t.join();
  }

  // A scripted fault at job 0 lands before any work is routed (no workers
  // are running yet, so no lock is needed for the _locked helpers).
  check_faults_locked();

  workers_.reserve(cfg_.workers);
  for (unsigned w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DevicePool::~DevicePool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int DevicePool::find_work() const {
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (!devices_[d].claimed && !devices_[d].dead &&
        !devices_[d].queue.empty()) {
      return static_cast<int>(d);
    }
  }
  return -1;
}

Cycle DevicePool::estimate_cost(const Job& job) {
  // Coarse per-family models calibrated against measured baseline costs
  // (e.g. fir-256 ~2.9k, cfft-1024 ~19.6k, bio window ~27k cycles). Only
  // relative magnitudes matter: the shortest-local-clock policy balances
  // load with these, and any monotone-in-work estimate keeps the placement
  // deterministic.
  return std::visit(
      [](const auto& w) -> Cycle {
        using T = std::decay_t<decltype(w)>;
        if constexpr (std::is_same_v<T, FirJob>) {
          return 500 + 9ull * w.n;
        } else if constexpr (std::is_same_v<T, CfftJob>) {
          return 500 + 2ull * w.n * ilog2(w.n);
        } else if constexpr (std::is_same_v<T, RfftJob>) {
          return 500 + 3ull * w.n * ilog2(w.n) / 2;
        } else if constexpr (std::is_same_v<T, IfftJob>) {
          return 500 + 2ull * w.n * ilog2(w.n);
        } else if constexpr (std::is_same_v<T, ReduceJob>) {
          const bool bisect =
              w.op == ReduceOp::kMin || w.op == ReduceOp::kMax;
          return 500 + (bisect ? 11ull : 1ull) * w.n;
        } else if constexpr (std::is_same_v<T, DelineationJob>) {
          return 500 + 17ull * w.n;
        } else if constexpr (std::is_same_v<T, PipelineJob>) {
          return 2500 + 24ull * w.n;
        } else {  // BioTrackerJob: one whole application window
          return 27000;
        }
      },
      job.work);
}

void DevicePool::validate_pin(const Job& job) const {
  if (job.pin >= 0 && static_cast<std::size_t>(job.pin) >= devices_.size()) {
    throw HostError("DevicePool: pin_to_device index out of range");
  }
}

Cycle DevicePool::scaled_estimate(Cycle estimate, unsigned d) const {
  return static_cast<Cycle>(static_cast<double>(estimate) * sched_speed_[d]);
}

unsigned DevicePool::pick_shortest(Cycle estimate) const {
  int best = -1;
  Cycle best_done = 0;
  for (unsigned i = 0; i < sched_load_.size(); ++i) {
    if (devices_[i].dead) continue;
    const Cycle done = sched_load_[i] + scaled_estimate(estimate, i);
    if (best < 0 || done < best_done) {
      best = static_cast<int>(i);
      best_done = done;
    }
  }
  if (best < 0) throw HostError("DevicePool: no healthy device left");
  return static_cast<unsigned>(best);
}

unsigned DevicePool::resolve_alive(unsigned d) const {
  unsigned hops = 0;
  while (devices_[d].dead) {
    const int f = devices_[d].failover;
    if (f < 0 || ++hops > devices_.size()) {
      // Chain dead-ends (the device died while the whole fleet was down,
      // or the chain loops through dead devices): fall back to fresh
      // placement, which throws only if nothing is alive right now.
      return pick_shortest(0);
    }
    d = static_cast<unsigned>(f);
  }
  return d;
}

Cycle DevicePool::estimate_locked(const Job& job) const {
  const Cycle prior = estimate_cost(job);
  const double f = family_factor_[job.work.index()];
  const auto est = static_cast<Cycle>(
      std::llround(static_cast<double>(prior) * f));
  return est > 0 ? est : 1;
}

Cycle DevicePool::estimate(const Job& job) const {
  std::lock_guard<std::mutex> lock(mu_);
  return estimate_locked(job);
}

std::array<double, kJobFamilies> DevicePool::family_factors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return family_factor_;
}

void DevicePool::fold_estimator_locked() {
  // EWMA over per-family (measured / prior) ratios, alpha = 1/4. Both sums
  // are integers accumulated per completed job, so the fold is independent
  // of the order completions landed in.
  constexpr double kAlpha = 0.25;
  for (unsigned f = 0; f < kJobFamilies; ++f) {
    if (pend_prior_[f] == 0) continue;
    const double ratio = static_cast<double>(pend_measured_[f]) /
                         static_cast<double>(pend_prior_[f]);
    // The pending ratio is measured against the *prior*, while the factor
    // tracks measured/prior directly -- blend toward it.
    family_factor_[f] += kAlpha * (ratio - family_factor_[f]);
    pend_measured_[f] = 0;
    pend_prior_[f] = 0;
  }
}

unsigned DevicePool::route(const Job& job, std::uint64_t seq) {
  validate_pin(job);
  const Cycle est = estimate_locked(job);
  unsigned d;
  if (job.pin >= 0) {
    // A pin to a dead device follows its stable failover chain, so a
    // session survives its device dying without ever seeing the fault.
    d = resolve_alive(static_cast<unsigned>(job.pin));
  } else if (cfg_.schedule == Schedule::kShortestLocalClock) {
    d = pick_shortest(est);
  } else {
    d = resolve_alive(static_cast<unsigned>(seq % devices_.size()));
  }
  sched_load_[d] += scaled_estimate(est, d);
  // Placement decision recorded after the fact: chosen device + the
  // estimator inputs that drove the choice (prior estimate, resulting
  // local-clock charge). Reads only.
  obs::instant("window.place", job.trace_id, d, est, sched_load_[d]);
  return d;
}

unsigned DevicePool::place_load(Cycle estimate) {
  std::lock_guard<std::mutex> lock(mu_);
  const unsigned d = pick_shortest(estimate);
  sched_load_[d] += scaled_estimate(estimate, d);
  return d;
}

void DevicePool::begin_kill_locked(unsigned d) {
  DeviceState& ds = devices_[d];
  ds.dead = true;
  ++devices_failed_;
  // Stable failover target for this device's pinned work, chosen by the
  // same shortest-local-clock rule placement uses. Chains are fine: if the
  // target later dies too, resolve_alive follows its failover in turn.
  try {
    ds.failover = static_cast<int>(pick_shortest(0));
  } catch (const HostError&) {
    ds.failover = -1;  // the last healthy device just died
  }
  obs::instant("fault.kill", 0, d,
               static_cast<std::uint64_t>(ds.failover + 1));
}

void DevicePool::finish_kill_locked(unsigned d) {
  DeviceState& ds = devices_[d];
  // Move the resident state toward the failover target so it is adopted
  // there before any rescued job runs.
  std::vector<std::uint8_t> blob = ds.device->checkpoint();
  if (!blob.empty()) {
    ++ckpt_taken_;
    obs::instant("fault.checkpoint", 0, d, blob.size());
    if (ds.failover >= 0) {
      devices_[static_cast<unsigned>(ds.failover)].pending_restore =
          std::move(blob);
    }
  }
  // A checkpoint parked here (this device was someone else's failover
  // target and died before adopting it) is forwarded down the chain.
  if (!ds.pending_restore.empty() && ds.failover >= 0) {
    DeviceState& fs = devices_[static_cast<unsigned>(ds.failover)];
    if (fs.pending_restore.empty()) {
      fs.pending_restore = std::move(ds.pending_restore);
    }
  }
  ds.pending_restore.clear();
  // Re-place the queued jobs in order: pinned jobs follow the failover
  // chain, unpinned jobs re-run placement. Their estimate charges move
  // with them so the schedule stays honest if this device revives.
  bool moved = false;
  while (!ds.queue.empty()) {
    Pending p = std::move(ds.queue.front());
    ds.queue.pop_front();
    const Cycle est = estimate_locked(p.job);
    const Cycle charged = scaled_estimate(est, d);
    sched_load_[d] = sched_load_[d] > charged ? sched_load_[d] - charged : 0;
    int target = -1;
    try {
      target = static_cast<int>(
          p.job.pin >= 0 ? resolve_alive(static_cast<unsigned>(p.job.pin))
                         : pick_shortest(est));
    } catch (const HostError&) {
      target = -1;
    }
    if (target < 0) {
      // No healthy fleet left: fail the job instead of stranding its
      // future (a drain must never hang on a dead fleet).
      p.promise.set_exception(std::make_exception_ptr(
          HostError("DevicePool: device died with no healthy device left")));
      ++failed_;
      --inflight_;
      continue;
    }
    sched_load_[static_cast<unsigned>(target)] +=
        scaled_estimate(est, static_cast<unsigned>(target));
    const std::uint64_t rescued_trace = p.job.trace_id;
    devices_[static_cast<unsigned>(target)].queue.push_back(std::move(p));
    ++jobs_rescued_;
    obs::instant("fault.rescue", rescued_trace, d,
                 static_cast<std::uint64_t>(target));
    moved = true;
  }
  if (moved) work_cv_.notify_all();
  if (inflight_ == 0) idle_cv_.notify_all();
}

bool DevicePool::kill_device(unsigned d) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (d >= devices_.size()) {
      throw HostError("DevicePool: kill_device index out of range");
    }
    DeviceState& ds = devices_[d];
    if (ds.dead) return false;
    begin_kill_locked(d);
    if (ds.claimed) {
      // A worker is driving the device: the fault lands at its batch
      // boundary (jobs are atomic); the worker completes the fail-stop.
      ds.kill_pending = true;
    } else {
      finish_kill_locked(d);
    }
  }
  work_cv_.notify_all();
  return true;
}

bool DevicePool::revive_device(unsigned d) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (d >= devices_.size()) {
      throw HostError("DevicePool: revive_device index out of range");
    }
    DeviceState& ds = devices_[d];
    if (!ds.dead || ds.kill_pending) return false;
    ds.dead = false;
    ds.failover = -1;
    ++devices_revived_;
    obs::instant("fault.revive", 0, d);
  }
  work_cv_.notify_all();
  return true;
}

bool DevicePool::device_dead(unsigned d) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (d >= devices_.size()) {
    throw HostError("DevicePool: device_dead index out of range");
  }
  return devices_[d].dead;
}

void DevicePool::check_faults_locked() {
  for (FaultTrace& t : fault_trace_) {
    if (!t.killed && completed_ >= t.ev.kill_after_jobs) {
      t.killed = true;
      DeviceState& ds = devices_[t.ev.device];
      if (!ds.dead) {
        begin_kill_locked(t.ev.device);
        if (ds.claimed) {
          ds.kill_pending = true;
        } else {
          finish_kill_locked(t.ev.device);
        }
        work_cv_.notify_all();
      }
    }
    if (t.killed && !t.revived && t.ev.revive_after_jobs > 0 &&
        completed_ >= t.ev.revive_after_jobs) {
      DeviceState& ds = devices_[t.ev.device];
      if (ds.kill_pending) continue;  // fail-stop mid-flight; next boundary
      t.revived = true;
      if (ds.dead) {
        ds.dead = false;
        ds.failover = -1;
        ++devices_revived_;
        obs::instant("fault.revive", 0, t.ev.device);
        work_cv_.notify_all();
      }
    }
  }
}

JobHandle DevicePool::submit(Job job) {
  std::promise<JobResult> promise;
  JobHandle handle(promise.get_future());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw HostError("DevicePool: submit after shutdown");
    const std::uint64_t seq = next_seq_;
    const unsigned family = static_cast<unsigned>(job.work.index());
    const unsigned d = route(job, seq);  // throws before enqueuing
    DeviceState& ds = devices_[d];
    ++next_seq_;
    const bool spans = obs::spans_enabled();
    const std::uint64_t enq =
        obs::tracing_enabled() || spans ? obs::now_ns() : 0;
    ds.queue.push_back(Pending{std::move(job), std::move(promise), seq, family,
                               enq, spans ? sched_load_[d] : 0});
    ++inflight_;
  }
  work_cv_.notify_one();
  return handle;
}

std::vector<JobHandle> DevicePool::submit_batch(std::vector<Job> jobs) {
  std::vector<JobHandle> handles;
  handles.reserve(jobs.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw HostError("DevicePool: submit after shutdown");
    // Validate every pin first: a bad pin must not enqueue half a batch.
    for (const Job& job : jobs) validate_pin(job);
    for (Job& job : jobs) {
      std::promise<JobResult> promise;
      handles.emplace_back(promise.get_future());
      const std::uint64_t seq = next_seq_++;
      const unsigned family = static_cast<unsigned>(job.work.index());
      const unsigned d = route(job, seq);
      DeviceState& ds = devices_[d];
      const bool spans = obs::spans_enabled();
      const std::uint64_t enq =
          obs::tracing_enabled() || spans ? obs::now_ns() : 0;
      ds.queue.push_back(Pending{std::move(job), std::move(promise), seq,
                                 family, enq, spans ? sched_load_[d] : 0});
      ++inflight_;
    }
  }
  work_cv_.notify_all();
  return handles;
}

void DevicePool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || find_work() >= 0; });
    const int d = find_work();
    if (d < 0) {
      if (stopping_) return;
      continue;  // another worker took the job that woke us
    }
    DeviceState& ds = devices_[static_cast<std::size_t>(d)];
    ds.claimed = true;

    // A checkpoint parked on this device (its source fail-stopped) is
    // adopted before any rescued job runs, so residency carries over.
    std::vector<std::uint8_t> restore_blob = std::move(ds.pending_restore);
    ds.pending_restore.clear();
    // Batched dispatch: drain a chunk of this device's FIFO under one claim.
    std::vector<Pending> chunk;
    const std::size_t take =
        std::min<std::size_t>(ds.queue.size(), cfg_.max_batch);
    chunk.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      chunk.push_back(std::move(ds.queue.front()));
      ds.queue.pop_front();
    }
    lock.unlock();

    bool restored = false;
    if (!restore_blob.empty()) {
      std::string why;
      const Device::RestoreOutcome oc = ds.device->restore(restore_blob, &why);
      restored = oc == Device::RestoreOutcome::kApplied;
      obs::instant("fault.restore", 0, static_cast<std::uint64_t>(d),
                   restored ? 1 : 0);
      if (oc == Device::RestoreOutcome::kRejected) {
        log::Line(log::Level::kWarn)
            << "pool: checkpoint rejected on device "
                              << ds.device->id() << " (" << why
                              << "); device re-stages cold";
      }
    }

    std::uint64_t ok = 0, bad = 0;
    // Measured-cost samples for the online estimator, normalized back to
    // the baseline variant by the device's speed factor. Accumulated as
    // integers so folding is order-independent.
    std::array<std::uint64_t, kJobFamilies> meas{};
    std::array<std::uint64_t, kJobFamilies> prior{};
    for (Pending& p : chunk) {
      if (p.enq_ns != 0 && obs::tracing_enabled()) {
        // Queue wait, stamped at submit and emitted here by the worker so
        // the span needs no cross-thread begin/end pairing.
        const std::uint64_t now = obs::now_ns();
        obs::complete("window.queue", p.job.trace_id, p.enq_ns,
                      now > p.enq_ns ? now - p.enq_ns : 0,
                      static_cast<std::uint64_t>(d));
      }
      // Wire-span breakdown (v6): begin stamps taken just before the run,
      // end stamp after; sim_begin is the device-local clock going in.
      const bool spans = obs::spans_enabled();
      const std::uint64_t run_begin = spans ? obs::now_ns() : 0;
      const std::uint64_t sim0 =
          spans ? ds.device->snapshot().total_cycles() : 0;
      try {
        JobResult r = ds.device->run(p.job, p.seq);
        if (spans) {
          r.timing.enq_ns = p.enq_ns;
          r.timing.run_begin_ns = run_begin;
          r.timing.run_end_ns = obs::now_ns();
          r.timing.place_cycles = p.place_cycles;
          r.timing.sim_begin = sim0;
        }
        const double norm = static_cast<double>(r.cost.total_cycles()) /
                            sched_speed_[static_cast<unsigned>(d)];
        meas[p.family] += static_cast<std::uint64_t>(std::llround(norm));
        prior[p.family] += estimate_cost(p.job);
        p.promise.set_value(std::move(r));
        ++ok;
      } catch (...) {
        p.promise.set_exception(std::current_exception());
        ++bad;
      }
    }

    // Refresh the device's telemetry cache while nothing else can be
    // driving it (our claim is still held until the lock below).
    const soc::Platform::Snapshot snap = ds.device->snapshot();
    const std::uint64_t dev_jobs = ds.device->jobs_run();
    const std::uint64_t dev_stagings = ds.device->stagings();
    const ReplayStats dev_replay = ds.device->replay_stats();

    lock.lock();
    for (unsigned f = 0; f < kJobFamilies; ++f) {
      pend_measured_[f] += meas[f];
      pend_prior_[f] += prior[f];
    }
    ds.cached_snapshot = snap;
    ds.cached_jobs = dev_jobs;
    ds.cached_stagings = dev_stagings;
    ds.cached_replay = dev_replay;
    ds.claimed = false;
    completed_ += ok;
    failed_ += bad;
    inflight_ -= ok + bad;
    if (restored) ++ckpt_restored_;
    if (ds.kill_pending) {
      // The fail-stop landed while we were driving the device; jobs are
      // atomic, so the fault completes here, at the chunk boundary.
      ds.kill_pending = false;
      finish_kill_locked(static_cast<unsigned>(d));
    }
    check_faults_locked();
    if (inflight_ == 0) idle_cv_.notify_all();
    if (!ds.queue.empty() && !ds.dead) work_cv_.notify_one();
  }
}

void DevicePool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
  fold_estimator_locked();  // quiescent: fold is worker-count-invariant
}

FleetStats DevicePool::stats() {
  // One continuous critical section: once inflight_ is 0 *while holding
  // mu_*, every worker sits between chunks (jobs stay counted in inflight_
  // until their worker reacquires the lock), so no device is being mutated
  // while we read its meters.
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
  fold_estimator_locked();
  FleetStats s;
  s.family_factor = family_factor_;
  s.jobs_completed = completed_;
  s.jobs_failed = failed_;
  s.device_cycles.reserve(devices_.size());
  s.device_pj.reserve(devices_.size());
  s.device_jobs.reserve(devices_.size());
  s.device_arch.reserve(devices_.size());
  for (const DeviceState& ds : devices_) {
    fold_device(s, ds.device->snapshot(), ds.device->jobs_run(),
                ds.device->stagings(), ds.device->arch(),
                ds.device->replay_stats());
  }
  fold_faults_locked(s);
  fold_caches(s);
  return s;
}

FleetStats DevicePool::peek_stats() const {
  FleetStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.family_factor = family_factor_;
    s.jobs_completed = completed_;
    s.jobs_failed = failed_;
    s.device_cycles.reserve(devices_.size());
    s.device_pj.reserve(devices_.size());
    s.device_jobs.reserve(devices_.size());
    s.device_arch.reserve(devices_.size());
    for (const DeviceState& ds : devices_) {
      fold_device(s, ds.cached_snapshot, ds.cached_jobs, ds.cached_stagings,
                  ds.device->arch(), ds.cached_replay);
    }
    fold_faults_locked(s);
  }
  fold_caches(s);
  return s;
}

void DevicePool::fold_faults_locked(FleetStats& s) const {
  s.devices_failed = devices_failed_;
  s.devices_revived = devices_revived_;
  s.jobs_rescued = jobs_rescued_;
  s.checkpoints_taken = ckpt_taken_;
  s.checkpoints_restored = ckpt_restored_;
  s.device_dead.reserve(devices_.size());
  for (const DeviceState& ds : devices_) {
    s.device_dead.push_back(ds.dead ? 1 : 0);
    if (ds.dead) ++s.devices_dead;
  }
}

void DevicePool::fold_caches(FleetStats& s) const {
  s.image_cache = cache_.stats();
  s.trace_cache = cache_.traces().stats();
  s.artifact_attached = artifact_ != nullptr;
  if (artifact_) {
    const artifact::Store::Counters c = artifact_->counters();
    s.artifact_images = c.images_served;
    s.artifact_traces = c.traces_served;
    s.artifact_misses = c.lookups_missed;
    s.artifact_rejects = c.parse_rejects;
  }
}

} // namespace vwr2a::runtime
