#pragma once
// Asynchronous multi-device runtime: N simulated VWR2A platforms behind one
// job queue, in the spirit of many-engine designs (Versa's shared dispatch
// over many cores, Ara's clean runtime/lane split) -- scale comes from more
// devices, not from touching the device model.
//
// Scheduling & determinism. Jobs are placed on devices statically at
// submission time, under one policy (Config::schedule):
//   * kRoundRobin (default): global submission index `seq` runs on device
//     `seq % devices` -- the original blind placement;
//   * kShortestLocalClock: the job goes to the device that would *finish*
//     it first under the estimated local clocks -- argmin over devices of
//     (estimated clock + job estimate scaled by the device's architecture
//     speed factor), ties broken by the lowest device index. The clock
//     estimates accumulate deterministic per-job cost estimates of
//     everything already placed (plus stream-session reservations via
//     place_load), so the policy is load- and heterogeneity-aware, yet
//     still a pure function of the submission order.
// The per-job estimates are an analytic per-family prior scaled by an
// online EWMA correction factor learned from measured job costs. Updates
// fold in only at fleet-quiescent points (wait_idle/stats), from
// order-independent integer sums, so placement stays a pure function of
// the submission order and the barrier history -- never of worker timing.
// An explicit `pin` (pin_to_device) overrides either policy and forces the
// job onto that device (its estimate still counts toward the device's
// clock). Each device keeps a FIFO of its pending jobs and is driven by at
// most one worker at a time, so the job stream a device sees -- and
// therefore every per-job cycle and energy delta -- depends only on the
// submission order, the device count, the policy and the pins, never on the
// number of workers or on thread scheduling. Workers are interchangeable
// executors: with 1 worker the fleet is simulated sequentially, with W
// workers up to W devices advance concurrently, and the results are bit-
// and cycle-identical.
//
// Heterogeneity. Config::device_arch gives each device its own
// soc::ArchConfig (VWR count / SIMD width, the paper's ablation knobs), so
// one pool can host a whole ablation sweep: pin each variant's jobs to the
// device built with that variant and read per-device stats from
// FleetStats. Kernel-image cache keys are namespaced per variant, so
// incompatible device configs never share images while identical ones
// still assemble each kernel once fleet-wide.
//
// Batched dispatch. submit_batch() enqueues a whole batch under one lock
// round-trip, and a worker that claims a device drains up to
// Config::max_batch queued jobs before releasing it, amortizing queue
// synchronization across jobs. Simulated DMA programming is amortized the
// same way the hardware would: consecutive jobs of one device reuse the
// resident kernel configuration (no reload) and the shared image cache
// assembles each kernel once fleet-wide.

#include <array>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "isa/image_cache.hpp"
#include "runtime/device.hpp"
#include "runtime/job.hpp"

namespace vwr2a::artifact {
class Store;
}

namespace vwr2a::runtime {

/// Device-placement policy of a pool (see the header comment).
enum class Schedule : std::uint8_t {
  kRoundRobin = 0,       ///< seq % devices (blind, the original policy)
  kShortestLocalClock,   ///< least estimated device-local clock, tie: lowest id
};

/// Number of Job::work alternatives (cost-estimator families).
inline constexpr unsigned kJobFamilies =
    std::variant_size_v<decltype(Job::work)>;

/// One scripted fault (Config::faults): device `device` fail-stops once the
/// fleet has completed `kill_after_jobs` jobs, and -- when
/// `revive_after_jobs` is non-zero -- rejoins once the fleet has completed
/// that many. Faults land at batch boundaries (jobs are atomic; see
/// docs/operations.md for the fail-stop model). kill_device()/
/// revive_device() are the unscripted equivalents for chaos drivers.
struct FaultEvent {
  unsigned device = 0;
  std::uint64_t kill_after_jobs = 0;
  std::uint64_t revive_after_jobs = 0;  ///< 0: the device stays dead
};

/// A scripted fault-injection plan.
struct FaultPlan {
  std::vector<FaultEvent> events;
  bool empty() const { return events.empty(); }
};

/// Fleet-wide aggregate over all devices of a pool.
struct FleetStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  /// Max device-local elapsed time -- host-control CPU cycles plus
  /// accelerator engine cycles, the serialized-phase latency semantics of
  /// soc::Platform::Snapshot -- i.e. the simulated wall clock of the fleet
  /// (devices run in parallel in simulated time).
  Cycle fleet_makespan = 0;
  /// Sum of device-local elapsed times: total simulated device occupancy.
  Cycle total_device_cycles = 0;
  /// Fleet energy (all devices, all meters), in pJ / µJ.
  double total_pj = 0.0;
  /// Staging events fleet-wide (regions copied + DMA'd: job inputs, FIR
  /// taps, resident app images). Residency tracking and cross-job dedup
  /// show up as this number shrinking for the same job stream.
  std::uint64_t stagings = 0;
  std::vector<Cycle> device_cycles;  ///< per-device local time
  std::vector<double> device_pj;     ///< per-device energy
  std::vector<std::uint64_t> device_jobs;      ///< per-device jobs run
  std::vector<std::uint64_t> device_stagings;  ///< per-device staging events
  std::vector<soc::ArchConfig> device_arch;    ///< per-device variant
  isa::ImageCache::Stats image_cache;
  cgra::TraceCache::Stats trace_cache;
  /// Artifact hydration picture (see src/artifact/): whether a prebuilt
  /// artifact is attached to this fleet's caches, and what it has served.
  bool artifact_attached = false;
  std::uint64_t artifact_images = 0;   ///< images hydrated from the artifact
  std::uint64_t artifact_traces = 0;   ///< traces hydrated from the artifact
  std::uint64_t artifact_misses = 0;   ///< lookups the artifact did not hold
  std::uint64_t artifact_rejects = 0;  ///< entries rejected by payload parse
  /// Online-estimator correction factor per job family (1.0 = the analytic
  /// prior is spot on; see DevicePool::estimate). Indexed by Job::work
  /// alternative.
  std::array<double, kJobFamilies> family_factor{};
  // Fault-and-recovery picture (docs/operations.md). Counters are
  // pool-lifetime cumulative; device_dead is the current health bitmap.
  std::uint64_t devices_failed = 0;   ///< kill events observed
  std::uint64_t devices_revived = 0;  ///< revive events observed
  std::uint64_t devices_dead = 0;     ///< currently dead devices
  std::uint64_t jobs_rescued = 0;     ///< queued jobs re-placed off the dead
  std::uint64_t checkpoints_taken = 0;     ///< resident state serialized
  std::uint64_t checkpoints_restored = 0;  ///< resident state adopted
  std::vector<std::uint8_t> device_dead;   ///< per-device health (1 = dead)
  // Replay-engine picture (src/cgra/tracecache.hpp): how the fleet's
  // accelerator work actually executed, as fleet totals. The cycle
  // counters are column-cycles per tier -- work stuck on the slow tiers
  // (lockstep, interpreter) shows up here long before a profiler would.
  std::uint64_t traced_launches = 0;   ///< launches replayed from traces
  std::uint64_t traced_rollbacks = 0;  ///< replays undone by SPM conflicts
  /// Always 0; kept only for perfbench's per-layer lines.
  std::uint64_t batched_launches = 0;
  std::uint64_t replay_decoupled_cycles = 0;    ///< free-running replay work
  std::uint64_t replay_lockstep_cycles = 0;     ///< lockstep replay work
  std::uint64_t replay_interpreted_cycles = 0;  ///< interpreter work
  std::uint64_t replay_sync_points = 0;  ///< sync blocks run by scheduled replay
  /// Always 0; kept only for perfbench's per-layer lines.
  std::uint64_t batch_groups = 0;
  /// Always 0; kept only for perfbench's per-layer lines.
  std::uint64_t jobs_batched = 0;

  /// Calls fn(name, kind, value) once per scalar field, under the name
  /// the gateway's STATS frame carries it by -- the one list of the
  /// fleet's wire metrics. value is a std::uint64_t; the kReal field
  /// (total_pj) passes its f64 bit pattern. The per-device vectors,
  /// family_factor and the three always-0 batch fields are not on it.
  template <class Fn>
  void for_each_scalar(Fn&& fn) const {
    using K = MetricKind;
    fn("jobs_completed", K::kCounter, jobs_completed);
    fn("jobs_failed", K::kCounter, jobs_failed);
    fn("fleet_makespan", K::kCounter, fleet_makespan);
    fn("total_device_cycles", K::kCounter, total_device_cycles);
    fn("stagings", K::kCounter, stagings);
    fn("total_pj", K::kReal, std::bit_cast<std::uint64_t>(total_pj));
    fn("image_cache_hits", K::kCounter, image_cache.hits);
    fn("image_cache_misses", K::kCounter, image_cache.misses);
    fn("image_cache_entries", K::kGauge,
       static_cast<std::uint64_t>(image_cache.entries));
    fn("image_cache_builds", K::kCounter, image_cache.builds);
    fn("images_hydrated", K::kCounter, image_cache.hydrated);
    fn("trace_cache_hits", K::kCounter, trace_cache.hits);
    fn("traces_compiled", K::kCounter, trace_cache.compiled);
    fn("traces_bailed", K::kCounter, trace_cache.bailed);
    fn("traces_hydrated", K::kCounter, trace_cache.hydrated);
    fn("artifact_attached", K::kGauge, std::uint64_t{artifact_attached});
    fn("artifact_images", K::kCounter, artifact_images);
    fn("artifact_traces", K::kCounter, artifact_traces);
    fn("artifact_misses", K::kCounter, artifact_misses);
    fn("artifact_rejects", K::kCounter, artifact_rejects);
    fn("devices_failed", K::kCounter, devices_failed);
    fn("devices_revived", K::kCounter, devices_revived);
    fn("devices_dead", K::kGauge, devices_dead);
    fn("jobs_rescued", K::kCounter, jobs_rescued);
    fn("checkpoints_taken", K::kCounter, checkpoints_taken);
    fn("checkpoints_restored", K::kCounter, checkpoints_restored);
    fn("traced_launches", K::kCounter, traced_launches);
    fn("traced_rollbacks", K::kCounter, traced_rollbacks);
    fn("replay_decoupled_cycles", K::kCounter, replay_decoupled_cycles);
    fn("replay_lockstep_cycles", K::kCounter, replay_lockstep_cycles);
    fn("replay_interpreted_cycles", K::kCounter, replay_interpreted_cycles);
    fn("replay_sync_points", K::kCounter, replay_sync_points);
  }

  double total_uj() const { return total_pj * 1e-6; }
  double sim_seconds() const {
    return static_cast<double>(fleet_makespan) / arch::kClockHz;
  }
  /// Fleet throughput in jobs per simulated second.
  double jobs_per_sim_second() const {
    const double s = sim_seconds();
    return s > 0 ? static_cast<double>(jobs_completed) / s : 0.0;
  }
};

/// The device pool.
class DevicePool {
 public:
  struct Config {
    unsigned devices = 1;
    unsigned workers = 0;    ///< 0: one worker per device
    unsigned max_batch = 32; ///< jobs drained per device claim
    /// Per-device architecture overrides: empty = every device is the
    /// paper's baseline; one entry = that variant fleet-wide; otherwise
    /// exactly one entry per device.
    std::vector<soc::ArchConfig> device_arch;
    /// Placement policy for unpinned jobs.
    Schedule schedule = Schedule::kRoundRobin;
    /// Per-device feature switches (SPM residency tracking, cross-job
    /// staging dedup); on by default, off reproduces the PR-2 baseline.
    Device::Options device_opts;
    /// Prebuilt binary artifact (src/artifact/) to warm-start from: when
    /// non-empty (or when the VWR2A_ARTIFACT environment variable names a
    /// path, see artifact_env), the pool mmaps it and attaches it to the
    /// fleet's image and trace caches as a hydration source. Any problem
    /// with the file -- absent, wrong version, corrupt -- logs a warning
    /// and the pool runs cold; an artifact can never affect correctness.
    std::string artifact_path;
    /// Honor the VWR2A_ARTIFACT environment variable (which, when set,
    /// overrides artifact_path). Tests and cold-start benches set this to
    /// false to pin a pool cold regardless of the ambient environment.
    bool artifact_env = true;
    /// Eagerly hydrate the fleet's whole working set from the artifact in
    /// the constructor (one thread per distinct variant), so no job ever
    /// pays a first-touch assembly or trace-compilation hiccup. Off by
    /// default: lazy hydration already warms each kernel on first use;
    /// prewarm trades a few ms at construction for zero warm-up tail --
    /// the serving-fleet configuration (see bench/cold_start.cpp).
    bool artifact_prewarm = false;
    /// Scripted device faults, evaluated against the fleet's completed-job
    /// count at batch boundaries. Empty (the default): no injected faults.
    FaultPlan faults;
  };

  DevicePool() : DevicePool(Config()) {}
  explicit DevicePool(Config cfg);
  ~DevicePool();  ///< drains all queued jobs, then joins the workers

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  /// Enqueues one job; returns its future. Thread-safe. Throws HostError if
  /// the job's pin names a device outside the fleet.
  JobHandle submit(Job job);

  /// Enqueues a batch under a single lock round-trip; returns one future
  /// per job, in order. Thread-safe. Pins are validated before anything is
  /// enqueued (all-or-nothing).
  std::vector<JobHandle> submit_batch(std::vector<Job> jobs);

  /// Blocks until every submitted job has completed.
  void wait_idle();

  /// Waits for idle, then aggregates fleet-wide statistics.
  FleetStats stats();

  /// Non-blocking fleet aggregate for live telemetry (the gateway's STATS
  /// frame): never waits for the fleet to go idle. Device figures come from
  /// per-device snapshots cached by the workers at batch boundaries, so the
  /// numbers lag in-progress batches but are always safe to read while
  /// traffic is flowing. Thread-safe.
  FleetStats peek_stats() const;

  unsigned num_devices() const { return static_cast<unsigned>(devices_.size()); }
  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }
  isa::ImageCache& image_cache() { return cache_; }
  Schedule schedule() const { return cfg_.schedule; }
  /// The attached artifact store, or null when the pool runs cold.
  const artifact::Store* artifact() const { return artifact_.get(); }

  /// Analytic per-job cost prior (cycles on the baseline variant): the
  /// hand-calibrated per-family model. The online estimator refines it;
  /// placement only needs relative magnitudes, never exact costs.
  static Cycle estimate_cost(const Job& job);

  /// The pool's current estimate for `job`: the analytic prior scaled by
  /// the job family's learned EWMA correction factor (1.0 until the first
  /// quiescent point after that family has run). Thread-safe.
  Cycle estimate(const Job& job) const;

  /// Current per-family correction factors (telemetry; also in FleetStats).
  std::array<double, kJobFamilies> family_factors() const;

  /// Picks the device that would finish `estimate` extra cycles first
  /// (shortest-local-clock rule) and reserves that load on it without
  /// submitting work. Thread-safe. How a stream session soft-pins itself:
  /// the reservation makes the claim visible to the next placement.
  unsigned place_load(Cycle estimate);

  // --- fault injection & recovery (docs/operations.md) ----------------------

  /// Fail-stops device d: it stops receiving work immediately, its resident
  /// state is checkpointed, its queued jobs are re-placed onto healthy
  /// devices (in order; pinned jobs follow a stable failover target chosen
  /// by shortest-local-clock), and subsequent submits pinned to d are
  /// redirected the same way. A batch already claimed by a worker completes
  /// first -- faults land at job boundaries (jobs are atomic). Thread-safe.
  /// Returns false when d was already dead. Throws on an out-of-range d.
  bool kill_device(unsigned d);

  /// Brings a dead device back: it rejoins placement for new work (pins to
  /// it stop redirecting; the first bio window re-stages the resident image
  /// there, bit-identically). Thread-safe. Returns false when d is not dead
  /// or its fail-stop is still completing. Throws on an out-of-range d.
  bool revive_device(unsigned d);

  /// Current health of device d. Thread-safe.
  bool device_dead(unsigned d) const;

 private:
  struct Pending {
    Job job;
    std::promise<JobResult> promise;
    std::uint64_t seq = 0;
    unsigned family = 0;  ///< Job::work alternative (estimator family)
    /// Host-ns enqueue stamp for the flight recorder's queue-wait span and
    /// the v6 wire breakdown; 0 when both tracing and spans were off at
    /// submit. Observability only.
    std::uint64_t enq_ns = 0;
    /// Estimated device-local clock (cycles) the placement charged this
    /// job's device with, including this job; 0 when spans were off at
    /// submit. Observability only.
    std::uint64_t place_cycles = 0;
  };
  struct DeviceState {
    std::unique_ptr<Device> device;
    std::deque<Pending> queue;
    bool claimed = false;  ///< a worker is currently driving this device
    /// Batch-boundary telemetry cache (guarded by mu_): written by the
    /// worker releasing its claim, read by peek_stats() without touching
    /// the (not thread-safe) device itself.
    soc::Platform::Snapshot cached_snapshot;
    std::uint64_t cached_jobs = 0;
    std::uint64_t cached_stagings = 0;
    ReplayStats cached_replay;
    // Fault state (guarded by mu_).
    bool dead = false;          ///< fail-stopped; receives no work
    bool kill_pending = false;  ///< claimed at kill time; worker finishes it
    int failover = -1;          ///< where this device's pinned work now goes
    /// Checkpoint of a dead device awaiting adoption here: the claiming
    /// worker applies it before running the next chunk.
    std::vector<std::uint8_t> pending_restore;
  };
  /// Scripted-fault progress (guarded by mu_).
  struct FaultTrace {
    FaultEvent ev;
    bool killed = false;
    bool revived = false;
  };

  void worker_loop();
  /// Index of a serviceable device (unclaimed, non-empty queue), or -1.
  int find_work() const;
  /// Throws unless the job's pin (if any) names a device of the fleet.
  void validate_pin(const Job& job) const;
  /// `estimate` scaled by device d's architecture speed factor.
  Cycle scaled_estimate(Cycle estimate, unsigned d) const;
  /// Shortest-completion device for `estimate` extra cycles (ties: lowest
  /// index). Caller holds mu_.
  unsigned pick_shortest(Cycle estimate) const;
  /// Device a job routes to -- pin, round-robin or shortest-local-clock --
  /// and charges its cost estimate to that device's clock. Caller holds mu_.
  unsigned route(const Job& job, std::uint64_t seq);
  /// estimate() with mu_ already held.
  Cycle estimate_locked(const Job& job) const;
  /// Follows the failover chain from d to a live device. Throws HostError
  /// when the chain dead-ends (no healthy device). Caller holds mu_.
  unsigned resolve_alive(unsigned d) const;
  /// Marks d dead, picks its failover target and counts the kill; the
  /// fail-stop completes via finish_kill_locked (now, or at the claiming
  /// worker's chunk end). Caller holds mu_; d must be alive.
  void begin_kill_locked(unsigned d);
  /// Completes a fail-stop: checkpoints the device, hands the blob to the
  /// failover target, and re-places the queued jobs in order. Caller holds
  /// mu_; d is dead and not driven by any other worker.
  void finish_kill_locked(unsigned d);
  /// Evaluates the scripted fault plan against completed_. Caller holds mu_.
  void check_faults_locked();
  /// Folds the pending measured-cost sums into the EWMA factors. Called
  /// only when the fleet is quiescent (inflight_ == 0) under mu_, so the
  /// result is independent of worker count and completion order.
  void fold_estimator_locked();

  /// Fills the cache/artifact fields of a FleetStats (shared by stats()
  /// and peek_stats()).
  void fold_caches(FleetStats& s) const;
  /// Fills the fault fields of a FleetStats. Caller holds mu_.
  void fold_faults_locked(FleetStats& s) const;

  isa::ImageCache cache_;
  std::shared_ptr<artifact::Store> artifact_;  ///< hydration source (optional)
  Config cfg_;
  std::vector<DeviceState> devices_;
  std::vector<Cycle> sched_load_;    ///< estimated local clock per device
  std::vector<double> sched_speed_;  ///< per-device arch speed factor
  std::vector<std::thread> workers_;

  // Online estimator state (guarded by mu_). Pending sums are integers, so
  // they are independent of the order completions arrive in; factors only
  // change inside fold_estimator_locked() at quiescent points.
  std::array<double, kJobFamilies> family_factor_{};  ///< init to 1.0
  std::array<std::uint64_t, kJobFamilies> pend_measured_{};
  std::array<std::uint64_t, kJobFamilies> pend_prior_{};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: new work or shutdown
  std::condition_variable idle_cv_;  ///< waiters: inflight_ reached zero
  std::uint64_t next_seq_ = 0;
  std::uint64_t inflight_ = 0;  ///< queued or running jobs
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  bool stopping_ = false;

  // Fault bookkeeping (guarded by mu_).
  std::vector<FaultTrace> fault_trace_;  ///< scripted-plan progress
  std::uint64_t devices_failed_ = 0;
  std::uint64_t devices_revived_ = 0;
  std::uint64_t jobs_rescued_ = 0;
  std::uint64_t ckpt_taken_ = 0;
  std::uint64_t ckpt_restored_ = 0;
};

} // namespace vwr2a::runtime
