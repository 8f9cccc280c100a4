#pragma once
// One simulated device of the pool: a full soc::Platform plus the kernel
// drivers, with a fixed system-memory layout for job I/O. Devices keep
// their own local time and meters (as the underlying Vwr2a does), so a
// fleet of devices advances independently -- the pool's fleet makespan is
// the max of the device-local clocks, exactly the semantics of N physical
// VWR2A blocks working in parallel.
//
// A device can be built as an architecture variant (soc::ArchConfig: VWR
// count, SIMD width); outputs stay bit-identical across variants while the
// reported cycle/energy deltas follow the variant's cost model, which is
// what lets one heterogeneous pool run an ablation sweep as a single batch.
// Kernel-image cache keys are namespaced by the variant (Host key prefix),
// so incompatible device configurations never alias cache entries.
//
// Residency & staging dedup. The SPM keeps a monotone write stamp per row
// (mem::Spm::row_version); the device uses stamps to prove that resident
// state survived intervening jobs and skip re-staging it:
//   * the resident MBioTracker image owns the band-mask rows
//     (app::kMaskRowFirst..+kMaskRowCount); a BioTrackerJob re-runs init()
//     only when some job clobbered them since the last window;
//   * consecutive jobs whose input is the *same* SharedBuffer skip the
//     SRAM copy + DMA when the staged rows are untouched (cross-job input
//     dedup, e.g. a batch of reductions over one signal);
//   * FIR tap staging is skipped while the same taps buffer sits unclobbered
//     in kernels::kFirTapRow.
// All three depend only on the device's own job history, so worker-count
// invariance is preserved; both can be disabled per-device (Options) to
// measure the no-residency baseline.
//
// A Device is not thread-safe; the pool guarantees at most one worker
// drives a device at a time and that a device's jobs run in submission
// order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/mbiotracker.hpp"
#include "isa/image_cache.hpp"
#include "kernels/delineation.hpp"
#include "kernels/fft.hpp"
#include "kernels/fir.hpp"
#include "kernels/host.hpp"
#include "kernels/reduce.hpp"
#include "runtime/job.hpp"
#include "soc/platform.hpp"

namespace vwr2a::runtime {

/// Per-device feature switches (defaults match the pool's defaults).
struct DeviceOptions {
  bool residency = true;  ///< skip MBioTracker re-init while rows survive
  bool dedup = true;      ///< skip re-staging of an unclobbered SharedBuffer
};

/// Replay-engine counters of one device's accelerator (the trace-cache
/// tiers of src/cgra/tracecache.hpp). Monotone since device construction;
/// the pool caches them at batch boundaries for peek_stats() and folds the
/// fleet totals into FleetStats.
struct ReplayStats {
  std::uint64_t traced_launches = 0;   ///< launches replayed from traces
  std::uint64_t traced_rollbacks = 0;  ///< replays undone by SPM conflicts
  std::uint64_t decoupled_cycles = 0;    ///< column-cycles replayed free-running
  std::uint64_t lockstep_cycles = 0;     ///< column-cycles replayed in lockstep
  std::uint64_t interpreted_cycles = 0;  ///< column-cycles interpreted
  std::uint64_t sync_points = 0;  ///< sync-block executions (scheduled replay)
};

/// One pool member.
class Device {
 public:
  /// System-memory word layout: FIR staging scratch (zeros + taps) at 0,
  /// FFT twiddle tables at kFftTableBase, job data after the tables, and
  /// the resident MBioTracker image (its own tables, masks, weights and
  /// window staging) at kBioBase -- above the largest kernel job's data
  /// footprint (cfft-2048 tops out near word 22k).
  static constexpr unsigned kFirScratchBase = 0;
  static constexpr unsigned kFftTableBase = 32;
  static constexpr unsigned kBioBase = 32768;

  using Options = DeviceOptions;

  /// `cache` shares assembled kernel images across all devices of a pool;
  /// `arch` selects the architecture variant this device simulates.
  Device(unsigned id, isa::ImageCache& cache,
         const soc::ArchConfig& arch = {}, const Options& opts = {});

  /// Runs one job to completion on this device (synchronous, device-local
  /// time advances). Throws on malformed jobs; the caller routes the
  /// exception into the job's promise.
  JobResult run(const Job& job, std::uint64_t seq);

  /// Live replay-engine counters of this device's accelerator.
  ReplayStats replay_stats() const;

  unsigned id() const { return id_; }
  std::uint64_t jobs_run() const { return jobs_; }
  const soc::ArchConfig& arch() const { return platform_.arch(); }

  /// Staging events since construction: SRAM/SPM regions actually staged
  /// (job input rows, FIR taps, the resident MBioTracker image). Residency
  /// tracking and dedup show up as this counter NOT advancing.
  std::uint64_t stagings() const { return stagings_; }

  /// Device-local snapshot (local time + energy since construction).
  soc::Platform::Snapshot snapshot() const { return platform_.snapshot(); }

  /// True when a resident MBioTracker image exists on this device (init()
  /// ran at least once and was never discarded).
  bool has_resident_bio() const { return bio_ != nullptr && bio_inited_; }

  /// What restore() did with a checkpoint blob.
  enum class RestoreOutcome {
    kApplied,          ///< resident state adopted; next bio window skips init
    kSkippedResident,  ///< this device already hosts a resident image
    kRejected,         ///< blob malformed/corrupt; device unchanged
  };

  /// Serializes this device's resident application state (SRAM app region,
  /// SPM mask rows + write stamps -- see runtime/checkpoint.hpp). Returns
  /// an empty vector when nothing is resident. Called by the pool when the
  /// device fail-stops; the device itself is left untouched.
  std::vector<std::uint8_t> checkpoint() const;

  /// Restores a checkpoint captured on another (dying) device. State lands
  /// through simulator backdoors (pokes): migrating it costs this device no
  /// cycles or energy -- the fleet moved it out-of-band. A device that
  /// already hosts a resident image skips the restore (the image contents
  /// are session-independent constants, so it is already equivalent); a
  /// corrupt blob is rejected cleanly and the device stays intact (the next
  /// bio window re-stages from scratch). `why` (optional) explains
  /// kRejected.
  RestoreOutcome restore(const std::vector<std::uint8_t>& blob,
                         std::string* why = nullptr);

  /// The simulated platform (tests/benches: engine counters, meters).
  soc::Platform& platform() { return platform_; }
  const soc::Platform& platform() const { return platform_; }

 private:
  JobResult run_fir(const FirJob& job);
  JobResult run_cfft(const CfftJob& job);
  JobResult run_rfft(const RfftJob& job);
  JobResult run_ifft(const IfftJob& job);
  JobResult run_reduce(const ReduceJob& job);
  JobResult run_delineation(const DelineationJob& job);
  JobResult run_pipeline(const PipelineJob& job);
  JobResult run_bio(const BioTrackerJob& job);

  /// Stages `buf` (whole SPM rows' worth of samples) into system memory at
  /// data_base_ and DMAs it into rows starting at row 0 -- unless the same
  /// buffer is already resident in untouched rows (dedup).
  void stage_rows(const SharedBuffer& buf);
  /// FIR-11 via the device driver with tap-residency dedup.
  kernels::FirRunStats run_fir11(unsigned n, const SharedBuffer& taps,
                                 unsigned sys_in, unsigned sys_out);
  /// Throws unless a job's system-memory footprint ends below kBioBase:
  /// the residency skip assumes kernel jobs can never clobber the resident
  /// app image's SRAM, so the layout invariant is enforced, not assumed.
  void check_sys_fit(unsigned end_word) const;

  unsigned id_;
  soc::Platform platform_;
  isa::ImageCache* cache_;
  kernels::Host host_;
  kernels::FirKernels fir_;
  kernels::FftKernels fft_;
  kernels::ReduceKernels reduce_;
  kernels::DelineationKernels delin_;
  /// The resident application image, created on the first BioTrackerJob.
  std::unique_ptr<app::MBioTracker> bio_;
  unsigned data_base_;  ///< first system word available for job data
  Options opts_;
  std::uint64_t jobs_ = 0;
  std::uint64_t stagings_ = 0;

  // Residency / dedup bookkeeping (SPM write stamps prove survival).
  std::uint64_t bio_rows_version_ = 0;  ///< mask rows at the last init()
  bool bio_inited_ = false;
  SharedBuffer staged_buf_;             ///< last buffer staged into rows 0..
  std::uint64_t staged_version_ = 0;
  SharedBuffer staged_taps_;            ///< last taps staged into kFirTapRow
  std::uint64_t taps_version_ = 0;
};

} // namespace vwr2a::runtime
