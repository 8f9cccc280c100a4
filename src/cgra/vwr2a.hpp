#pragma once
// The VWR2A top level (paper Fig. 1): two columns, the shared SPM, the
// configuration memory, the DMA master, and the synchronizer that launches
// kernels, keeps multi-column PCs in step, and raises the completion
// interrupt.
//
// The block keeps its own cycle counter ("local time"). Host-side costs
// (CPU polling, bus writes to the slave port) are charged by the SoC layer;
// the slave-port register-write latency seen *inside* the block is modeled
// here so that standalone (non-SoC) measurements still include the kernel
// programming overhead the paper mentions in Sec 5.1.1.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "bus/sys_port.hpp"
#include "cgra/column.hpp"
#include "cgra/trace.hpp"
#include "cgra/tracecache.hpp"
#include "common/types.hpp"
#include "dma/dma.hpp"
#include "energy/meter.hpp"
#include "isa/program.hpp"
#include "mem/config_mem.hpp"
#include "mem/spm.hpp"

namespace vwr2a::cgra {

/// Cycle cost of one host register write into the VWR2A slave port.
inline constexpr unsigned kSlavePortWriteCycles = 2;

/// Cycle cost of the synchronizer's kernel-launch sequence.
inline constexpr unsigned kLaunchCycles = 4;

/// Cycle cost of raising the completion interrupt line.
inline constexpr unsigned kIrqCycles = 2;

/// The VWR2A accelerator block.
class Vwr2a {
 public:
  /// Builds the block with its master port attached to the system bus.
  explicit Vwr2a(bus::SysPort& sys);

  // --- resources ------------------------------------------------------------
  energy::EnergyMeter& meter() { return meter_; }
  const energy::EnergyMeter& meter() const { return meter_; }
  mem::Spm& spm() { return spm_; }
  const mem::Spm& spm() const { return spm_; }
  mem::ConfigMem& config_mem() { return config_; }
  dma::Dma& dma() { return dma_; }
  Column& column(unsigned c);
  const Column& column(unsigned c) const;

  /// Local cycle counter (advances during DMA, configuration, execution).
  Cycle cycles() const { return cycles_; }

  /// Kernel launches completed via run_kernel() since construction.
  std::uint64_t launches() const { return launches_; }

  // --- host interface (slave port) -------------------------------------------
  /// Registers a kernel image in the configuration memory; returns its id.
  unsigned register_kernel(isa::KernelImage image) {
    return config_.add_kernel(std::move(image));
  }

  /// Registers a shared immutable image (e.g. from an isa::ImageCache) so
  /// many devices alias one assembled copy.
  unsigned register_kernel(std::shared_ptr<const isa::KernelImage> image) {
    return config_.add_kernel(std::move(image));
  }

  /// Host write of one kernel parameter into a column's SRF (slave port).
  void host_write_srf(unsigned col, unsigned idx, Word v);

  /// Host read of one result from a column's SRF (slave port).
  Word host_read_srf(unsigned col, unsigned idx);

  /// Programs and executes one DMA descriptor; the block is busy for the
  /// returned number of cycles (the host driver model is synchronous).
  Cycle dma_transfer(const dma::Descriptor& d);

  /// Loads (if not already resident) and runs a kernel to completion.
  /// Returns the cycles consumed, including configuration load, launch
  /// overhead, and the completion interrupt.
  Cycle run_kernel(unsigned kernel_id);

  /// Steps the occupied columns of a *started* kernel by one cycle. Exposed
  /// for tests that want to observe intermediate state; run_kernel is the
  /// normal path.
  void start_kernel(unsigned kernel_id);
  bool busy() const;
  void step();

  /// Attaches a per-cycle execution tracer (nullptr detaches). A tracer
  /// forces the interpreter (it observes per-cycle state).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // --- trace-cached execution (see cgra/tracecache.hpp) ----------------------

  /// Selects how run_kernel executes: the per-cycle interpreter (default)
  /// or compiled-trace replay. `variant` namespaces the trace-cache keys
  /// (soc::ArchConfig::name() when driven by a Platform).
  void set_exec_mode(ExecMode mode, std::string variant = "") {
    exec_mode_ = mode;
    trace_variant_ = std::move(variant);
  }
  ExecMode exec_mode() const { return exec_mode_; }

  /// Points this block at a shared trace cache (e.g. the DevicePool's
  /// isa::ImageCache::traces()), so a fleet compiles each program once.
  /// nullptr reverts to a private per-block cache.
  void set_trace_cache(TraceCache* cache) { trace_cache_ = cache; }

  /// The trace cache in use (shared if set, else the private one).
  TraceCache& trace_cache() {
    if (trace_cache_ != nullptr) return *trace_cache_;
    if (owned_traces_ == nullptr) owned_traces_ = std::make_unique<TraceCache>();
    return *owned_traces_;
  }

  /// Kernel launches that replayed compiled traces / fell back to the
  /// interpreter after a cross-column SPM conflict or replay fault.
  std::uint64_t traced_launches() const { return traced_launches_; }
  std::uint64_t traced_rollbacks() const { return traced_rollbacks_; }

  /// Per-engine column-cycle counters: how much simulated work each replay
  /// tier carried. Decoupled covers free-running block replay (whole-kernel
  /// decoupled runs and the free stretches of scheduled runs); lockstep
  /// covers per-line sync blocks and the per-cycle alternation tier;
  /// interpreted covers cycles stepped by the reference interpreter
  /// (interpret mode, tracers, and replay fallbacks alike). A kernel stuck
  /// on the slow tiers shows up here long before a profiler.
  std::uint64_t replayed_decoupled_cycles() const { return replayed_decoupled_; }
  std::uint64_t replayed_lockstep_cycles() const { return replayed_lockstep_; }
  std::uint64_t interpreted_cycles() const { return interpreted_cycles_; }

  /// Sync-block executions performed by scheduled replays.
  std::uint64_t sync_points() const { return sync_points_; }

  /// Debug/benchmark knob: when set, two-column traced replays skip the
  /// decoupled and scheduled tiers and run the per-cycle lockstep tier
  /// unconditionally -- the pre-sync-plan behaviour of cross-column
  /// kernels. Results are identical by construction (lockstep is the
  /// conservative tier); only host-side replay throughput changes.
  /// Single-column replays are unaffected (free-running them is already
  /// conflict-free).
  void set_replay_lockstep_only(bool on) { replay_lockstep_only_ = on; }
  bool replay_lockstep_only() const { return replay_lockstep_only_; }

 private:
  void advance(Cycle n);
  /// run_kernel body for ExecMode::kTraceCache: replays the kernel on the
  /// tier its compiled sync plan selects (decoupled free-run, scheduled
  /// free/sync stretches, or per-cycle lockstep), with copy-on-write SPM
  /// undo; rolls back to per-cycle lockstep on a runtime conflict, or to
  /// the interpreter on a replay fault.
  void run_kernel_traced();
  /// Per-cycle lockstep traced replay (columns alternate like step(), with
  /// per-cycle cross snapshots serving kCross operands).
  Cycle run_lockstep_traced();
  /// Scheduled replay: free blocks free-run whole (fused loops included),
  /// sync blocks advance one line per local cycle under the behind-column-
  /// first schedule, which reproduces the interpreter's cross-column access
  /// order for every sync/sync pair.
  Cycle run_scheduled_traced(const tc::SyncPlan& plan);
  /// Runs the started kernel interpreted until both columns exit.
  void run_interpreted() {
    while (busy()) step();
  }
  Tracer* tracer_ = nullptr;

  energy::EnergyMeter meter_;
  mem::Spm spm_;
  mem::ConfigMem config_;
  dma::Dma dma_;
  std::array<std::optional<unsigned>, arch::kNumColumns> loaded_{};
  Column col0_;
  Column col1_;
  Cycle cycles_ = 0;
  std::uint64_t launches_ = 0;

  /// Per-kernel predecoded programs and compiled traces, memoized so kernel
  /// switches (the per-launch common case in multi-kernel applications)
  /// alias instead of re-decoding / re-hashing on every reload.
  struct KernelRuntime {
    std::array<std::shared_ptr<const DecodedProgram>,
               arch::kNumColumns> dec{};
    std::array<std::shared_ptr<const CompiledTrace>, arch::kNumColumns> trace{};
    /// Compiled sync schedule for this kernel's trace pair (recomputed from
    /// the memoized traces on every reload -- cheap mask intersections).
    tc::SyncPlan plan;
    bool plan_ready = false;
    /// Runtime hint: a *dynamically* addressed cross-column conflict (or a
    /// budget-expired cross-column poll) forced a rollback, so later
    /// launches go straight to per-cycle lockstep. Cleared on reload: trip
    /// counts and pointer parameters may have changed, so the free tiers
    /// get re-evaluated instead of pinning the slow path forever.
    bool lockstep_hint = false;
  };
  std::vector<KernelRuntime> kernel_rt_;
  unsigned cur_kernel_ = 0;  ///< kernel id of the last start_kernel()

  ExecMode exec_mode_ = ExecMode::kInterpret;
  std::string trace_variant_;
  TraceCache* trace_cache_ = nullptr;
  std::unique_ptr<TraceCache> owned_traces_;
  std::unique_ptr<tc::SpmUndo> undo_;  ///< lazily allocated (trace mode only)
  std::uint64_t traced_launches_ = 0;
  std::uint64_t traced_rollbacks_ = 0;
  std::uint64_t replayed_decoupled_ = 0;
  std::uint64_t replayed_lockstep_ = 0;
  std::uint64_t interpreted_cycles_ = 0;
  std::uint64_t sync_points_ = 0;
  bool replay_lockstep_only_ = false;
};

} // namespace vwr2a::cgra
