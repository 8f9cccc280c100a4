#pragma once
// The host SoC (paper Sec 4.1/4.2): an ARM Cortex-M4F-like CPU, 192 KiB of
// banked SRAM, an AMBA-AHB-like bus, the fixed-function FFT accelerator,
// and the VWR2A block -- each accelerator on its own power-gateable domain,
// with DMA masters and interrupt lines back to the CPU.
//
// Energy is kept in three meters so Table-3-style breakdowns stay
// separable:
//   * sys_meter():   CPU core, system SRAM, bus beats
//   * vwr2a.meter(): everything inside the VWR2A block (incl. its DMA)
//   * accel_meter(): everything inside the FFT accelerator
// Cycle accounting is per-engine; the application layer serializes phases
// (the CPU sleeps on WFI while an accelerator runs), so phase latency is
// the sum of the engine deltas captured by Snapshot.
//
// Architecture variants (Sec 3.2 / 5.1.1 ablations): a Platform can be
// built with an ArchConfig that overrides the VWR count (2/3/4 per column)
// or selects the dual-lane 16-bit SIMD datapath mode. The variants share
// the 3-VWR/32-bit functional model -- outputs stay bit-identical -- and
// apply analytically derived cycle/energy adjustments (apply_arch_model,
// the one cost model of the ablations) continuously to every Snapshot, so
// a heterogeneous fleet of variants can be swept in one run
// (runtime::DevicePool per-device overrides; bench/runtime_sweep.cpp).

#include <cstdint>
#include <string>

#include "accel/fft_accel.hpp"
#include "bus/ahb.hpp"
#include "cgra/vwr2a.hpp"
#include "common/status.hpp"
#include "cpu/m4.hpp"
#include "energy/meter.hpp"
#include "mem/sram.hpp"

namespace vwr2a::soc {

/// Architecture knobs of one platform instance. The default is the paper's
/// design point (3 VWRs per column, 32-bit datapath) executed on the
/// per-cycle interpreter.
struct ArchConfig {
  unsigned vwr_count = arch::kVwrsPerColumn;  ///< VWRs per column: 2, 3 or 4
  unsigned simd_width = arch::kWordBits;      ///< 32, or 16 (dual-lane q15)
  /// Kernel execution engine: the reference interpreter, or trace-cache
  /// replay (bit/cycle/energy-identical, see cgra/tracecache.hpp). A host
  /// knob, not an architecture property: it never changes simulated
  /// behaviour, only how fast the simulator reaches it.
  cgra::ExecMode exec_mode = cgra::ExecMode::kInterpret;

  bool operator==(const ArchConfig&) const = default;

  /// True for the paper's design point (no cost-model adjustment). The
  /// execution engine is cost-model-transparent, so it does not count.
  bool is_baseline() const {
    return vwr_count == arch::kVwrsPerColumn && simd_width == arch::kWordBits;
  }

  /// Stable identity string: kernel-image cache namespace and report label.
  /// Deliberately excludes exec_mode -- both engines execute the same
  /// images, so interpret and trace-cache devices share assembled kernels.
  std::string name() const {
    return "vwr" + std::to_string(vwr_count) + ".w" + std::to_string(simd_width);
  }

  /// Throws HostError unless the variant is one the cost model covers.
  void validate() const {
    if (vwr_count < 2 || vwr_count > 4) {
      throw HostError("ArchConfig: vwr_count must be 2, 3 or 4");
    }
    if (simd_width != 16 && simd_width != 32) {
      throw HostError("ArchConfig: simd_width must be 16 or 32");
    }
  }
};

/// Cycle cost charged to the CPU for programming an accelerator (slave-port
/// register writes + interrupt service), per request.
inline constexpr unsigned kHostProgramCycles = 24;
inline constexpr unsigned kHostIrqCycles = 12;

/// The integrated platform.
class Platform {
 public:
  /// The platform configuration struct (Platform::Config::exec_mode selects
  /// the kernel execution engine).
  using Config = ArchConfig;

  Platform() : Platform(ArchConfig{}) {}

  explicit Platform(const ArchConfig& arch)
      : arch_(arch),
        sram_(sys_meter_),
        ahb_(sram_, sys_meter_),
        cpu_(sys_meter_),
        accel_(accel_meter_),
        vwr2a_(ahb_) {
    arch_.validate();
    vwr2a_.set_exec_mode(arch_.exec_mode, arch_.name());
  }

  const ArchConfig& arch() const { return arch_; }

  mem::SystemSram& sram() { return sram_; }
  const mem::SystemSram& sram() const { return sram_; }
  bus::AhbBus& ahb() { return ahb_; }
  cpu::M4Meter& cpu() { return cpu_; }
  const cpu::M4Meter& cpu() const { return cpu_; }
  accel::FftAccel& fft_accel() { return accel_; }
  cgra::Vwr2a& vwr2a() { return vwr2a_; }
  const cgra::Vwr2a& vwr2a() const { return vwr2a_; }

  energy::EnergyMeter& sys_meter() { return sys_meter_; }
  const energy::EnergyMeter& sys_meter() const { return sys_meter_; }
  energy::EnergyMeter& accel_meter() { return accel_meter_; }
  const energy::EnergyMeter& accel_meter() const { return accel_meter_; }

  /// Records accelerator occupancy (the accelerator result cycles) on the
  /// platform timeline.
  void add_accel_cycles(Cycle c) { accel_cycles_ += c; }
  Cycle accel_cycles() const { return accel_cycles_; }

  /// Charges the CPU-side cost of programming an accelerator and servicing
  /// its completion interrupt.
  void charge_host_control() {
    cpu_.idle_cycles(kHostProgramCycles + kHostIrqCycles);
    ahb_.charge_setup();
  }

  /// A point-in-time capture of all engines' cycles and energies.
  struct Snapshot {
    Cycle cpu_cycles = 0;
    Cycle vwr2a_cycles = 0;
    Cycle accel_cycles = 0;
    double sys_pj = 0.0;
    double vwr2a_pj = 0.0;
    double accel_pj = 0.0;

    Cycle total_cycles() const { return cpu_cycles + vwr2a_cycles + accel_cycles; }
    double total_pj() const { return sys_pj + vwr2a_pj + accel_pj; }
    double total_uj() const { return total_pj() * 1e-6; }
  };

  Snapshot snapshot() const {
    Snapshot s{cpu_.cycles(),   vwr2a_.cycles(),      accel_cycles_,
               sys_meter_.total_pj(), vwr2a_.meter().total_pj(),
               accel_meter_.total_pj()};
    apply_arch_model(s);
    return s;
  }

  /// The difference of two snapshots (b taken after a).
  static Snapshot delta(const Snapshot& a, const Snapshot& b) {
    Snapshot d;
    d.cpu_cycles = b.cpu_cycles - a.cpu_cycles;
    d.vwr2a_cycles = b.vwr2a_cycles - a.vwr2a_cycles;
    d.accel_cycles = b.accel_cycles - a.accel_cycles;
    d.sys_pj = b.sys_pj - a.sys_pj;
    d.vwr2a_pj = b.vwr2a_pj - a.vwr2a_pj;
    d.accel_pj = b.accel_pj - a.accel_pj;
    return d;
  }

 private:
  /// Applies the variant cost model to a raw snapshot. The adjustments are
  /// analytic models of the VWR-count (Sec 3.2) and 16-bit datapath
  /// (Sec 5.1.1) ablations, expressed over the cumulative VWR2A event
  /// counts so snapshot deltas inherit them:
  ///  * 2 VWRs: the shuffle unit loses its dedicated destination -- every
  ///    shuffle result and ~half the elementwise passes pay an SPM round
  ///    trip (2 cycles + one row read + one row write), minus one VWR's
  ///    leakage;
  ///  * 4 VWRs: both twiddle planes stay resident (~1 reload per chunk,
  ///    1/6 of the row writes, saved), at +1/3 leakage and a 1.3x wider
  ///    VWR write mux;
  ///  * 16-bit dual-lane mode: two packed q15 ops per cycle halve the
  ///    elementwise ALU cycles. Elementwise passes run 1 op/RC/cycle with
  ///    both columns in lockstep (8 RCs -> alu_ops / 8 elementwise cycles),
  ///    so halving saves alu_ops / 16; the narrower multiplier scales
  ///    datapath energy by ~0.55/op. Single-column kernels save less than
  ///    half under this divisor -- a deliberately conservative estimate.
  /// Adjusted cycles stay monotone in the raw counters (every ALU op and
  /// row write also costs at least one raw cycle), so deltas never go
  /// negative.
  void apply_arch_model(Snapshot& s) const {
    if (arch_.is_baseline()) return;
    using energy::Event;
    const energy::EnergyMeter& m = vwr2a_.meter();
    const std::uint64_t shuffles = m.count(Event::kShuffleOp);
    const std::uint64_t row_writes = m.count(Event::kVwrRowWrite);
    if (arch_.vwr_count == 2) {
      const std::uint64_t extra = shuffles + row_writes / 2;
      s.vwr2a_cycles += 2 * extra;
      s.vwr2a_pj += static_cast<double>(extra) *
                    (energy::energy_pj(Event::kSpmRowRead) +
                     energy::energy_pj(Event::kSpmRowWrite));
      s.vwr2a_pj -= m.event_pj(Event::kLeakCycle) / 3.0;
    } else if (arch_.vwr_count == 4) {
      s.vwr2a_cycles -= row_writes / 6;
      s.vwr2a_pj += m.event_pj(Event::kLeakCycle) / 3.0 +
                    0.3 * m.event_pj(Event::kVwrRowWrite);
    }
    if (arch_.simd_width == 16) {
      const std::uint64_t alu_ops = m.count(Event::kAluOp) +
                                    m.count(Event::kAluMul) +
                                    m.count(Event::kAluFxpMul);
      s.vwr2a_cycles -=
          alu_ops / (2 * arch::kRcsPerColumn * arch::kNumColumns);
      s.vwr2a_pj -= 0.675 * (m.event_pj(Event::kAluOp) +
                             m.event_pj(Event::kAluMul) +
                             m.event_pj(Event::kAluFxpMul));
    }
  }

  ArchConfig arch_;
  energy::EnergyMeter sys_meter_;
  energy::EnergyMeter accel_meter_;
  mem::SystemSram sram_;
  bus::AhbBus ahb_;
  cpu::M4Meter cpu_;
  accel::FftAccel accel_;
  cgra::Vwr2a vwr2a_;
  Cycle accel_cycles_ = 0;
};

} // namespace vwr2a::soc
