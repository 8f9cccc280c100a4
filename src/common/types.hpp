#pragma once
// Fundamental machine types and the VWR2A architectural constants from the
// paper (DAC'22, Section 3). Every module derives its geometry from these
// constants so that ablation studies (e.g., VWR count or width sweeps) can
// override them through the runtime configuration structs instead.

#include <cstdint>
#include <cstddef>

namespace vwr2a {

/// A 32-bit datapath word. Stored unsigned; arithmetic interprets it as
/// two's-complement signed (see alu.hpp).
using Word = std::uint32_t;

/// Signed view of a datapath word.
using SWord = std::int32_t;

/// Cycle counter type. 64 bits: applications run for millions of cycles.
using Cycle = std::uint64_t;

/// How a named scalar statistic reads: a monotonic count, a point-in-time
/// level, or a real number. The value is the kind byte of a gateway STATS
/// entry (docs/protocol.md).
enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kReal = 2 };

namespace arch {

/// Bits per datapath word.
inline constexpr unsigned kWordBits = 32;

/// Very-wide-register width in bits (paper: 4096).
inline constexpr unsigned kVwrBits = 4096;

/// Words per VWR row: 4096 / 32 = 128.
inline constexpr unsigned kVwrWords = kVwrBits / kWordBits;

/// Reconfigurable cells per column (paper: 4).
inline constexpr unsigned kRcsPerColumn = 4;

/// Number of columns in the 4x2 array (paper: 2).
inline constexpr unsigned kNumColumns = 2;

/// Words of a VWR visible to one RC: 128 / 4 = 32.
inline constexpr unsigned kSliceWords = kVwrWords / kRcsPerColumn;

/// VWRs per column (paper: 3 -- A, B, C).
inline constexpr unsigned kVwrsPerColumn = 3;

/// Entries in the per-RC local register file (paper: 2).
inline constexpr unsigned kRcRegs = 2;

/// Entries in the per-column scalar register file (paper: 8).
inline constexpr unsigned kSrfEntries = 8;

/// Registers in the loop-control unit (reconstruction: 4 loop counters).
inline constexpr unsigned kLcuRegs = 4;

/// Program memory depth per unit, in configuration words (paper: 64).
inline constexpr unsigned kProgramWords = 64;

/// Shared scratchpad memory size (paper: 32 KiB).
inline constexpr unsigned kSpmBytes = 32 * 1024;

/// SPM size in words.
inline constexpr unsigned kSpmWords = kSpmBytes / 4;

/// SPM size in VWR-width rows: 8192 / 128 = 64.
inline constexpr unsigned kSpmRows = kSpmWords / kVwrWords;

/// Issue slots per column: LCU, LSU, MXCU, RC0..RC3.
inline constexpr unsigned kSlotsPerColumn = 3 + kRcsPerColumn;

/// System clock (paper: 80 MHz TSMC 40nm LP synthesis point).
inline constexpr double kClockHz = 80.0e6;

/// Clock period in nanoseconds.
inline constexpr double kClockPeriodNs = 1.0e9 / kClockHz;

/// System SRAM size on the host SoC (paper: 192 KiB in six banks).
inline constexpr unsigned kSramBytes = 192 * 1024;
inline constexpr unsigned kSramBanks = 6;

} // namespace arch

/// Identifies one of the three VWRs of a column.
enum class VwrSel : std::uint8_t { A = 0, B = 1, C = 2 };

/// Returns 'A', 'B' or 'C'.
constexpr char to_char(VwrSel v) {
  switch (v) {
    case VwrSel::A: return 'A';
    case VwrSel::B: return 'B';
    case VwrSel::C: return 'C';
  }
  return '?';
}

/// Index of an issue slot within a column. LCU/LSU/MXCU are the specialized
/// slots the paper borrows from VLIW; RCs are the datapath cells.
enum class Slot : std::uint8_t {
  LCU = 0,
  LSU = 1,
  MXCU = 2,
  RC0 = 3,
  RC1 = 4,
  RC2 = 5,
  RC3 = 6,
};

/// Returns a short mnemonic name ("LCU", "RC2", ...).
constexpr const char* to_string(Slot s) {
  switch (s) {
    case Slot::LCU: return "LCU";
    case Slot::LSU: return "LSU";
    case Slot::MXCU: return "MXCU";
    case Slot::RC0: return "RC0";
    case Slot::RC1: return "RC1";
    case Slot::RC2: return "RC2";
    case Slot::RC3: return "RC3";
  }
  return "???";
}

/// Slot index as an array subscript [0, kSlotsPerColumn).
constexpr unsigned slot_index(Slot s) { return static_cast<unsigned>(s); }

/// The RC slot for row r in [0,4).
constexpr Slot rc_slot(unsigned r) {
  return static_cast<Slot>(static_cast<unsigned>(Slot::RC0) + r);
}

} // namespace vwr2a
