#pragma once
// Static analysis of one VLIW line, shared by the interpreter
// (Column::step) and the trace compiler (compile_trace).
//
// Kernels are scheduled hazard-free at compile time and every line is
// fetched already decoded from configuration memory (paper Sec 3.3), so
// everything about a line that does not depend on register or memory
// contents is decided here, once per loaded program:
//
//   * the decode of the six slot words, and the DecodeError an illegal
//     field raises;
//   * the single-port legality of the line: the SRF accepts one address
//     per cycle (same-address reads share the broadcast; a write excludes
//     any other access), and a VWR accepts either one whole-row write (LSU
//     load or shuffle result) or RC word writes, not both;
//   * the micro-op form with operand routing resolved (tc::Line), which the
//     interpreter executes directly and the trace compiler copies into its
//     blocks;
//   * the line's LCU control decision in terminator form;
//   * the energy events one execution raises, as a short delta list.
//
// A line with a static fault (illegal field or port hazard) keeps its
// error and raises it only when it executes, before touching any state.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "energy/meter.hpp"
#include "isa/instr.hpp"
#include "isa/program.hpp"

namespace vwr2a::cgra {

namespace tc {

/// A pre-resolved RC operand source.
struct Src {
  enum class K : std::uint8_t {
    kImm = 0,  ///< constant (imm8 sign-extended, or the 0/1 constants)
    kRf,       ///< rcs_[rc].rf[entry]
    kVwr,      ///< vwrs_[vwr] word at slice base + shared index
    kSrf,      ///< SRF[idx]
    kPrev,     ///< rc_prev_[idx] (neighbour result, index pre-wrapped)
    kCross,    ///< partner column's previous-cycle RC result, read from the
               ///< per-cycle snapshot the lockstep tier publishes via
               ///< Column::set_cross (decoupled tiers have no snapshot and
               ///< fault exactly like the interpreter)
  };
  K k = K::kImm;
  std::uint8_t vwr = 0;    ///< VWR select for kVwr
  std::uint8_t rc = 0;     ///< RC index for kRf; rc_prev index for kPrev
  std::uint8_t idx = 0;    ///< rf entry for kRf; SRF entry for kSrf
  std::uint16_t base = 0;  ///< slice word base (rc * kSliceWords) for kVwr
  Word imm = 0;            ///< value for kImm

  bool operator==(const Src&) const = default;
};

/// A pre-resolved RC destination.
enum class Dst : std::uint8_t { kNone = 0, kRf, kVwr, kSrf };

/// One RC micro-op.
struct RcUop {
  isa::RcOp op = isa::RcOp::kNop;
  bool unary = false;
  Src a, b;
  Dst d = Dst::kNone;
  std::uint8_t vwr = 0;    ///< VWR select for Dst::kVwr
  std::uint8_t idx = 0;    ///< rf entry for kRf; SRF entry for kSrf
  std::uint16_t base = 0;  ///< slice word base for Dst::kVwr

  bool operator==(const RcUop&) const = default;
};

/// One LSU micro-op (address mode folded; imm pre-widened).
struct LsuUop {
  isa::LsuOp op = isa::LsuOp::kNop;
  isa::LsuAddrMode amode = isa::LsuAddrMode::kImm;
  std::uint8_t vwr = 0;       ///< VWR select / pointer select
  std::uint8_t srf_base = 0;
  std::uint8_t srf_data = 0;
  isa::ShufMode mode = isa::ShufMode::kInterleaveLo;
  std::int32_t imm = 0;

  bool operator==(const LsuUop&) const = default;
};

/// One MXCU micro-op.
struct MxcuUop {
  isa::MxcuOp op = isa::MxcuOp::kNop;
  std::uint8_t srf = 0;
  std::int32_t imm = 0;

  bool operator==(const MxcuUop&) const = default;
};

/// One LCU register micro-op (control ops live in the block terminator).
struct LcuUop {
  isa::LcuOp op = isa::LcuOp::kNop;  ///< kSetI..kStSrf only
  std::uint8_t rd = 0, ra = 0, srf = 0;
  std::int32_t imm = 0;

  bool operator==(const LcuUop&) const = default;
};

/// One flattened VLIW line.
struct Line {
  /// Replay dispatch class, precomputed so the hot loop takes one branch.
  enum class Kind : std::uint8_t {
    kQuadFast = 0,  ///< quad RC op, at most a register-only MXCU op
    kGeneric,       ///< anything else (full evaluate/commit machinery)
  };
  Kind kind = Kind::kGeneric;
  std::uint8_t rc_mask = 0;  ///< bit r set when RC r is active
  bool quad = false;  ///< all 4 RCs identical shape: rc[0] is lane-relative
  bool has_lsu = false, has_mxcu = false, has_lcu = false;
  std::array<RcUop, arch::kRcsPerColumn> rc{};
  LsuUop lsu;
  MxcuUop mxcu;
  LcuUop lcu;

  bool operator==(const Line&) const = default;
};

/// True when an active RC of `line` reads the partner column (kCross).
bool reads_cross(const Line& line);

/// LCU control-flow kinds: a line's own control decision, and the
/// terminator of a trace block (re-evaluated each replay; everything else
/// in a block is straight-line).
enum class Term : std::uint8_t {
  kFall = 0,  ///< no control op: fall through to the next block
  kB,         ///< unconditional branch
  kCond,      ///< conditional branch (cond re-evaluated every replay)
  kDbnz,      ///< decrement-and-branch-if-nonzero (hardware loop)
  kExit,      ///< kernel end
};

/// Condition kinds for Term::kCond.
enum class Cond : std::uint8_t {
  kEq = 0, kNe, kLt, kGe,          ///< register-register
  kEqI, kNeI, kLtI, kGeI,          ///< register-immediate
  kSrfZ, kSrfNz,                   ///< SRF zero test
};

} // namespace tc

/// A fault a line raises every time it executes, decided at decode time.
enum class LineFault : std::uint8_t {
  kNone = 0,
  kDecode,  ///< an illegal configuration field (DecodeError)
  kHazard,  ///< a single-port conflict (StructuralHazard)
};

/// Distinct energy events one line can raise: fetches, PC, SRF, SPM, VWR,
/// RC register file, the three ALU classes and the shuffle unit.
inline constexpr unsigned kMaxLineEvents = 16;

/// One predecoded VLIW line and its static analysis.
struct DecodedLine {
  isa::LcuInstr lcu;
  isa::LsuInstr lsu;
  isa::MxcuInstr mxcu;
  std::array<isa::RcInstr, arch::kRcsPerColumn> rc;

  /// The micro-op line (operand routing resolved). LCU control ops are not
  /// part of it: they are the terminator fields below.
  tc::Line uop;

  /// LCU control decision: kFall when the LCU slot holds no control op.
  tc::Term term = tc::Term::kFall;
  tc::Cond cond = tc::Cond::kEq;
  std::uint8_t ra = 0, rb = 0, rd = 0, srf = 0;
  std::int32_t imm = 0;
  std::uint16_t target = 0;

  /// The LSU op addresses the SPM (its range depends on runtime state).
  bool lsu_addressed = false;
  /// Some active RC reads the partner column (kRcCross).
  bool reads_cross = false;

  LineFault fault = LineFault::kNone;
  std::string fault_what;  ///< the exception message of `fault`

  /// Energy events of one execution (no entry for a faulting line).
  std::array<energy::LineDelta, kMaxLineEvents> energy{};
  std::uint8_t n_energy = 0;

  std::span<const energy::LineDelta> energy_deltas() const {
    return {energy.data(), n_energy};
  }

  /// Throws the line's static fault (DecodeError or StructuralHazard).
  [[noreturn]] void raise_fault() const;
};

using DecodedProgram = std::vector<DecodedLine>;

/// Decodes and analyzes line `pc` of `prog`. Never throws on illegal
/// content: the fault is recorded in the result.
DecodedLine decode_line(const isa::ColumnProgram& prog, unsigned pc);

/// decode_line() over a whole program.
DecodedProgram decode_program(const isa::ColumnProgram& prog);

/// Evaluates the LCU control decision of `t` -- a DecodedLine, or a trace
/// block, which carries the same terminator fields -- against the LCU
/// registers and SRF. Returns the next program address (`fall` when not
/// taken) and sets `exit` on EXIT. Pure: a DBNZ's decrement is left to the
/// caller.
template <class T>
unsigned branch_next(const T& t, unsigned fall, const Word* lcu_rf,
                     const Word* srf, bool& exit) {
  switch (t.term) {
    case tc::Term::kFall:
      return fall;
    case tc::Term::kB:
      return t.target;
    case tc::Term::kCond: {
      const SWord ra = static_cast<SWord>(lcu_rf[t.ra]);
      const SWord rb = static_cast<SWord>(lcu_rf[t.rb]);
      bool taken = false;
      switch (t.cond) {
        case tc::Cond::kEq: taken = ra == rb; break;
        case tc::Cond::kNe: taken = ra != rb; break;
        case tc::Cond::kLt: taken = ra < rb; break;
        case tc::Cond::kGe: taken = ra >= rb; break;
        case tc::Cond::kEqI: taken = ra == t.imm; break;
        case tc::Cond::kNeI: taken = ra != t.imm; break;
        case tc::Cond::kLtI: taken = ra < t.imm; break;
        case tc::Cond::kGeI: taken = ra >= t.imm; break;
        case tc::Cond::kSrfZ: taken = srf[t.srf] == 0; break;
        case tc::Cond::kSrfNz: taken = srf[t.srf] != 0; break;
      }
      return taken ? t.target : fall;
    }
    case tc::Term::kDbnz:
      return lcu_rf[t.rd] - 1 != 0 ? t.target : fall;
    case tc::Term::kExit:
      exit = true;
      return fall;
  }
  return fall;
}

} // namespace vwr2a::cgra
