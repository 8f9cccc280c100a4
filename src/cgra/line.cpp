#include "cgra/line.hpp"

#include <optional>

#include "cgra/alu.hpp"
#include "common/status.hpp"

namespace vwr2a::cgra {

namespace {

using energy::Event;
using isa::LcuOp;
using isa::LsuAddrMode;
using isa::LsuOp;
using isa::MxcuOp;
using isa::RcDst;
using isa::RcOp;
using isa::RcSrc;

/// True when the LSU op computes a memory address (and may read the SRF in
/// kSrfImm mode).
bool lsu_uses_address(LsuOp op) {
  switch (op) {
    case LsuOp::kLdVwr:
    case LsuOp::kStVwr:
    case LsuOp::kLdSrf:
    case LsuOp::kStSrf:
      return true;
    default:
      return false;
  }
}

/// Single-port SRF check over every SRF access of the line: any number of
/// reads of one address share the broadcast; a second address, or a write
/// beside any other access, is a conflict.
bool srf_schedule_legal(const DecodedLine& L) {
  std::optional<unsigned> addr;
  bool was_write = false;
  auto claim = [&](unsigned idx, bool is_write) -> bool {
    if (!addr.has_value()) {
      addr = idx;
      was_write = is_write;
      return true;
    }
    return *addr == idx && !was_write && !is_write;
  };
  // Reads: LCU, LSU, MXCU, RCs.
  switch (L.lcu.op) {
    case LcuOp::kMvSrf:
    case LcuOp::kBsrfZ:
    case LcuOp::kBsrfNz:
      if (!claim(L.lcu.srf, false)) return false;
      break;
    default:
      break;
  }
  if (lsu_uses_address(L.lsu.op) && L.lsu.amode == LsuAddrMode::kSrfImm) {
    if (!claim(L.lsu.srf_base, false)) return false;
  }
  if (L.lsu.op == LsuOp::kStSrf) {
    if (!claim(L.lsu.srf_data, false)) return false;
  }
  if (L.lsu.op == LsuOp::kSetPtr) {
    if (!claim(L.lsu.srf_base, false)) return false;
  }
  switch (L.mxcu.op) {
    case MxcuOp::kSetIdxSrf:
    case MxcuOp::kAddIdxSrf:
    case MxcuOp::kAndIdxSrf:
      if (!claim(L.mxcu.srf, false)) return false;
      break;
    default:
      break;
  }
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = L.rc[r];
    if (I.op == RcOp::kNop) continue;
    if (I.src_a == RcSrc::kSrf && !claim(I.srf, false)) return false;
    if (!alu_is_unary(I.op) && I.src_b == RcSrc::kSrf && !claim(I.srf, false)) {
      return false;
    }
  }
  // Writes: RC destinations, LSU, MXCU, LCU.
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = L.rc[r];
    if (I.op == RcOp::kNop) continue;
    if (I.dst == RcDst::kSrf && !claim(I.srf, true)) return false;
  }
  if (L.lsu.op == LsuOp::kLdSrf && !claim(L.lsu.srf_data, true)) return false;
  if (L.mxcu.op == MxcuOp::kStIdxSrf && !claim(L.mxcu.srf, true)) return false;
  if (L.lcu.op == LcuOp::kStSrf && !claim(L.lcu.srf, true)) return false;
  return true;
}

/// VWR write-port check: an LSU whole-row write (load or shuffle result)
/// and an RC word write into the same VWR in one line. Returns the VWR
/// index, or -1 when the line is legal. (The LSU is the only row writer and
/// issues one op per line, so two row writes cannot meet in one line.)
int vwr_row_conflict(const DecodedLine& L) {
  int row_write_vwr = -1;
  if (L.lsu.op == LsuOp::kLdVwr) {
    row_write_vwr = static_cast<int>(L.lsu.vwr);
  } else if (L.lsu.op == LsuOp::kShuf) {
    row_write_vwr = static_cast<int>(VwrSel::C);
  }
  if (row_write_vwr < 0) return -1;
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = L.rc[r];
    if (I.op == RcOp::kNop) continue;
    const int d = static_cast<int>(I.dst) - static_cast<int>(RcDst::kVwrA);
    if (d == row_write_vwr) return d;
  }
  return -1;
}

/// Counts the energy events one execution of a legal line raises.
void add_line_energy(const DecodedLine& L,
                     std::array<std::uint64_t, static_cast<unsigned>(
                                                   Event::kCount)>& counts) {
  auto add = [&counts](Event e, std::uint64_t n = 1) {
    counts[static_cast<unsigned>(e)] += n;
  };
  add(Event::kInstrFetchRc, arch::kRcsPerColumn);
  add(Event::kInstrFetchCtrl, 3);
  add(Event::kPcUpdate);
  // LCU.
  switch (L.lcu.op) {
    case LcuOp::kMvSrf:
    case LcuOp::kBsrfZ:
    case LcuOp::kBsrfNz:
      add(Event::kSrfRead);
      break;
    case LcuOp::kStSrf:
      add(Event::kSrfWrite);
      break;
    default:
      break;
  }
  // LSU.
  if (lsu_uses_address(L.lsu.op) && L.lsu.amode == LsuAddrMode::kSrfImm) {
    add(Event::kSrfRead);
  }
  switch (L.lsu.op) {
    case LsuOp::kLdVwr:
      add(Event::kSpmRowRead);
      add(Event::kVwrRowWrite);
      break;
    case LsuOp::kStVwr:
      add(Event::kSpmRowWrite);
      break;
    case LsuOp::kLdSrf:
      add(Event::kSpmRowRead);
      add(Event::kSrfWrite);
      break;
    case LsuOp::kStSrf:
      add(Event::kSrfRead);
      add(Event::kSpmRowWrite);
      break;
    case LsuOp::kShuf:
      add(Event::kShuffleOp);
      add(Event::kVwrRowWrite);
      break;
    case LsuOp::kSetPtr:
      add(Event::kSrfRead);
      break;
    default:
      break;
  }
  // MXCU.
  switch (L.mxcu.op) {
    case MxcuOp::kSetIdxSrf:
    case MxcuOp::kAddIdxSrf:
    case MxcuOp::kAndIdxSrf:
      add(Event::kSrfRead);
      break;
    case MxcuOp::kStIdxSrf:
      add(Event::kSrfWrite);
      break;
    default:
      break;
  }
  // RCs.
  auto src_energy = [&add](RcSrc s) {
    switch (s) {
      case RcSrc::kR0:
      case RcSrc::kR1:
        add(Event::kRcRfRead);
        break;
      case RcSrc::kVwrA:
      case RcSrc::kVwrB:
      case RcSrc::kVwrC:
        add(Event::kVwrWordRead);
        break;
      case RcSrc::kSrf:
        add(Event::kSrfRead);
        break;
      default:
        break;
    }
  };
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = L.rc[r];
    if (I.op == RcOp::kNop) continue;
    src_energy(I.src_a);
    if (!alu_is_unary(I.op)) src_energy(I.src_b);
    add(alu_energy_event(I.op));
    switch (I.dst) {
      case RcDst::kR0:
      case RcDst::kR1:
        add(Event::kRcRfWrite);
        break;
      case RcDst::kVwrA:
      case RcDst::kVwrB:
      case RcDst::kVwrC:
        add(Event::kVwrWordWrite);
        break;
      case RcDst::kSrf:
        add(Event::kSrfWrite);
        break;
      default:
        break;
    }
  }
}

/// Resolves one RC source. kRcCross resolves to the partner-snapshot slot:
/// it replays on the per-cycle lockstep tier (Column::set_cross) and faults
/// like the interpreter anywhere else.
void resolve_src(RcSrc s, const isa::RcInstr& I, unsigned r, tc::Src& out) {
  using K = tc::Src::K;
  switch (s) {
    case RcSrc::kZero:
      out = {K::kImm, 0, 0, 0, 0, 0};
      return;
    case RcSrc::kOne:
      out = {K::kImm, 0, 0, 0, 0, 1};
      return;
    case RcSrc::kR0:
    case RcSrc::kR1:
      out.k = K::kRf;
      out.rc = static_cast<std::uint8_t>(r);
      out.idx = s == RcSrc::kR0 ? 0 : 1;
      return;
    case RcSrc::kVwrA:
    case RcSrc::kVwrB:
    case RcSrc::kVwrC:
      out.k = K::kVwr;
      out.vwr = static_cast<std::uint8_t>(static_cast<unsigned>(s) -
                                          static_cast<unsigned>(RcSrc::kVwrA));
      out.base = static_cast<std::uint16_t>(r * arch::kSliceWords);
      return;
    case RcSrc::kSrf:
      out.k = K::kSrf;
      out.idx = I.srf;
      return;
    case RcSrc::kRcUp:
      out.k = K::kPrev;
      out.rc = static_cast<std::uint8_t>(
          (r + arch::kRcsPerColumn - 1) % arch::kRcsPerColumn);
      return;
    case RcSrc::kRcDown:
      out.k = K::kPrev;
      out.rc = static_cast<std::uint8_t>((r + 1) % arch::kRcsPerColumn);
      return;
    case RcSrc::kImm:
      out = {K::kImm, 0, 0, 0, 0,
             static_cast<Word>(static_cast<SWord>(I.imm))};
      return;
    case RcSrc::kRcCross:
      out.k = K::kCross;
      out.rc = static_cast<std::uint8_t>(r);  // same lane, partner column
      return;
    default:
      break;  // decoded fields are always in range
  }
}

void resolve_rc(const isa::RcInstr& I, unsigned r, tc::RcUop& u) {
  u.op = I.op;
  u.unary = alu_is_unary(I.op);
  resolve_src(I.src_a, I, r, u.a);
  if (!u.unary) resolve_src(I.src_b, I, r, u.b);
  switch (I.dst) {
    case RcDst::kNone:
      u.d = tc::Dst::kNone;
      break;
    case RcDst::kR0:
    case RcDst::kR1:
      u.d = tc::Dst::kRf;
      u.idx = I.dst == RcDst::kR0 ? 0 : 1;
      break;
    case RcDst::kVwrA:
    case RcDst::kVwrB:
    case RcDst::kVwrC:
      u.d = tc::Dst::kVwr;
      u.vwr = static_cast<std::uint8_t>(static_cast<unsigned>(I.dst) -
                                        static_cast<unsigned>(RcDst::kVwrA));
      u.base = static_cast<std::uint16_t>(r * arch::kSliceWords);
      break;
    case RcDst::kSrf:
      u.d = tc::Dst::kSrf;
      u.idx = I.srf;
      break;
    default:
      break;  // decoded fields are always in range
  }
}

/// Lane-uniform shape test: all four RCs run the same op with the same
/// source/destination kinds and shared indices, differing only in their
/// slice. The rc_all() idiom every kernel's inner loop uses.
bool quad_shape(const tc::Line& line) {
  if (line.rc_mask != 0xF) return false;
  const tc::RcUop& a = line.rc[0];
  using K = tc::Src::K;
  auto lane_ok = [](const tc::Src& s) {
    return s.k != K::kPrev && s.k != K::kCross;  // lane-crossing sources
  };
  if (!lane_ok(a.a) || (!a.unary && !lane_ok(a.b))) return false;
  for (unsigned r = 1; r < arch::kRcsPerColumn; ++r) {
    const tc::RcUop& u = line.rc[r];
    if (u.op != a.op || u.d != a.d) return false;
    auto same_src = [](const tc::Src& x, const tc::Src& y) {
      if (x.k != y.k) return false;
      switch (x.k) {
        case K::kImm:
          return x.imm == y.imm;
        case K::kRf:
          return x.idx == y.idx;  // same rf entry, lane-relative rc
        case K::kVwr:
          return x.vwr == y.vwr;  // same VWR, lane-relative slice base
        case K::kSrf:
          return x.idx == y.idx;
        default:
          return false;
      }
    };
    if (!same_src(u.a, a.a)) return false;
    if (!a.unary && !same_src(u.b, a.b)) return false;
    switch (a.d) {
      case tc::Dst::kNone:
        break;
      case tc::Dst::kRf:
        if (u.idx != a.idx) return false;
        break;
      case tc::Dst::kVwr:
        if (u.vwr != a.vwr) return false;
        break;
      case tc::Dst::kSrf:
        return false;  // four SRF writes would be a hazard anyway
    }
  }
  return true;
}

/// Fills the micro-op line of a legal decoded line.
void flatten(DecodedLine& L) {
  tc::Line& line = L.uop;
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    if (L.rc[r].op == RcOp::kNop) continue;
    resolve_rc(L.rc[r], r, line.rc[r]);
    line.rc_mask |= 1u << r;
  }
  line.quad = quad_shape(line);
  const isa::LsuInstr& lsu = L.lsu;
  if (lsu.op != LsuOp::kNop) {
    line.has_lsu = true;
    line.lsu = {lsu.op,      lsu.amode, static_cast<std::uint8_t>(lsu.vwr),
                lsu.srf_base, lsu.srf_data, lsu.mode,
                static_cast<std::int32_t>(lsu.imm)};
  }
  if (L.mxcu.op != MxcuOp::kNop) {
    line.has_mxcu = true;
    line.mxcu = {L.mxcu.op, L.mxcu.srf, static_cast<std::int32_t>(L.mxcu.imm)};
  }
  if (L.lcu.op != LcuOp::kNop && L.term == tc::Term::kFall) {
    line.has_lcu = true;
    line.lcu = {L.lcu.op, L.lcu.rd, L.lcu.ra, L.lcu.srf,
                static_cast<std::int32_t>(L.lcu.imm)};
  }
  // Dispatch class: the inner-loop shape (quad RC op, optionally a
  // register-only MXCU index update) gets the specialized fast path.
  const bool mxcu_simple =
      !line.has_mxcu ||
      (line.mxcu.op == MxcuOp::kSetIdx || line.mxcu.op == MxcuOp::kAddIdx ||
       line.mxcu.op == MxcuOp::kSetAux || line.mxcu.op == MxcuOp::kAddAux ||
       line.mxcu.op == MxcuOp::kIdxFromAux);
  line.kind = (line.quad && !line.has_lsu && !line.has_lcu && mxcu_simple)
                  ? tc::Line::Kind::kQuadFast
                  : tc::Line::Kind::kGeneric;
}

/// Sets the terminator fields from the LCU slot.
void set_control(DecodedLine& L) {
  const isa::LcuInstr& T = L.lcu;
  L.target = T.target;
  switch (T.op) {
    case LcuOp::kB:
      L.term = tc::Term::kB;
      break;
    case LcuOp::kBeq:
    case LcuOp::kBne:
    case LcuOp::kBlt:
    case LcuOp::kBge:
      L.term = tc::Term::kCond;
      L.cond = static_cast<tc::Cond>(static_cast<unsigned>(T.op) -
                                     static_cast<unsigned>(LcuOp::kBeq));
      L.ra = T.ra;
      L.rb = T.rb;
      break;
    case LcuOp::kBeqI:
    case LcuOp::kBneI:
    case LcuOp::kBltI:
    case LcuOp::kBgeI:
      L.term = tc::Term::kCond;
      L.cond = static_cast<tc::Cond>(
          static_cast<unsigned>(tc::Cond::kEqI) +
          (static_cast<unsigned>(T.op) - static_cast<unsigned>(LcuOp::kBeqI)));
      L.ra = T.ra;
      L.imm = T.imm;
      break;
    case LcuOp::kBsrfZ:
      L.term = tc::Term::kCond;
      L.cond = tc::Cond::kSrfZ;
      L.srf = T.srf;
      break;
    case LcuOp::kBsrfNz:
      L.term = tc::Term::kCond;
      L.cond = tc::Cond::kSrfNz;
      L.srf = T.srf;
      break;
    case LcuOp::kDbnz:
      L.term = tc::Term::kDbnz;
      L.rd = T.rd;
      break;
    case LcuOp::kExit:
      L.term = tc::Term::kExit;
      break;
    default:
      L.term = tc::Term::kFall;  // a register op, or no LCU op
      break;
  }
}

} // namespace

void DecodedLine::raise_fault() const {
  if (fault == LineFault::kDecode) throw DecodeError(fault_what);
  throw StructuralHazard(fault_what);
}

DecodedLine decode_line(const isa::ColumnProgram& prog, unsigned pc) {
  DecodedLine L;
  try {
    L.lcu = isa::decode_lcu(prog.word(Slot::LCU, pc));
    L.lsu = isa::decode_lsu(prog.word(Slot::LSU, pc));
    L.mxcu = isa::decode_mxcu(prog.word(Slot::MXCU, pc));
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      L.rc[r] = isa::decode_rc(prog.word(rc_slot(r), pc));
    }
  } catch (const DecodeError& e) {
    L.fault = LineFault::kDecode;
    L.fault_what = e.what();
    return L;
  }
  if (!srf_schedule_legal(L)) {
    L.fault = LineFault::kHazard;
    L.fault_what =
        "SRF: port conflict (single-ported, one address per cycle per column)";
    return L;
  }
  if (const int v = vwr_row_conflict(L); v >= 0) {
    L.fault = LineFault::kHazard;
    L.fault_what = std::string("VWR ") + "ABC"[v] +
                   ": row write and RC word write in one cycle (single "
                   "write port)";
    return L;
  }
  set_control(L);
  flatten(L);
  L.lsu_addressed = lsu_uses_address(L.lsu.op);
  L.reads_cross = tc::reads_cross(L.uop);
  std::array<std::uint64_t, static_cast<unsigned>(Event::kCount)> counts{};
  add_line_energy(L, counts);  // each count is at most 8 RC operands + 3 slots
  for (unsigned e = 0; e < counts.size(); ++e) {
    if (counts[e] != 0) {
      L.energy[L.n_energy++] = {static_cast<Event>(e),
                                static_cast<std::uint8_t>(counts[e])};
    }
  }
  return L;
}

bool tc::reads_cross(const tc::Line& line) {
  using K = tc::Src::K;
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    if (((line.rc_mask >> r) & 1u) == 0) continue;
    const tc::RcUop& u = line.rc[r];
    if (u.a.k == K::kCross || (!u.unary && u.b.k == K::kCross)) return true;
  }
  return false;
}

DecodedProgram decode_program(const isa::ColumnProgram& prog) {
  DecodedProgram out;
  out.reserve(prog.length());
  for (unsigned pc = 0; pc < prog.length(); ++pc) {
    out.push_back(decode_line(prog, pc));
  }
  return out;
}

} // namespace vwr2a::cgra
