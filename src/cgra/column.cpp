#include "cgra/column.hpp"

#include <string>

#include "cgra/alu.hpp"
#include "cgra/shuffle.hpp"
#include "common/status.hpp"

namespace vwr2a::cgra {

using energy::Event;

Column::Column(unsigned id, mem::Spm& spm, energy::EnergyMeter& meter)
    : id_(id),
      spm_(&spm),
      meter_(&meter),
      srf_(meter),
      vwrs_{mem::Vwr("col" + std::to_string(id) + ".A", meter),
            mem::Vwr("col" + std::to_string(id) + ".B", meter),
            mem::Vwr("col" + std::to_string(id) + ".C", meter)} {}

Column::DecodedProgram Column::decode_program(const isa::ColumnProgram& prog) {
  DecodedProgram out;
  out.reserve(prog.length());
  for (unsigned pc = 0; pc < prog.length(); ++pc) {
    DecodedLine line;
    line.lcu = isa::decode_lcu(prog.word(Slot::LCU, pc));
    line.lsu = isa::decode_lsu(prog.word(Slot::LSU, pc));
    line.mxcu = isa::decode_mxcu(prog.word(Slot::MXCU, pc));
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      line.rc[r] = isa::decode_rc(prog.word(rc_slot(r), pc));
    }
    out.push_back(line);
  }
  return out;
}

void Column::load_program(const isa::ColumnProgram& prog) {
  load_program(std::make_shared<const isa::ColumnProgram>(prog),
               std::make_shared<const DecodedProgram>(decode_program(prog)));
}

void Column::load_program(std::shared_ptr<const isa::ColumnProgram> prog,
                          std::shared_ptr<const DecodedProgram> dec) {
  if (prog == nullptr || dec == nullptr || dec->size() != prog->length()) {
    throw HostError("Column: load_program with mismatched decode");
  }
  prog_ = std::move(dec);
  raw_prog_ = std::move(prog);
  trace_.reset();  // a new program invalidates any attached trace
  pc_ = 0;
  running_ = false;
}

std::string Column::line_asm(unsigned pc) const {
  if (raw_prog_ == nullptr || pc >= raw_prog_->length()) return "<past end>";
  const isa::ColumnProgram& rp = *raw_prog_;
  std::string out = "lcu: " + isa::to_asm(isa::decode_lcu(rp.word(Slot::LCU, pc)));
  out += " | lsu: " + isa::to_asm(isa::decode_lsu(rp.word(Slot::LSU, pc)));
  out += " | mxcu: " + isa::to_asm(isa::decode_mxcu(rp.word(Slot::MXCU, pc)));
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    out += " | rc" + std::to_string(r) + ": " +
           isa::to_asm(isa::decode_rc(rp.word(rc_slot(r), pc)));
  }
  return out;
}

void Column::start() {
  if (prog_ == nullptr || prog_->empty()) {
    throw HostError("Column: start with no program loaded");
  }
  pc_ = 0;
  tb_ = nullptr;
  tb_line_ = 0;
  running_ = true;
}

Word Column::read_rc_src(isa::RcSrc src, const isa::RcInstr& instr, unsigned r,
                         const RcOutputs* cross) {
  using isa::RcSrc;
  switch (src) {
    case RcSrc::kZero:
      return 0;
    case RcSrc::kOne:
      return 1;
    case RcSrc::kR0:
      meter_->add(Event::kRcRfRead);
      return rcs_[r].rf[0];
    case RcSrc::kR1:
      meter_->add(Event::kRcRfRead);
      return rcs_[r].rf[1];
    case RcSrc::kVwrA:
      return vwrs_[0].read_word(r, idx_);
    case RcSrc::kVwrB:
      return vwrs_[1].read_word(r, idx_);
    case RcSrc::kVwrC:
      return vwrs_[2].read_word(r, idx_);
    case RcSrc::kSrf:
      return srf_.read(instr.srf);
    case RcSrc::kRcUp:
      return rc_prev_[(r + arch::kRcsPerColumn - 1) % arch::kRcsPerColumn];
    case RcSrc::kRcDown:
      return rc_prev_[(r + 1) % arch::kRcsPerColumn];
    case RcSrc::kRcCross:
      if (cross == nullptr) {
        throw SimError("RC: kRcCross operand used without a synchronized "
                       "partner column");
      }
      return (*cross)[r];
    case RcSrc::kImm:
      return static_cast<Word>(static_cast<SWord>(instr.imm));
    default:
      throw DecodeError("RC: bad operand source");
  }
}

unsigned Column::lsu_address(const isa::LsuInstr& instr) {
  using isa::LsuAddrMode;
  switch (instr.amode) {
    case LsuAddrMode::kImm:
      return static_cast<unsigned>(instr.imm);
    case LsuAddrMode::kSrfImm:
      return static_cast<unsigned>(srf_.read(instr.srf_base)) + instr.imm;
    case LsuAddrMode::kPtr0Post: {
      const unsigned a = lsu_ptr_[0];
      lsu_ptr_[0] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(lsu_ptr_[0]) + instr.imm);
      return a;
    }
    case LsuAddrMode::kPtr1Post: {
      const unsigned a = lsu_ptr_[1];
      lsu_ptr_[1] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(lsu_ptr_[1]) + instr.imm);
      return a;
    }
    default:
      throw DecodeError("LSU: bad addressing mode");
  }
}

void Column::step(const RcOutputs* cross) {
  if (!running_) return;
  if (pc_ >= prog_->size()) {
    throw SimError("Column: PC ran past the end of the program (missing EXIT?)");
  }

  srf_.begin_cycle();
  for (auto& v : vwrs_) v.begin_cycle();

  const DecodedLine& line = (*prog_)[pc_];

  meter_->add(Event::kInstrFetchRc, arch::kRcsPerColumn);
  meter_->add(Event::kInstrFetchCtrl, 3);
  meter_->add(Event::kPcUpdate);

  // ---------------- evaluate phase (reads observe pre-cycle state) ----------

  // LCU: next-PC decision and loop-register arithmetic.
  unsigned next_pc = pc_ + 1;
  bool exit = false;
  std::optional<std::pair<unsigned, Word>> lcu_reg_write;
  std::optional<std::pair<unsigned, Word>> lcu_srf_write;
  {
    using isa::LcuOp;
    const isa::LcuInstr& I = line.lcu;
    const SWord ra = static_cast<SWord>(lcu_rf_[I.ra]);
    const SWord rb = static_cast<SWord>(lcu_rf_[I.rb]);
    switch (I.op) {
      case LcuOp::kNop:
        break;
      case LcuOp::kSetI:
        lcu_reg_write = {I.rd, static_cast<Word>(static_cast<SWord>(I.imm))};
        break;
      case LcuOp::kAddI:
        lcu_reg_write = {I.rd, static_cast<Word>(static_cast<SWord>(lcu_rf_[I.rd]) +
                                                 I.imm)};
        break;
      case LcuOp::kMvR:
        lcu_reg_write = {I.rd, lcu_rf_[I.ra]};
        break;
      case LcuOp::kAddR:
        lcu_reg_write = {I.rd, static_cast<Word>(
                                   static_cast<SWord>(lcu_rf_[I.rd]) +
                                   static_cast<SWord>(lcu_rf_[I.ra]))};
        break;
      case LcuOp::kSubR:
        lcu_reg_write = {I.rd, static_cast<Word>(
                                   static_cast<SWord>(lcu_rf_[I.rd]) -
                                   static_cast<SWord>(lcu_rf_[I.ra]))};
        break;
      case LcuOp::kMvSrf:
        lcu_reg_write = {I.rd, srf_.read(I.srf)};
        break;
      case LcuOp::kStSrf:
        lcu_srf_write = {I.srf, lcu_rf_[I.ra]};
        break;
      case LcuOp::kB:
        next_pc = I.target;
        break;
      case LcuOp::kBeq:
        if (ra == rb) next_pc = I.target;
        break;
      case LcuOp::kBne:
        if (ra != rb) next_pc = I.target;
        break;
      case LcuOp::kBlt:
        if (ra < rb) next_pc = I.target;
        break;
      case LcuOp::kBge:
        if (ra >= rb) next_pc = I.target;
        break;
      case LcuOp::kBeqI:
        if (ra == I.imm) next_pc = I.target;
        break;
      case LcuOp::kBneI:
        if (ra != I.imm) next_pc = I.target;
        break;
      case LcuOp::kBltI:
        if (ra < I.imm) next_pc = I.target;
        break;
      case LcuOp::kBgeI:
        if (ra >= I.imm) next_pc = I.target;
        break;
      case LcuOp::kBsrfZ:
        if (srf_.read(I.srf) == 0) next_pc = I.target;
        break;
      case LcuOp::kBsrfNz:
        if (srf_.read(I.srf) != 0) next_pc = I.target;
        break;
      case LcuOp::kDbnz: {
        const Word nv = lcu_rf_[I.rd] - 1;
        lcu_reg_write = {I.rd, nv};
        if (nv != 0) next_pc = I.target;
        break;
      }
      case LcuOp::kExit:
        exit = true;
        break;
      default:
        throw DecodeError("LCU: bad opcode");
    }
  }

  // LSU: SPM transfers and shuffle operations.
  std::optional<std::pair<VwrSel, VwrRow>> lsu_vwr_write;
  std::optional<std::pair<unsigned, Word>> lsu_srf_write;
  {
    using isa::LsuOp;
    const isa::LsuInstr& I = line.lsu;
    switch (I.op) {
      case LsuOp::kNop:
        break;
      case LsuOp::kLdVwr: {
        const unsigned row = lsu_address(I);
        lsu_vwr_write = {I.vwr, spm_->read_row(id_, row)};
        break;
      }
      case LsuOp::kStVwr: {
        const unsigned row = lsu_address(I);
        spm_->write_row(id_, row, vwrs_[static_cast<unsigned>(I.vwr)].read_row());
        break;
      }
      case LsuOp::kLdSrf: {
        const unsigned word = lsu_address(I);
        lsu_srf_write = {I.srf_data, spm_->read_word_array(id_, word)};
        break;
      }
      case LsuOp::kStSrf: {
        const unsigned word = lsu_address(I);
        spm_->write_word_array(id_, word, srf_.read(I.srf_data));
        break;
      }
      case LsuOp::kShuf: {
        meter_->add(Event::kShuffleOp);
        lsu_vwr_write = {VwrSel::C,
                         shuffle_eval(I.mode, vwrs_[0].read_row(),
                                      vwrs_[1].read_row())};
        break;
      }
      case LsuOp::kSetPtr: {
        const unsigned p = static_cast<unsigned>(I.vwr) & 1u;
        lsu_ptr_[p] = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(srf_.read(I.srf_base)) + I.imm);
        break;
      }
      default:
        throw DecodeError("LSU: bad opcode");
    }
  }

  // MXCU: slice-index arithmetic.
  unsigned new_idx = idx_;
  SWord new_aux = aux_;
  std::optional<std::pair<unsigned, Word>> mxcu_srf_write;
  {
    using isa::MxcuOp;
    const isa::MxcuInstr& I = line.mxcu;
    switch (I.op) {
      case MxcuOp::kNop:
        break;
      case MxcuOp::kSetIdx:
        new_idx = static_cast<unsigned>(I.imm);
        break;
      case MxcuOp::kAddIdx:
        new_idx = static_cast<unsigned>(static_cast<SWord>(idx_) + I.imm);
        break;
      case MxcuOp::kSetIdxSrf:
        new_idx = srf_.read(I.srf);
        break;
      case MxcuOp::kAddIdxSrf:
        new_idx = idx_ + srf_.read(I.srf);
        break;
      case MxcuOp::kAndIdxSrf:
        new_idx = idx_ & srf_.read(I.srf);
        break;
      case MxcuOp::kSetAux:
        new_aux = I.imm;
        break;
      case MxcuOp::kAddAux:
        new_aux = aux_ + I.imm;
        break;
      case MxcuOp::kIdxFromAux:
        new_idx = static_cast<unsigned>(aux_);
        break;
      case MxcuOp::kStIdxSrf:
        mxcu_srf_write = {I.srf, idx_};
        break;
      default:
        throw DecodeError("MXCU: bad opcode");
    }
    new_idx %= arch::kSliceWords;  // the index addresses within a slice
  }

  // RCs: operand routing + ALU. Operand isolation: a NOP touches nothing and
  // the result register holds its value.
  struct RcPending {
    bool active = false;
    Word out = 0;
    isa::RcDst dst = isa::RcDst::kNone;
    std::uint8_t srf = 0;
  };
  std::array<RcPending, arch::kRcsPerColumn> rc_pend{};
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = line.rc[r];
    if (I.op == isa::RcOp::kNop) continue;
    const Word a = read_rc_src(I.src_a, I, r, cross);
    const Word b = alu_is_unary(I.op) ? 0 : read_rc_src(I.src_b, I, r, cross);
    meter_->add(alu_energy_event(I.op));
    rc_pend[r] = {true, alu_eval(I.op, a, b), I.dst, I.srf};
  }

  // ---------------- commit phase (end-of-cycle register updates) ------------

  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    if (!rc_pend[r].active) continue;
    const RcPending& p = rc_pend[r];
    switch (p.dst) {
      case isa::RcDst::kNone:
        break;
      case isa::RcDst::kR0:
        meter_->add(Event::kRcRfWrite);
        rcs_[r].rf[0] = p.out;
        break;
      case isa::RcDst::kR1:
        meter_->add(Event::kRcRfWrite);
        rcs_[r].rf[1] = p.out;
        break;
      case isa::RcDst::kVwrA:
        vwrs_[0].write_word(r, idx_, p.out);
        break;
      case isa::RcDst::kVwrB:
        vwrs_[1].write_word(r, idx_, p.out);
        break;
      case isa::RcDst::kVwrC:
        vwrs_[2].write_word(r, idx_, p.out);
        break;
      case isa::RcDst::kSrf:
        srf_.write(p.srf, p.out);
        break;
      default:
        throw DecodeError("RC: bad destination");
    }
    rcs_[r].out = p.out;
  }

  if (lsu_vwr_write) {
    vwrs_[static_cast<unsigned>(lsu_vwr_write->first)].write_row(
        lsu_vwr_write->second);
  }
  if (lsu_srf_write) srf_.write(lsu_srf_write->first, lsu_srf_write->second);
  if (mxcu_srf_write) srf_.write(mxcu_srf_write->first, mxcu_srf_write->second);
  if (lcu_srf_write) srf_.write(lcu_srf_write->first, lcu_srf_write->second);
  if (lcu_reg_write) lcu_rf_[lcu_reg_write->first] = lcu_reg_write->second;

  idx_ = new_idx;
  aux_ = new_aux;

  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    rc_prev_[r] = rcs_[r].out;
  }

  ++executed_;
  if (exit) {
    running_ = false;
  } else {
    if (next_pc >= prog_->size()) {
      throw SimError("Column: branch past end of program");
    }
    pc_ = next_pc;
  }
}

} // namespace vwr2a::cgra
