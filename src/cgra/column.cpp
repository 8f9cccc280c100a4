#include "cgra/column.hpp"

#include <string>

#include "common/status.hpp"

namespace vwr2a::cgra {

Column::Column(unsigned id, mem::Spm& spm, energy::EnergyMeter& meter)
    : id_(id), spm_(&spm), meter_(&meter) {}

void Column::load_program(std::shared_ptr<const DecodedProgram> dec) {
  if (dec == nullptr) throw HostError("Column: load_program without a program");
  prog_ = std::move(dec);
  trace_.reset();  // a new program invalidates any attached trace
  pc_ = 0;
  running_ = false;
}

std::string Column::line_asm(unsigned pc) const {
  if (prog_ == nullptr || pc >= prog_->size()) return "<past end>";
  const DecodedLine& L = (*prog_)[pc];
  if (L.fault == LineFault::kDecode) return "<undecodable: " + L.fault_what + ">";
  std::string out = "lcu: " + isa::to_asm(L.lcu);
  out += " | lsu: " + isa::to_asm(L.lsu);
  out += " | mxcu: " + isa::to_asm(L.mxcu);
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    out += " | rc" + std::to_string(r) + ": " + isa::to_asm(L.rc[r]);
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

void Column::step(const RcOutputs* cross) {
  if (!running_) return;
  const DecodedLine& L = (*prog_)[pc_];

  // Every fault is decided before the line touches any state.
  if (L.fault != LineFault::kNone) L.raise_fault();
  if (L.reads_cross && cross == nullptr) {
    throw SimError("RC: kRcCross operand used without a synchronized "
                   "partner column");
  }
  if (L.lsu_addressed) check_lsu_address(L.uop.lsu);
  bool exit = false;
  const unsigned next =
      branch_next(L, pc_ + 1, lcu_rf_.data(), srf_.regs().data(), exit);
  if (!exit && next >= prog_->size()) {
    throw SimError("Column: branch past end of program");
  }

  cross_ = cross;
  exec_dispatch(L.uop);
  cross_ = nullptr;
  if (L.term == tc::Term::kDbnz) --lcu_rf_[L.rd];
  meter_->add_block(L.energy_deltas());
  ++executed_;
  if (exit) {
    running_ = false;  // pc stays at the EXIT line
  } else {
    pc_ = next;
  }
}

} // namespace vwr2a::cgra
