// Line execution and trace-cache replay of one column: the Column members
// that execute micro-op lines, superblocks and fused loops (see
// cgra/tracecache.hpp for the compilation model and the identity
// contract). exec_dispatch() executes one legal micro-op line;
// Column::step() runs it after deciding the line's faults, and replay runs
// it inside superblocks and fused loops.

#include "cgra/column.hpp"

#include <algorithm>

#include "cgra/alu.hpp"
#include "cgra/shuffle.hpp"
#include "common/status.hpp"

namespace vwr2a::cgra {

namespace {

/// Four-lane ALU evaluation with the opcode switch hoisted out of the lane
/// loop.
inline void alu_eval4(isa::RcOp op, const Word* a, const Word* b, Word* o) {
  with_alu_op(op, [a, b, o](auto alu) {
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) o[r] = alu(a[r], b[r]);
  });
}

} // namespace

void Column::save_state(Checkpoint& ck) const {
  for (unsigned v = 0; v < arch::kVwrsPerColumn; ++v) {
    ck.vwr[v] = vwrs_[v].row();
  }
  ck.srf = srf_.regs();
  ck.rcs = rcs_;
  ck.rc_prev = rc_prev_;
  ck.lcu_rf = lcu_rf_;
  ck.lsu_ptr = lsu_ptr_;
  ck.idx = idx_;
  ck.aux = aux_;
  ck.pc = pc_;
  ck.running = running_;
  ck.executed = executed_;
}

void Column::restore_state(const Checkpoint& ck) {
  for (unsigned v = 0; v < arch::kVwrsPerColumn; ++v) {
    vwrs_[v].row() = ck.vwr[v];
  }
  srf_.regs() = ck.srf;
  rcs_ = ck.rcs;
  rc_prev_ = ck.rc_prev;
  lcu_rf_ = ck.lcu_rf;
  lsu_ptr_ = ck.lsu_ptr;
  idx_ = ck.idx;
  aux_ = ck.aux;
  pc_ = ck.pc;
  running_ = ck.running;
  executed_ = ck.executed;
  // A rollback abandons the replay: the restored column steps interpreted.
  undo_ = nullptr;
  tb_ = nullptr;
}

inline const Word* Column::spm_read_row(unsigned row) {
  const Word* p = spm_->array_row(row);  // range-checks like the interpreter
  spm_rmask_[mask_tier_] |= 1ull << row;
  return p;
}

inline void Column::spm_write_row(unsigned row, const mem::Vwr::Row& v) {
  if (undo_ != nullptr && row < arch::kSpmRows &&
      ((undo_->saved_mask >> row) & 1u) == 0) {
    undo_->saved_mask |= 1ull << row;
    std::copy_n(spm_->array_row(row), arch::kVwrWords,
                undo_->rows[row].begin());
    undo_->versions[row] = spm_->row_version(row);
  }
  spm_->array_write_row(row, v);
  spm_wmask_[mask_tier_] |= 1ull << row;
}

inline Word Column::spm_read_word(unsigned word) {
  const Word v = spm_->array_read_word(word);
  spm_rmask_[mask_tier_] |= 1ull << (word / arch::kVwrWords);
  return v;
}

inline void Column::spm_write_word(unsigned word, Word v) {
  const unsigned row = word / arch::kVwrWords;
  if (undo_ != nullptr && row < arch::kSpmRows &&
      ((undo_->saved_mask >> row) & 1u) == 0) {
    undo_->saved_mask |= 1ull << row;
    std::copy_n(spm_->array_row(row), arch::kVwrWords,
                undo_->rows[row].begin());
    undo_->versions[row] = spm_->row_version(row);
  }
  spm_->array_write_word(word, v);
  spm_wmask_[mask_tier_] |= 1ull << row;
}

inline Word Column::read_src(const tc::Src& s) const {
  using K = tc::Src::K;
  switch (s.k) {
    case K::kImm:
      return s.imm;
    case K::kRf:
      return rcs_[s.rc].rf[s.idx];
    case K::kVwr:
      return vwrs_[s.vwr].row()[s.base + idx_];
    case K::kSrf:
      return srf_.regs()[s.idx];
    case K::kPrev:
      return rc_prev_[s.rc];
    case K::kCross:
      if (cross_ == nullptr) {
        // Same fault as the interpreter; the caller rolls back and reruns
        // interpreted so the error surfaces with the exact partial state.
        throw SimError("RC: kRcCross operand used without a synchronized "
                       "partner column");
      }
      return (*cross_)[s.rc];
    default:
      return 0;
  }
}

inline unsigned Column::lsu_peek_addr(const tc::LsuUop& u) const {
  using isa::LsuAddrMode;
  switch (u.amode) {
    case LsuAddrMode::kImm:
      return static_cast<unsigned>(u.imm);
    case LsuAddrMode::kSrfImm:
      return static_cast<unsigned>(srf_.regs()[u.srf_base]) +
             static_cast<unsigned>(u.imm);
    case LsuAddrMode::kPtr0Post:
      return lsu_ptr_[0];
    default:  // kPtr1Post (decode admits nothing else)
      return lsu_ptr_[1];
  }
}

inline unsigned Column::lsu_addr(const tc::LsuUop& u) {
  using isa::LsuAddrMode;
  const unsigned a = lsu_peek_addr(u);
  if (u.amode == LsuAddrMode::kPtr0Post || u.amode == LsuAddrMode::kPtr1Post) {
    std::uint32_t& p = lsu_ptr_[u.amode == LsuAddrMode::kPtr1Post];
    p = static_cast<std::uint32_t>(static_cast<std::int64_t>(p) + u.imm);
  }
  return a;
}

void Column::check_lsu_address(const tc::LsuUop& u) const {
  const unsigned addr = lsu_peek_addr(u);
  if (u.op == isa::LsuOp::kLdVwr || u.op == isa::LsuOp::kStVwr) {
    mem::Spm::check_row(addr);
  } else {
    mem::Spm::check_word(addr);
  }
}

inline void Column::quad_load(const tc::Src& s, Word* v) const {
  using K = tc::Src::K;
  switch (s.k) {
    case K::kImm:
      v[0] = v[1] = v[2] = v[3] = s.imm;
      break;
    case K::kRf:
      for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
        v[r] = rcs_[r].rf[s.idx];
      }
      break;
    case K::kVwr: {
      const Word* row = vwrs_[s.vwr].row().data() + idx_;
      for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
        v[r] = row[r * arch::kSliceWords];
      }
      break;
    }
    case K::kSrf: {
      const Word x = srf_.regs()[s.idx];
      v[0] = v[1] = v[2] = v[3] = x;
      break;
    }
    default:
      v[0] = v[1] = v[2] = v[3] = 0;
      break;
  }
}

/// All four RCs share one shape; the source/dest dispatch and the ALU
/// opcode switch are hoisted out of the lane loop (the rc_all() idiom of
/// every kernel inner loop).
inline void Column::exec_quad_rcs(const tc::Line& L) {
  const tc::RcUop& q = L.rc[0];
  Word av[arch::kRcsPerColumn];
  Word bv[arch::kRcsPerColumn];
  quad_load(q.a, av);
  if (q.unary) {
    bv[0] = bv[1] = bv[2] = bv[3] = 0;
  } else {
    quad_load(q.b, bv);
  }
  Word outs[arch::kRcsPerColumn];
  alu_eval4(q.op, av, bv, outs);
  switch (q.d) {
    case tc::Dst::kRf:
      for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
        rcs_[r].rf[q.idx] = outs[r];
      }
      break;
    case tc::Dst::kVwr: {
      Word* row = vwrs_[q.vwr].row().data() + idx_;
      for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
        row[r * arch::kSliceWords] = outs[r];
      }
      break;
    }
    default:
      break;  // kNone (kSrf never compiles as a quad)
  }
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) rc_prev_[r] = outs[r];
}

/// The inner-loop fast path: a quad RC op plus at most a register-only
/// MXCU index update. No LSU, no LCU, no SRF traffic outside the quad.
void Column::exec_quad_fast(const tc::Line& L) {
  exec_quad_rcs(L);
  if (L.has_mxcu) {
    using isa::MxcuOp;
    unsigned new_idx = idx_;
    switch (L.mxcu.op) {
      case MxcuOp::kSetIdx:
        new_idx = static_cast<unsigned>(L.mxcu.imm);
        break;
      case MxcuOp::kAddIdx:
        new_idx = static_cast<unsigned>(static_cast<SWord>(idx_) + L.mxcu.imm);
        break;
      case MxcuOp::kSetAux:
        aux_ = L.mxcu.imm;
        break;
      case MxcuOp::kAddAux:
        aux_ += L.mxcu.imm;
        break;
      case MxcuOp::kIdxFromAux:
        new_idx = static_cast<unsigned>(aux_);
        break;
      default:
        break;
    }
    idx_ = new_idx % arch::kSliceWords;
  }
}

void Column::exec_line(const tc::Line& L) {
  using isa::LsuOp;
  using isa::MxcuOp;
  using isa::LcuOp;

  // ---- LSU: SPM side effects happen in the evaluate phase (they read the
  // pre-commit VWR/SRF state); VWR row writes commit after the RCs.
  int pend_row_vwr = -1;
  const Word* pend_row_src = nullptr;
  int pend_srf_idx = -1;
  Word pend_srf_val = 0;
  if (L.has_lsu) {
    const tc::LsuUop& u = L.lsu;
    switch (u.op) {
      case LsuOp::kLdVwr:
        pend_row_src = spm_read_row(lsu_addr(u));
        pend_row_vwr = u.vwr;
        break;
      case LsuOp::kStVwr: {
        const unsigned row = lsu_addr(u);
        spm_write_row(row, vwrs_[u.vwr].row());
        break;
      }
      case LsuOp::kLdSrf:
        pend_srf_val = spm_read_word(lsu_addr(u));
        pend_srf_idx = u.srf_data;
        break;
      case LsuOp::kStSrf: {
        const unsigned word = lsu_addr(u);
        spm_write_word(word, srf_.regs()[u.srf_data]);
        break;
      }
      case LsuOp::kShuf: {
        shuffle_eval(u.mode, vwrs_[0].row(), vwrs_[1].row(), shuf_scratch_);
        pend_row_src = shuf_scratch_.data();
        pend_row_vwr = static_cast<int>(VwrSel::C);
        break;
      }
      case LsuOp::kSetPtr: {
        const unsigned p = static_cast<unsigned>(u.vwr) & 1u;
        lsu_ptr_[p] = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(srf_.regs()[u.srf_base]) + u.imm);
        break;
      }
      default:
        break;
    }
  }

  // ---- MXCU: evaluate against pre-cycle state, commit at the end.
  unsigned new_idx = idx_;
  SWord new_aux = aux_;
  int pend_mx_srf = -1;
  if (L.has_mxcu) {
    const tc::MxcuUop& u = L.mxcu;
    switch (u.op) {
      case MxcuOp::kSetIdx:
        new_idx = static_cast<unsigned>(u.imm);
        break;
      case MxcuOp::kAddIdx:
        new_idx = static_cast<unsigned>(static_cast<SWord>(idx_) + u.imm);
        break;
      case MxcuOp::kSetIdxSrf:
        new_idx = srf_.regs()[u.srf];
        break;
      case MxcuOp::kAddIdxSrf:
        new_idx = idx_ + srf_.regs()[u.srf];
        break;
      case MxcuOp::kAndIdxSrf:
        new_idx = idx_ & srf_.regs()[u.srf];
        break;
      case MxcuOp::kSetAux:
        new_aux = u.imm;
        break;
      case MxcuOp::kAddAux:
        new_aux = aux_ + u.imm;
        break;
      case MxcuOp::kIdxFromAux:
        new_idx = static_cast<unsigned>(aux_);
        break;
      case MxcuOp::kStIdxSrf:
        pend_mx_srf = u.srf;
        break;
      default:
        break;
    }
    new_idx %= arch::kSliceWords;
  }

  // ---- LCU register op (control ops live in the block terminator).
  int pend_lcu_rd = -1;
  Word pend_lcu_val = 0;
  int pend_lcu_srf = -1;
  Word pend_lcu_srf_val = 0;
  if (L.has_lcu) {
    const tc::LcuUop& u = L.lcu;
    switch (u.op) {
      case LcuOp::kSetI:
        pend_lcu_rd = u.rd;
        pend_lcu_val = static_cast<Word>(static_cast<SWord>(u.imm));
        break;
      case LcuOp::kAddI:
        pend_lcu_rd = u.rd;
        pend_lcu_val =
            static_cast<Word>(static_cast<SWord>(lcu_rf_[u.rd]) + u.imm);
        break;
      case LcuOp::kMvR:
        pend_lcu_rd = u.rd;
        pend_lcu_val = lcu_rf_[u.ra];
        break;
      case LcuOp::kAddR:
        pend_lcu_rd = u.rd;
        pend_lcu_val = static_cast<Word>(static_cast<SWord>(lcu_rf_[u.rd]) +
                                         static_cast<SWord>(lcu_rf_[u.ra]));
        break;
      case LcuOp::kSubR:
        pend_lcu_rd = u.rd;
        pend_lcu_val = static_cast<Word>(static_cast<SWord>(lcu_rf_[u.rd]) -
                                         static_cast<SWord>(lcu_rf_[u.ra]));
        break;
      case LcuOp::kMvSrf:
        pend_lcu_rd = u.rd;
        pend_lcu_val = srf_.regs()[u.srf];
        break;
      case LcuOp::kStSrf:
        pend_lcu_srf = u.srf;
        pend_lcu_srf_val = lcu_rf_[u.ra];
        break;
      default:
        break;
    }
  }

  // ---- RCs: evaluate (pre-cycle reads), then commit.
  if (L.quad) {
    exec_quad_rcs(L);
  } else if (L.rc_mask != 0) {
    Word outs[arch::kRcsPerColumn];
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      if (((L.rc_mask >> r) & 1u) == 0) continue;
      const tc::RcUop& u = L.rc[r];
      const Word a = read_src(u.a);
      const Word b = u.unary ? 0 : read_src(u.b);
      outs[r] = alu_eval(u.op, a, b);
    }
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      if (((L.rc_mask >> r) & 1u) == 0) continue;
      const tc::RcUop& u = L.rc[r];
      switch (u.d) {
        case tc::Dst::kRf:
          rcs_[r].rf[u.idx] = outs[r];
          break;
        case tc::Dst::kVwr:
          vwrs_[u.vwr].row()[u.base + idx_] = outs[r];
          break;
        case tc::Dst::kSrf:
          srf_.regs()[u.idx] = outs[r];
          break;
        default:
          break;
      }
      rc_prev_[r] = outs[r];
    }
  }

  // ---- end-of-cycle commits (interpreter order; at most one SRF write
  // exists per line, so the relative SRF order is immaterial).
  if (pend_row_vwr >= 0) {
    Word* dst = vwrs_[pend_row_vwr].row().data();
    std::copy_n(pend_row_src, arch::kVwrWords, dst);
  }
  if (pend_srf_idx >= 0) srf_.regs()[pend_srf_idx] = pend_srf_val;
  if (pend_mx_srf >= 0) srf_.regs()[pend_mx_srf] = idx_;
  if (pend_lcu_srf >= 0) srf_.regs()[pend_lcu_srf] = pend_lcu_srf_val;
  if (pend_lcu_rd >= 0) lcu_rf_[pend_lcu_rd] = pend_lcu_val;
  idx_ = new_idx;
  aux_ = new_aux;
}

inline unsigned Column::eval_term(const tc::Block& b, bool& exit) {
  const unsigned next = branch_next(b, b.first + b.len, lcu_rf_.data(),
                                    srf_.regs().data(), exit);
  if (b.term == tc::Term::kDbnz) --lcu_rf_[b.rd];
  return next;
}

void Column::begin_traced(tc::SpmUndo* undo) {
  undo_ = undo;
  spm_rmask_[0] = spm_rmask_[1] = 0;
  spm_wmask_[0] = spm_wmask_[1] = 0;
  mask_tier_ = 0;
  cross_ = nullptr;
  tb_ = nullptr;
  block_runs_.assign(trace_ != nullptr ? trace_->blocks.size() : 0, 0);
}

void Column::end_traced() {
  undo_ = nullptr;
  for (std::size_t bi = 0; bi < block_runs_.size(); ++bi) {
    if (block_runs_[bi] != 0) {
      meter_->add_block(trace_->blocks[bi].energy, block_runs_[bi]);
    }
  }
}

void Column::step_traced() {
  const CompiledTrace& T = *trace_;
  if (tb_ == nullptr) {
    tb_ = &T.blocks[T.block_of[pc_]];
    tb_line_ = 0;
  }
  exec_dispatch(T.lines[tb_->first + tb_line_]);
  ++executed_;
  if (++tb_line_ < tb_->len) {
    ++pc_;
    return;
  }
  const tc::Block& b = *tb_;
  tb_ = nullptr;
  ++block_runs_[&b - T.blocks.data()];
  bool exit = false;
  const unsigned next = eval_term(b, exit);
  if (exit) {
    running_ = false;  // pc stays at the EXIT line, like the interpreter
    return;
  }
  if (next >= T.length()) {
    throw SimError("Column: branch past end of program");
  }
  pc_ = next;
}

void Column::run_fused_loop(const tc::Block& b, std::uint64_t iters) {
  const tc::LoopPlan& plan = b.plan;
  const tc::Line* lines = trace_->lines.data() + b.first;
  auto replay_iteration = [&] {
    for (unsigned i = 0; i < b.len; ++i) exec_dispatch(lines[i]);
  };
  if (plan.lines.empty() || iters > arch::kSliceWords) {
    if (!plan.lines.empty()) ++long_loop_runs_;
    for (std::uint64_t it = 0; it < iters; ++it) replay_iteration();
    return;
  }
  // Ride-along loads re-read the same words every iteration: read each
  // once, like the first iteration would (range, access mask).
  std::array<Word, arch::kProgramWords> loaded;
  std::array<Word, arch::kSrfEntries> steady = srf_.regs();
  for (std::size_t k = 0; k < plan.loads.size(); ++k) {
    loaded[k] = spm_read_word(plan.loads[k].word);
    steady[plan.loads[k].srf] = loaded[k];
  }
  unsigned n = static_cast<unsigned>(iters);
  for (unsigned e = 0; e < arch::kSrfEntries; ++e) {
    if (((plan.entry_srf >> e) & 1u) != 0 && srf_.regs()[e] != steady[e]) {
      // The first iteration reads entry values no later one sees.
      replay_iteration();
      if (--n == 0) return;
      break;
    }
  }
  run_loop_plan(plan, n, loaded.data());
  srf_.regs() = steady;
}

void Column::run_loop_plan(const tc::LoopPlan& plan, unsigned n,
                           const Word* loaded) {
  using R = tc::MapRef::K;
  constexpr unsigned S = arch::kSliceWords;
  constexpr unsigned kN = arch::kRcsPerColumn;
  // Position p of every line is iteration p (walking up) or n - 1 - p
  // (walking down), so each operand advances with p; `base` is the slice
  // word of position 0 at offset 0.
  const unsigned base = plan.step > 0 ? idx_ : (idx_ + S - (n - 1)) % S;
  const unsigned last = plan.step > 0 ? n - 1 : 0;  // the last iteration
  std::array<Word, arch::kVwrWords> temp[arch::kRcRegs + 1];  // + sink
  // The four lane pointers of an operand at slice word `word`, position p.
  auto lanes = [&](const tc::MapRef& m, unsigned word, unsigned p,
                   auto& out) {
    switch (m.k) {
      case R::kRow:
      case R::kTemp: {
        Word* row = m.k == R::kRow ? vwrs_[m.i].row().data() + word
                                   : temp[m.i].data() + p;
        for (unsigned r = 0; r < kN; ++r) out[r] = row + r * S;
        return;
      }
      case R::kReg:  // a per-lane constant, or a fold's accumulator
        for (unsigned r = 0; r < kN; ++r) out[r] = &rcs_[r].rf[m.i];
        return;
      default: {
        const Word* v = m.k == R::kSrf    ? &srf_.regs()[m.i]
                        : m.k == R::kLoad ? loaded + m.i
                                          : &m.imm;
        for (unsigned r = 0; r < kN; ++r) out[r] = v;
        return;
      }
    }
  };
  // Each line runs over all n positions before the next line starts, as
  // at most two segments of linear slice words.
  for (const tc::MapLine& m : plan.lines) {
    const unsigned w0 = (base + m.off) % S;
    auto segment = [&](unsigned p, unsigned count) {
      const unsigned word = (w0 + p) % S;
      tc::SrcLanes a, b;
      tc::DstLanes d;
      lanes(m.a, word, p, a);
      lanes(m.b, word, p, b);
      if (m.d.k == R::kReg) {
        for (unsigned r = 0; r < kN; ++r) d[r] = &rcs_[r].rf[m.d.i];
      } else {
        Word* row = m.d.k == R::kRow ? vwrs_[m.d.i].row().data() + word
                                     : temp[m.d.i].data() + p;
        for (unsigned r = 0; r < kN; ++r) d[r] = row + r * S;
      }
      m.fn(a, b, d, count);
    };
    const unsigned head = std::min(n, S - w0);
    segment(0, head);
    if (head < n) segment(head, n - head);
  }
  // Architectural state after the last iteration: its register values,
  // its last line's results, and the index one step past it.
  for (unsigned e = 0; e < arch::kRcRegs; ++e) {
    if (((plan.temps >> e) & 1u) == 0) continue;
    for (unsigned r = 0; r < kN; ++r) rcs_[r].rf[e] = temp[e][r * S + last];
  }
  const tc::MapLine& tail = plan.lines.back();
  const unsigned tail_word = (base + tail.off + last) % S;
  for (unsigned r = 0; r < kN; ++r) {
    switch (tail.d.k) {
      case R::kRow:
        rc_prev_[r] = vwrs_[tail.d.i].row()[r * S + tail_word];
        break;
      case R::kTemp:
        rc_prev_[r] = temp[tail.d.i][r * S + last];
        break;
      default:  // kReg: the fold's accumulator
        rc_prev_[r] = rcs_[r].rf[tail.d.i];
        break;
    }
  }
  idx_ = (idx_ + n * static_cast<unsigned>(static_cast<int>(plan.step))) % S;
}

Cycle Column::step_block_traced(Cycle budget_left) {
  const CompiledTrace& T = *trace_;
  const tc::Line* lines = T.lines.data();
  const unsigned bi = T.block_of[pc_];
  const tc::Block& b = T.blocks[bi];
  unsigned next = b.first + b.len;  // fallthrough
  Cycle n = 0;
  if (b.fuse_self_loop) {
    // Hardware loop: replay the whole (runtime-read) trip count fused.
    const Word cnt = lcu_rf_[b.rd];
    const std::uint64_t iters = cnt == 0 ? (1ull << 32) : cnt;
    if (iters * b.len > budget_left) throw tc::ReplayBudgetExceeded{};
    run_fused_loop(b, iters);
    lcu_rf_[b.rd] = 0;  // dbnz leaves the counter at zero
    block_runs_[bi] += iters;
    executed_ += iters * b.len;
    n = iters * b.len;
  } else {
    for (unsigned i = 0; i < b.len; ++i) exec_dispatch(lines[b.first + i]);
    ++block_runs_[bi];
    executed_ += b.len;
    n = b.len;
    bool exit = false;
    next = eval_term(b, exit);
    if (exit) running_ = false;
  }
  if (!running_) {
    pc_ = b.first + b.len - 1;  // the interpreter leaves pc at the EXIT line
    return n;
  }
  if (next >= T.length()) {
    throw SimError("Column: branch past end of program");
  }
  pc_ = next;
  return n;
}

Cycle Column::run_traced(tc::SpmUndo* undo, Cycle budget) {
  if (!has_trace()) throw HostError("Column: run_traced without a trace");
  begin_traced(undo);
  Cycle n = 0;
  while (running_) {
    if (n > budget) throw tc::ReplayBudgetExceeded{};  // caller rolls back
    n += step_block_traced(budget - n);
  }
  end_traced();
  return n;
}

} // namespace vwr2a::cgra
