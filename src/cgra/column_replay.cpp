// Trace-cache replay of one column: the Column members that execute
// compiled traces. Kept apart from the interpreter in column.cpp so the two
// engines are optimized as separate units.

#include "cgra/column.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "cgra/alu.hpp"
#include "cgra/shuffle.hpp"
#include "common/status.hpp"

namespace vwr2a::cgra {

// ---------------------------------------------------------------------------
// Trace-cache replay (see cgra/tracecache.hpp for the compilation model and
// the identity contract). Everything below must mirror step() bit for bit;
// the hazard checks and per-event meter adds are gone because the compiler
// proved the schedule and pre-aggregated the events per block.
// ---------------------------------------------------------------------------

namespace {

/// One RC ALU operation as a stateless functor. Per-lane semantics are
/// exactly alu_eval()'s (alu.cpp), the interpreter's switch; the
/// differential trace tests pin the two to each other.
template <isa::RcOp Op>
struct AluFn {
  Word operator()(Word a, Word b) const {
    using isa::RcOp;
    using I64 = std::int64_t;
    if constexpr (Op == RcOp::kNop) {
      return 0;
    } else if constexpr (Op == RcOp::kSadd) {
      return static_cast<Word>(static_cast<SWord>(
          static_cast<I64>(static_cast<SWord>(a)) + static_cast<SWord>(b)));
    } else if constexpr (Op == RcOp::kSsub) {
      return static_cast<Word>(static_cast<SWord>(
          static_cast<I64>(static_cast<SWord>(a)) - static_cast<SWord>(b)));
    } else if constexpr (Op == RcOp::kSmul) {
      return static_cast<Word>(static_cast<SWord>(
          (static_cast<I64>(static_cast<SWord>(a)) * static_cast<SWord>(b)) &
          0xFFFFFFFFll));
    } else if constexpr (Op == RcOp::kFxpMul) {
      // Fixed-point mode: drop the low 16 bits of the 64-bit product, keep
      // the next 32 (paper Sec 3.1).
      return static_cast<Word>(static_cast<SWord>(
          (static_cast<I64>(static_cast<SWord>(a)) * static_cast<SWord>(b)) >>
          16));
    } else if constexpr (Op == RcOp::kSll) {
      return a << (b & 31u);
    } else if constexpr (Op == RcOp::kSrl) {
      return a >> (b & 31u);
    } else if constexpr (Op == RcOp::kSra) {
      return static_cast<Word>(static_cast<SWord>(a) >> (b & 31u));
    } else if constexpr (Op == RcOp::kLand) {
      return a & b;
    } else if constexpr (Op == RcOp::kLor) {
      return a | b;
    } else if constexpr (Op == RcOp::kLxor) {
      return a ^ b;
    } else if constexpr (Op == RcOp::kLnot) {
      return ~a;
    } else if constexpr (Op == RcOp::kMv) {
      return a;
    } else if constexpr (Op == RcOp::kCmpEq) {
      return a == b ? 1u : 0u;
    } else if constexpr (Op == RcOp::kCmpLt) {
      return static_cast<SWord>(a) < static_cast<SWord>(b) ? 1u : 0u;
    } else if constexpr (Op == RcOp::kCmpLe) {
      return static_cast<SWord>(a) <= static_cast<SWord>(b) ? 1u : 0u;
    } else if constexpr (Op == RcOp::kMax) {
      return static_cast<SWord>(a) >= static_cast<SWord>(b) ? a : b;
    } else if constexpr (Op == RcOp::kMin) {
      return static_cast<SWord>(a) <= static_cast<SWord>(b) ? a : b;
    } else {
      static_assert(Op == RcOp::kAbs, "unhandled RC opcode");
      const SWord sa = static_cast<SWord>(a);
      if (sa == std::numeric_limits<SWord>::min()) {
        return static_cast<Word>(std::numeric_limits<SWord>::max());
      }
      return static_cast<Word>(sa < 0 ? -sa : sa);
    }
  }
};

/// Switches on `op` once and calls fn(AluFn<op>{}), so a loop written in
/// `fn` runs with the opcode fixed at compile time instead of re-dispatching
/// per element. Throws DecodeError on an out-of-range opcode.
template <typename Fn>
[[gnu::always_inline]] inline decltype(auto) with_alu_op(isa::RcOp op, Fn&& fn) {
  using isa::RcOp;
  switch (op) {
    case RcOp::kNop: return fn(AluFn<RcOp::kNop>{});
    case RcOp::kSadd: return fn(AluFn<RcOp::kSadd>{});
    case RcOp::kSsub: return fn(AluFn<RcOp::kSsub>{});
    case RcOp::kSmul: return fn(AluFn<RcOp::kSmul>{});
    case RcOp::kFxpMul: return fn(AluFn<RcOp::kFxpMul>{});
    case RcOp::kSll: return fn(AluFn<RcOp::kSll>{});
    case RcOp::kSrl: return fn(AluFn<RcOp::kSrl>{});
    case RcOp::kSra: return fn(AluFn<RcOp::kSra>{});
    case RcOp::kLand: return fn(AluFn<RcOp::kLand>{});
    case RcOp::kLor: return fn(AluFn<RcOp::kLor>{});
    case RcOp::kLxor: return fn(AluFn<RcOp::kLxor>{});
    case RcOp::kLnot: return fn(AluFn<RcOp::kLnot>{});
    case RcOp::kMv: return fn(AluFn<RcOp::kMv>{});
    case RcOp::kCmpEq: return fn(AluFn<RcOp::kCmpEq>{});
    case RcOp::kCmpLt: return fn(AluFn<RcOp::kCmpLt>{});
    case RcOp::kCmpLe: return fn(AluFn<RcOp::kCmpLe>{});
    case RcOp::kMax: return fn(AluFn<RcOp::kMax>{});
    case RcOp::kMin: return fn(AluFn<RcOp::kMin>{});
    case RcOp::kAbs: return fn(AluFn<RcOp::kAbs>{});
    default: throw DecodeError("alu_eval: bad RC opcode");
  }
}

/// Precomputed shuffle permutations: replay resolves the per-word source
/// switch of shuffle_eval() once per mode instead of once per word.
struct ShuffleTables {
  // [mode][i] = source index into the A:B concatenation.
  std::array<std::array<std::uint16_t, arch::kVwrWords>, 8> map{};
  ShuffleTables() {
    for (unsigned m = 0; m < 8; ++m) {
      for (unsigned i = 0; i < arch::kVwrWords; ++i) {
        map[m][i] = static_cast<std::uint16_t>(
            shuffle_source_index(static_cast<isa::ShufMode>(m), i));
      }
    }
  }
};

const ShuffleTables& shuffle_tables() {
  static const ShuffleTables t;
  return t;
}

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
    ck.vwr[v] = vwrs_[v].trace_row();
  }
  for (unsigned i = 0; i < arch::kSrfEntries; ++i) ck.srf[i] = srf_.trace_read(i);
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
    vwrs_[v].trace_row() = ck.vwr[v];
  }
  for (unsigned i = 0; i < arch::kSrfEntries; ++i) {
    srf_.trace_write(i, ck.srf[i]);
  }
  rcs_ = ck.rcs;
  rc_prev_ = ck.rc_prev;
  lcu_rf_ = ck.lcu_rf;
  lsu_ptr_ = ck.lsu_ptr;
  idx_ = ck.idx;
  aux_ = ck.aux;
  pc_ = ck.pc;
  running_ = ck.running;
  executed_ = ck.executed;
}

inline const Word* Column::spm_trace_read_row(unsigned row) {
  const Word* p = spm_->trace_row(row);  // range-checks like the interpreter
  spm_rmask_[mask_tier_] |= 1ull << row;
  return p;
}

inline void Column::spm_trace_write_row(unsigned row, const mem::Vwr::Row& v) {
  if (undo_ != nullptr && row < arch::kSpmRows &&
      ((undo_->saved_mask >> row) & 1u) == 0) {
    undo_->saved_mask |= 1ull << row;
    std::copy_n(spm_->trace_row(row), arch::kVwrWords,
                undo_->rows[row].begin());
    undo_->versions[row] = spm_->row_version(row);
  }
  spm_->trace_write_row(row, v);
  spm_wmask_[mask_tier_] |= 1ull << row;
}

inline Word Column::spm_trace_read_word(unsigned word) {
  const Word v = spm_->trace_read_word(word);
  spm_rmask_[mask_tier_] |= 1ull << (word / arch::kVwrWords);
  return v;
}

inline void Column::spm_trace_write_word(unsigned word, Word v) {
  const unsigned row = word / arch::kVwrWords;
  if (undo_ != nullptr && row < arch::kSpmRows &&
      ((undo_->saved_mask >> row) & 1u) == 0) {
    undo_->saved_mask |= 1ull << row;
    std::copy_n(spm_->trace_row(row), arch::kVwrWords,
                undo_->rows[row].begin());
    undo_->versions[row] = spm_->row_version(row);
  }
  spm_->trace_write_word(word, v);
  spm_wmask_[mask_tier_] |= 1ull << row;
}

inline Word Column::trace_src(const tc::Src& s) const {
  using K = tc::Src::K;
  switch (s.k) {
    case K::kImm:
      return s.imm;
    case K::kRf:
      return rcs_[s.rc].rf[s.idx];
    case K::kVwr:
      return vwrs_[s.vwr].trace_row()[s.base + idx_];
    case K::kSrf:
      return srf_.trace_read(s.idx);
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

inline unsigned Column::trace_lsu_addr(const tc::LsuUop& u) {
  using isa::LsuAddrMode;
  switch (u.amode) {
    case LsuAddrMode::kImm:
      return static_cast<unsigned>(u.imm);
    case LsuAddrMode::kSrfImm:
      return static_cast<unsigned>(srf_.trace_read(u.srf_base)) +
             static_cast<unsigned>(u.imm);
    case LsuAddrMode::kPtr0Post: {
      const unsigned a = lsu_ptr_[0];
      lsu_ptr_[0] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(lsu_ptr_[0]) + u.imm);
      return a;
    }
    default: {  // kPtr1Post (compiler rejects anything else)
      const unsigned a = lsu_ptr_[1];
      lsu_ptr_[1] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(lsu_ptr_[1]) + u.imm);
      return a;
    }
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
      const Word* row = vwrs_[s.vwr].trace_row().data() + idx_;
      for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
        v[r] = row[r * arch::kSliceWords];
      }
      break;
    }
    case K::kSrf: {
      const Word x = srf_.trace_read(s.idx);
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
      Word* row = vwrs_[q.vwr].trace_row().data() + idx_;
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

void Column::exec_traced_line(const tc::Line& L) {
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
        pend_row_src = spm_trace_read_row(trace_lsu_addr(u));
        pend_row_vwr = u.vwr;
        break;
      case LsuOp::kStVwr: {
        const unsigned row = trace_lsu_addr(u);
        spm_trace_write_row(row, vwrs_[u.vwr].trace_row());
        break;
      }
      case LsuOp::kLdSrf:
        pend_srf_val = spm_trace_read_word(trace_lsu_addr(u));
        pend_srf_idx = u.srf_data;
        break;
      case LsuOp::kStSrf: {
        const unsigned word = trace_lsu_addr(u);
        spm_trace_write_word(word, srf_.trace_read(u.srf_data));
        break;
      }
      case LsuOp::kShuf: {
        const auto& map = shuffle_tables().map[static_cast<unsigned>(u.mode)];
        // Gather from A:B laid out as one array: the map indexes it
        // directly.
        std::array<Word, 2 * arch::kVwrWords> ab;
        std::copy_n(vwrs_[0].trace_row().data(), arch::kVwrWords, ab.data());
        std::copy_n(vwrs_[1].trace_row().data(), arch::kVwrWords,
                    ab.data() + arch::kVwrWords);
        for (unsigned i = 0; i < arch::kVwrWords; ++i) {
          shuf_scratch_[i] = ab[map[i]];
        }
        pend_row_src = shuf_scratch_.data();
        pend_row_vwr = static_cast<int>(VwrSel::C);
        break;
      }
      case LsuOp::kSetPtr: {
        const unsigned p = static_cast<unsigned>(u.vwr) & 1u;
        lsu_ptr_[p] = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(srf_.trace_read(u.srf_base)) + u.imm);
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
        new_idx = srf_.trace_read(u.srf);
        break;
      case MxcuOp::kAddIdxSrf:
        new_idx = idx_ + srf_.trace_read(u.srf);
        break;
      case MxcuOp::kAndIdxSrf:
        new_idx = idx_ & srf_.trace_read(u.srf);
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
        pend_lcu_val = srf_.trace_read(u.srf);
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
      const Word a = trace_src(u.a);
      const Word b = u.unary ? 0 : trace_src(u.b);
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
          vwrs_[u.vwr].trace_row()[u.base + idx_] = outs[r];
          break;
        case tc::Dst::kSrf:
          srf_.trace_write(u.idx, outs[r]);
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
    Word* dst = vwrs_[pend_row_vwr].trace_row().data();
    std::copy_n(pend_row_src, arch::kVwrWords, dst);
  }
  if (pend_srf_idx >= 0) srf_.trace_write(pend_srf_idx, pend_srf_val);
  if (pend_mx_srf >= 0) srf_.trace_write(pend_mx_srf, idx_);
  if (pend_lcu_srf >= 0) srf_.trace_write(pend_lcu_srf, pend_lcu_srf_val);
  if (pend_lcu_rd >= 0) lcu_rf_[pend_lcu_rd] = pend_lcu_val;
  idx_ = new_idx;
  aux_ = new_aux;
}

inline unsigned Column::eval_term(const tc::Block& b, bool& exit) {
  unsigned next = b.first + b.len;  // fallthrough
  switch (b.term) {
    case tc::Term::kFall:
      break;
    case tc::Term::kB:
      next = b.target;
      break;
    case tc::Term::kCond: {
      const SWord ra = static_cast<SWord>(lcu_rf_[b.ra]);
      const SWord rb = static_cast<SWord>(lcu_rf_[b.rb]);
      bool taken = false;
      switch (b.cond) {
        case tc::Cond::kEq: taken = ra == rb; break;
        case tc::Cond::kNe: taken = ra != rb; break;
        case tc::Cond::kLt: taken = ra < rb; break;
        case tc::Cond::kGe: taken = ra >= rb; break;
        case tc::Cond::kEqI: taken = ra == b.imm; break;
        case tc::Cond::kNeI: taken = ra != b.imm; break;
        case tc::Cond::kLtI: taken = ra < b.imm; break;
        case tc::Cond::kGeI: taken = ra >= b.imm; break;
        case tc::Cond::kSrfZ: taken = srf_.trace_read(b.srf) == 0; break;
        case tc::Cond::kSrfNz: taken = srf_.trace_read(b.srf) != 0; break;
      }
      if (taken) next = b.target;
      break;
    }
    case tc::Term::kDbnz: {
      const Word nv = lcu_rf_[b.rd] - 1;
      lcu_rf_[b.rd] = nv;
      if (nv != 0) next = b.target;
      break;
    }
    case tc::Term::kExit:
      exit = true;
      break;
  }
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
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) rcs_[r].out = rc_prev_[r];
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

/// One quad line of a fused loop body with its operand routing
/// resolved once per trip count. Each operand holds a pointer per lane,
/// offset by the slice index when it is a VWR row: VWR rows, the per-RC
/// register files and the SRF are all addressed in place, so steps
/// interleave freely with lines replayed generically.
struct QuadStep {
  using Fn = void (*)(const QuadStep&, unsigned idx, Word* out);
  using MapFn = void (*)(const QuadStep&, unsigned lo, unsigned n);
  struct Operand {
    std::array<Word*, arch::kRcsPerColumn> lane;
    unsigned idx_mask;  ///< ~0 for a VWR row (the slice index applies), 0
    Word* at(unsigned idx, unsigned r) const {
      return lane[r] + (idx & idx_mask);
    }
  };
  Fn run;     ///< one execution, opcode fixed at compile time; null: the
              ///< line replays through exec_dispatch
  MapFn map;  ///< distributed form only: see quad_row_map
  Operand a, b, d;
  std::int32_t step;  ///< MXCU index step after the line
  Word imm_a, imm_b;  ///< immediate operand values
  /// An LSU scalar load riding along (SPM word -> SRF), or null.
  const tc::LsuUop* load;
};

namespace {

/// Executes one step. All four lanes load before any stores, like one
/// interpreter cycle, so a destination that aliases a source stays
/// bit-identical.
template <typename Alu>
void quad_step(const QuadStep& s, unsigned idx, Word* o) {
  constexpr unsigned kN = arch::kRcsPerColumn;
  Word av[kN], bv[kN];
  for (unsigned r = 0; r < kN; ++r) {
    av[r] = *s.a.at(idx, r);
    bv[r] = *s.b.at(idx, r);
  }
  for (unsigned r = 0; r < kN; ++r) o[r] = Alu{}(av[r], bv[r]);
  for (unsigned r = 0; r < kN; ++r) *s.d.at(idx, r) = o[r];
}

/// One line of a distributed loop body (see Column::run_fused_loop) over
/// slice words [lo, lo + n) of every lane. Row operands advance with the
/// word; the others hold one value per lane. Computed in blocks the
/// compiler can vectorize; each block loads before it stores, so a
/// destination that is also a source stays exact.
template <typename Alu, bool kRowA, bool kRowB>
void quad_row_map(const QuadStep& s, unsigned lo, unsigned n) {
  constexpr unsigned kBlk = 8;
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const Word* a = kRowA ? s.a.lane[r] + lo : s.a.lane[r];
    const Word* b = kRowB ? s.b.lane[r] + lo : s.b.lane[r];
    Word* d = s.d.lane[r] + lo;
    unsigned i = 0;
    for (; i + kBlk <= n; i += kBlk) {
      Word t[kBlk];
      for (unsigned k = 0; k < kBlk; ++k) {
        t[k] = Alu{}(kRowA ? a[i + k] : a[0], kRowB ? b[i + k] : b[0]);
      }
      for (unsigned k = 0; k < kBlk; ++k) d[i + k] = t[k];
    }
    for (; i < n; ++i) d[i] = Alu{}(kRowA ? a[i] : a[0], kRowB ? b[i] : b[0]);
  }
}

} // namespace

void Column::run_fused_loop(const tc::Block& b, std::uint64_t iters) {
  using K = tc::Src::K;
  constexpr unsigned S = arch::kSliceWords;
  constexpr unsigned kN = arch::kRcsPerColumn;
  const tc::Line* lines = trace_->lines.data() + b.first;

  // Route every quad line that carries at most an index step and an SRF
  // load (the elementwise and multiply-accumulate bodies of the kernels);
  // the other lines keep the generic per-line replay.
  auto rf = [this](unsigned e) {
    return QuadStep::Operand{
        {&rcs_[0].rf[e], &rcs_[1].rf[e], &rcs_[2].rf[e], &rcs_[3].rf[e]}, 0};
  };
  auto row = [this](unsigned v) {
    Word* p = vwrs_[v].trace_row().data();
    return QuadStep::Operand{{p, p + S, p + 2 * S, p + 3 * S}, ~0u};
  };
  auto broadcast = [](Word* p) { return QuadStep::Operand{{p, p, p, p}, 0}; };
  auto route = [&](const tc::Src& src, Word& imm) {
    switch (src.k) {
      case K::kRf:
        return rf(src.idx);
      case K::kVwr:
        return row(src.vwr);
      case K::kSrf:  // read live: a generic line of the body may write it
        return broadcast(&srf_.trace_regs()[src.idx]);
      default:  // kImm (quad_shape admits no lane-crossing source)
        imm = src.imm;
        return broadcast(&imm);
    }
  };
  QuadStep steps[arch::kProgramWords];  // only [0, b.len) is filled
  Word sink[kN];                        // kNone destinations
  bool all_quad = true;  // every line quad-fast: run_fused_map may apply
  bool any_load = false;
  for (unsigned i = 0; i < b.len; ++i) {
    const tc::Line& L = lines[i];
    QuadStep& st = steps[i];
    st = QuadStep{};
    const bool quad_fast = L.kind == tc::Line::Kind::kQuadFast;
    const bool srf_load = L.quad && !L.has_lcu && L.has_lsu &&
                          L.lsu.op == isa::LsuOp::kLdSrf;
    const bool index_step =
        !L.has_mxcu || L.mxcu.op == isa::MxcuOp::kAddIdx;
    all_quad = all_quad && quad_fast && index_step;
    if (!(quad_fast || srf_load) || !index_step) continue;
    if (srf_load) {
      st.load = &L.lsu;
      any_load = true;
    }
    const tc::RcUop& q = L.rc[0];
    st.a = route(q.a, st.imm_a);
    // A unary op ignores its second operand; keep it readable.
    st.b = q.unary ? broadcast(&st.imm_b) : route(q.b, st.imm_b);
    switch (q.d) {
      case tc::Dst::kRf:
        st.d = rf(q.idx);
        break;
      case tc::Dst::kVwr:
        st.d = row(q.vwr);
        break;
      default:  // kNone: the result only reaches rc_prev_
        st.d = {{sink, sink + 1, sink + 2, sink + 3}, 0};
        break;
    }
    st.step = L.has_mxcu ? L.mxcu.imm : 0;
    with_alu_op(q.op,
                [&st](auto alu) { st.run = &quad_step<decltype(alu)>; });
  }

  if (all_quad && run_fused_map(b, iters, steps)) return;

  // Per-iteration replay. Every step leaves its outputs in rc_prev_, where
  // a generic line of the body may read them; one instantiation per body
  // kind keeps the load check out of bodies without loads.
  auto replay = [&](auto with_loads) {
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (unsigned i = 0; i < b.len; ++i) {
        const QuadStep& st = steps[i];
        if (st.run == nullptr) {
          exec_dispatch(lines[i]);
          continue;
        }
        if (with_loads && st.load != nullptr) {
          // The load holds the SRF port, so no RC of the line reads the
          // SRF; the loaded word commits last, as in the interpreter.
          const Word v = spm_trace_read_word(trace_lsu_addr(*st.load));
          st.run(st, idx_, rc_prev_.data());
          srf_.trace_write(st.load->srf_data, v);
        } else {
          st.run(st, idx_, rc_prev_.data());
        }
        idx_ = static_cast<unsigned>(static_cast<SWord>(idx_) + st.step) % S;
      }
    }
  };
  if (any_load) {
    replay(std::true_type{});
  } else {
    replay(std::false_type{});
  }
}

bool Column::run_fused_map(const tc::Block& b, std::uint64_t iters,
                           QuadStep* steps) {
  using K = tc::Src::K;
  constexpr unsigned S = arch::kSliceWords;
  constexpr unsigned kN = arch::kRcsPerColumn;
  const tc::Line* lines = trace_->lines.data() + b.first;
  const std::int32_t step = steps[b.len - 1].step;
  if (iters > S || (step != 1 && step != -1)) return false;
  for (unsigned i = 0; i + 1 < b.len; ++i) {
    if (steps[i].step != 0) return false;
  }
  // Every iteration works on its own slice word, so the only values that
  // cross iterations are RC registers read before the body writes them.
  // Registers the body never writes are per-lane constants; those it writes
  // before reading become temporaries, one word per iteration.
  std::array<bool, arch::kRcRegs> written{};
  std::array<bool, arch::kRcRegs> read_first{};
  for (unsigned i = 0; i < b.len; ++i) {
    const tc::RcUop& q = lines[i].rc[0];
    for (const tc::Src* src : {&q.a, &q.b}) {
      if (src == &q.b && q.unary) continue;
      if (src->k == K::kRf && !written[src->idx]) read_first[src->idx] = true;
    }
    if (q.d == tc::Dst::kRf) written[q.idx] = true;
  }
  for (unsigned e = 0; e < arch::kRcRegs; ++e) {
    if (written[e] && read_first[e]) return false;  // loop-carried
  }

  std::array<Word, arch::kVwrWords> temp[arch::kRcRegs + 1];  // + kNone
  auto temp_row = [&temp](unsigned t) {
    Word* p = temp[t].data();
    return QuadStep::Operand{{p, p + S, p + 2 * S, p + 3 * S}, ~0u};
  };
  for (unsigned i = 0; i < b.len; ++i) {
    const tc::RcUop& q = lines[i].rc[0];
    QuadStep& st = steps[i];
    if (q.a.k == K::kRf && written[q.a.idx]) st.a = temp_row(q.a.idx);
    if (!q.unary && q.b.k == K::kRf && written[q.b.idx]) {
      st.b = temp_row(q.b.idx);
    }
    if (q.d == tc::Dst::kRf) st.d = temp_row(q.idx);
    if (q.d == tc::Dst::kNone) st.d = temp_row(arch::kRcRegs);
    const bool row_a = st.a.idx_mask != 0;
    const bool row_b = st.b.idx_mask != 0;
    with_alu_op(q.op, [&st, row_a, row_b](auto alu) {
      using Alu = decltype(alu);
      st.map = row_a ? (row_b ? &quad_row_map<Alu, true, true>
                              : &quad_row_map<Alu, true, false>)
                     : (row_b ? &quad_row_map<Alu, false, true>
                              : &quad_row_map<Alu, false, false>);
    });
  }

  // The visited words form one circular run of `iters` words: map every
  // line over it in body order, as at most two linear segments.
  const unsigned n = static_cast<unsigned>(iters);
  const unsigned last = (idx_ + (n - 1) * static_cast<unsigned>(step)) % S;
  const unsigned lo = step == 1 ? idx_ : last;
  const unsigned head = std::min(n, S - lo);
  for (unsigned i = 0; i < b.len; ++i) {
    steps[i].map(steps[i], lo, head);
    if (head < n) steps[i].map(steps[i], 0, n - head);
  }
  // Architectural state after the last iteration: its register values,
  // its last line's results, and the index one step past it.
  for (unsigned e = 0; e < arch::kRcRegs; ++e) {
    if (!written[e]) continue;
    for (unsigned r = 0; r < kN; ++r) rcs_[r].rf[e] = temp[e][r * S + last];
  }
  const QuadStep& tail = steps[b.len - 1];
  for (unsigned r = 0; r < kN; ++r) rc_prev_[r] = tail.d.lane[r][last];
  idx_ = (last + static_cast<unsigned>(step)) % S;
  return true;
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
