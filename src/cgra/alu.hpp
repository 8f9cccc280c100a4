#pragma once
// The RC ALU (paper Sec 3.1): 32-bit signed add/sub/multiply, bitwise logic,
// logical/arithmetic shifts, all single cycle. The multiplier has a standard
// mode (low 32 bits) and a fixed-point mode: the lower 16 bits of the 64-bit
// product are discarded and the next 32 bits kept, giving single-cycle 16.15
// fixed-point multiplication.
//
// Pure functions: the column wraps them with operand routing, energy
// accounting and operand isolation (idle operators do not toggle).

#include <cstdint>
#include <limits>

#include "common/status.hpp"
#include "common/types.hpp"
#include "energy/events.hpp"
#include "isa/opcodes.hpp"

namespace vwr2a::cgra {

/// One RC ALU operation as a stateless functor with the opcode fixed at
/// compile time: the single definition of the RC arithmetic. alu_eval(),
/// the interpreter and trace replay all evaluate through it.
template <isa::RcOp Op>
struct AluFn {
  Word operator()(Word a, Word b) const {
    using isa::RcOp;
    using I64 = std::int64_t;
    const SWord sa = static_cast<SWord>(a);
    const SWord sb = static_cast<SWord>(b);
    if constexpr (Op == RcOp::kNop) {
      return 0;
    } else if constexpr (Op == RcOp::kSadd) {
      return static_cast<Word>(static_cast<SWord>(static_cast<I64>(sa) + sb));
    } else if constexpr (Op == RcOp::kSsub) {
      return static_cast<Word>(static_cast<SWord>(static_cast<I64>(sa) - sb));
    } else if constexpr (Op == RcOp::kSmul) {
      return static_cast<Word>(
          static_cast<SWord>((static_cast<I64>(sa) * sb) & 0xFFFFFFFFll));
    } else if constexpr (Op == RcOp::kFxpMul) {
      // Fixed-point mode: drop the low 16 bits of the 64-bit product, keep
      // the next 32 (paper Sec 3.1).
      return static_cast<Word>(static_cast<SWord>((static_cast<I64>(sa) * sb) >> 16));
    } else if constexpr (Op == RcOp::kSll) {
      return a << (b & 31u);
    } else if constexpr (Op == RcOp::kSrl) {
      return a >> (b & 31u);
    } else if constexpr (Op == RcOp::kSra) {
      return static_cast<Word>(sa >> (b & 31u));
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
      return sa < sb ? 1u : 0u;
    } else if constexpr (Op == RcOp::kCmpLe) {
      return sa <= sb ? 1u : 0u;
    } else if constexpr (Op == RcOp::kMax) {
      return sa >= sb ? a : b;
    } else if constexpr (Op == RcOp::kMin) {
      return sa <= sb ? a : b;
    } else {
      static_assert(Op == RcOp::kAbs, "unhandled RC opcode");
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

/// Evaluates one RC ALU operation on two 32-bit words.
inline Word alu_eval(isa::RcOp op, Word a, Word b) {
  return with_alu_op(op, [a, b](auto alu) { return alu(a, b); });
}

/// The energy event class of an RC operation (operand isolation: kNop maps
/// to no event; callers skip accounting for it).
constexpr energy::Event alu_energy_event(isa::RcOp op) {
  return op == isa::RcOp::kSmul     ? energy::Event::kAluMul
         : op == isa::RcOp::kFxpMul ? energy::Event::kAluFxpMul
                                    : energy::Event::kAluOp;
}

/// True if the operation ignores its second operand (unary).
constexpr bool alu_is_unary(isa::RcOp op) {
  return op == isa::RcOp::kLnot || op == isa::RcOp::kMv || op == isa::RcOp::kAbs;
}

/// Dual 16-bit SIMD evaluation used by the ablation study (paper Sec 5.1.1
/// suggests "a 16-bit mode with two simultaneous 16-bit operations" as a
/// datapath optimization). Packs two q15 lanes per word. Only defined for
/// add/sub/mul-like ops; others fall back to 32-bit semantics.
Word alu_eval_simd16(isa::RcOp op, Word a, Word b);

} // namespace vwr2a::cgra
