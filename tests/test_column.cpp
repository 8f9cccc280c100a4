// Column execution semantics: end-of-cycle register commit, neighbour
// operands, branch behaviour, structural-hazard detection, MXCU index
// arithmetic, LSU pointer addressing, the shuffle unit as seen from the
// pipeline, and the ALU itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <typeinfo>
#include <vector>

#include "bus/ahb.hpp"
#include "casm/builder.hpp"
#include "casm/factories.hpp"
#include "cgra/alu.hpp"
#include "cgra/shuffle.hpp"
#include "cgra/vwr2a.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "energy/meter.hpp"
#include "mem/sram.hpp"

namespace vwr2a::cgra {
namespace {

using namespace casm;

struct Rig {
  energy::EnergyMeter sys_meter;
  mem::SystemSram sram{sys_meter};
  bus::AhbBus ahb{sram, sys_meter};
  Vwr2a acc{ahb};

  Cycle run(const isa::ColumnProgram& prog, unsigned col = 0) {
    const unsigned id =
        acc.register_kernel(make_kernel("t", col, prog));
    return acc.run_kernel(id);
  }
};

// --- ALU semantics -----------------------------------------------------------

TEST(Alu, SignedArithmeticAndLogic) {
  using isa::RcOp;
  EXPECT_EQ(alu_eval(RcOp::kSadd, 5, Word(-3)), 2u);
  EXPECT_EQ(alu_eval(RcOp::kSsub, 5, 7), Word(-2));
  EXPECT_EQ(alu_eval(RcOp::kSmul, Word(-4), 3), Word(-12));
  EXPECT_EQ(alu_eval(RcOp::kSll, 1, 31), 0x80000000u);
  EXPECT_EQ(alu_eval(RcOp::kSrl, 0x80000000u, 31), 1u);
  EXPECT_EQ(alu_eval(RcOp::kSra, Word(-8), 2), Word(-2));
  EXPECT_EQ(alu_eval(RcOp::kLand, 0xF0F0u, 0xFF00u), 0xF000u);
  EXPECT_EQ(alu_eval(RcOp::kLxor, 0xFFFFu, 0x0F0Fu), 0xF0F0u);
  EXPECT_EQ(alu_eval(RcOp::kLnot, 0u, 0), 0xFFFFFFFFu);
  EXPECT_EQ(alu_eval(RcOp::kCmpLt, Word(-1), 0), 1u);
  EXPECT_EQ(alu_eval(RcOp::kCmpLe, 3, 3), 1u);
  EXPECT_EQ(alu_eval(RcOp::kMax, Word(-5), 2), 2u);
  EXPECT_EQ(alu_eval(RcOp::kMin, Word(-5), 2), Word(-5));
  EXPECT_EQ(alu_eval(RcOp::kAbs, Word(-7), 0), 7u);
  EXPECT_EQ(alu_eval(RcOp::kAbs, 0x80000000u, 0), 0x7FFFFFFFu);
}

TEST(Alu, FixedPointMultiplyDropsSixteenBits) {
  // (a*b) >> 16 on the 64-bit product (paper Sec 3.1).
  const std::int32_t a = fx::to_q16_15(1.5);     // data 16.15
  const std::int32_t w = fx::to_coeff(0.5);      // coefficient q.16
  const Word r = alu_eval(isa::RcOp::kFxpMul, static_cast<Word>(a),
                          static_cast<Word>(w));
  EXPECT_EQ(static_cast<std::int32_t>(r), fx::to_q16_15(0.75));
}

TEST(Alu, MulWrapsLow32) {
  EXPECT_EQ(alu_eval(isa::RcOp::kSmul, 0x10000u, 0x10000u), 0u);
}

TEST(Alu, Simd16TwoLanes) {
  const Word a = (5u << 16) | 0xFFFEu;  // lanes: hi=5, lo=-2
  const Word b = (3u << 16) | 0x0004u;
  const Word s = alu_eval_simd16(isa::RcOp::kSadd, a, b);
  EXPECT_EQ(s >> 16, 8u);
  EXPECT_EQ(static_cast<std::int16_t>(s & 0xFFFF), 2);
}

// --- shuffle unit --------------------------------------------------------------

class ShuffleModes : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShuffleModes, SourceIndexIsWithinConcat) {
  const auto mode = static_cast<isa::ShufMode>(GetParam());
  for (unsigned i = 0; i < 128; ++i) {
    EXPECT_LT(shuffle_source_index(mode, i), 256u);
  }
}

TEST_P(ShuffleModes, MatchesIndexMap) {
  const auto mode = static_cast<isa::ShufMode>(GetParam());
  Rng rng(GetParam());
  VwrRow a, b;
  for (auto& v : a) v = rng.next_u32();
  for (auto& v : b) v = rng.next_u32();
  const VwrRow out = shuffle_eval(mode, a, b);
  for (unsigned i = 0; i < 128; ++i) {
    const unsigned s = shuffle_source_index(mode, i);
    EXPECT_EQ(out[i], s < 128 ? a[s] : b[s - 128]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ShuffleModes, ::testing::Range(0u, 8u));

TEST(Shuffle, InterleaveHalvesArePermutation) {
  VwrRow a, b;
  for (unsigned i = 0; i < 128; ++i) {
    a[i] = i;
    b[i] = 128 + i;
  }
  const VwrRow lo = shuffle_eval(isa::ShufMode::kInterleaveLo, a, b);
  const VwrRow hi = shuffle_eval(isa::ShufMode::kInterleaveHi, a, b);
  std::array<bool, 256> seen{};
  for (unsigned i = 0; i < 128; ++i) {
    seen[lo[i]] = true;
    seen[hi[i]] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
  EXPECT_EQ(lo[0], 0u);
  EXPECT_EQ(lo[1], 128u);  // A0, B0, A1, B1, ...
}

TEST(Shuffle, EvenOddPruneComplement) {
  VwrRow a, b;
  for (unsigned i = 0; i < 128; ++i) {
    a[i] = i;
    b[i] = 1000 + i;
  }
  const VwrRow ev = shuffle_eval(isa::ShufMode::kEvenPrune, a, b);
  const VwrRow od = shuffle_eval(isa::ShufMode::kOddPrune, a, b);
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(ev[i], 2 * i);
    EXPECT_EQ(od[i], 2 * i + 1);
    EXPECT_EQ(ev[64 + i], 1000 + 2 * i);
    EXPECT_EQ(od[64 + i], 1000 + 2 * i + 1);
  }
}

TEST(Shuffle, CircularShiftMovesUpper32Down) {
  VwrRow a, b;
  for (unsigned i = 0; i < 128; ++i) {
    a[i] = i;
    b[i] = 128 + i;
  }
  const VwrRow lo = shuffle_eval(isa::ShufMode::kCircShiftLo, a, b);
  EXPECT_EQ(lo[0], 32u);    // concat shifted up by 32
  EXPECT_EQ(lo[95], 127u);
  EXPECT_EQ(lo[96], 128u);  // wraps into B
}

TEST(Shuffle, BitRevIsInvolutionOverConcat) {
  VwrRow a, b;
  Rng rng(3);
  for (auto& v : a) v = rng.next_u32();
  for (auto& v : b) v = rng.next_u32();
  const VwrRow lo = shuffle_eval(isa::ShufMode::kBitRevLo, a, b);
  const VwrRow hi = shuffle_eval(isa::ShufMode::kBitRevHi, a, b);
  // Applying bitrev twice restores the concatenation.
  const VwrRow lo2 = shuffle_eval(isa::ShufMode::kBitRevLo, lo, hi);
  const VwrRow hi2 = shuffle_eval(isa::ShufMode::kBitRevHi, lo, hi);
  EXPECT_EQ(lo2, a);
  EXPECT_EQ(hi2, b);
}

// --- column semantics ------------------------------------------------------------

TEST(Column, NeighbourReadsArePreviousCycle) {
  // RC0 computes 7 in cycle 0; RC1 reads RCU (=RC0's out) in cycle 1.
  Rig rig;
  ProgramBuilder pb;
  pb.line().rc(0, rc_op(isa::RcOp::kSadd, isa::RcDst::kR0, isa::RcSrc::kImm,
                        isa::RcSrc::kZero, 0, 7)).emit();
  pb.line().rc(1, rc_mv(isa::RcDst::kR0, isa::RcSrc::kRcUp)).emit();
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  EXPECT_EQ(rig.acc.column(0).rc_state(0).rf[0], 7u);
  EXPECT_EQ(rig.acc.column(0).rc_state(1).rf[0], 7u);
}

TEST(Column, NeighbourWrapsAround) {
  Rig rig;
  ProgramBuilder pb;
  pb.line().rc(3, rc_op(isa::RcOp::kSadd, isa::RcDst::kR0, isa::RcSrc::kImm,
                        isa::RcSrc::kZero, 0, 9)).emit();
  pb.line().rc(0, rc_mv(isa::RcDst::kR0, isa::RcSrc::kRcUp)).emit();  // RC0 up = RC3
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  EXPECT_EQ(rig.acc.column(0).rc_state(0).rf[0], 9u);
}

TEST(Column, MxcuIndexWrapsMod32) {
  Rig rig;
  ProgramBuilder pb;
  pb.line().mxcu(mxcu_set_idx(31)).emit();
  pb.line().mxcu(mxcu_add_idx(3)).emit();
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  EXPECT_EQ(rig.acc.column(0).mxcu_index(), 2u);  // (31 + 3) mod 32
}

TEST(Column, DbnzLoopsExactly) {
  Rig rig;
  ProgramBuilder pb;
  pb.line().lcu(lcu_set(0, 5)).emit();
  Label l = pb.make_label();
  pb.bind(l);
  pb.line().rc(0, rc_add(isa::RcDst::kR1, isa::RcSrc::kR1, isa::RcSrc::kOne))
      .lcu(lcu_dbnz(0), l).emit();
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  EXPECT_EQ(rig.acc.column(0).rc_state(0).rf[1], 5u);
}

TEST(Column, LsuPointerPostIncrement) {
  Rig rig;
  for (unsigned i = 0; i < 4; ++i) rig.acc.spm().poke(100 + 2 * i, 10 + i);
  ProgramBuilder pb;
  pb.line().lcu(lcu_set(0, 100)).emit();
  pb.line().lcu(lcu_st_srf(0, 0)).emit();          // SRF0 = 100
  pb.line().lsu(lsu_setptr(0, 0, 0)).emit();       // P0 = 100
  for (int k = 0; k < 4; ++k) {
    pb.line().lsu(lsu_ld_srf_ptr(1, 0, 2)).emit(); // SRF1 = [P0], P0 += 2
    pb.line().lcu(lcu_mv_srf(1, 1)).emit();
  }
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  EXPECT_EQ(rig.acc.column(0).lcu_reg(1), 13u);    // last loaded value
  EXPECT_EQ(rig.acc.column(0).lsu_ptr(0), 108u);
}

TEST(Column, SrfPortConflictThrows) {
  // Two RCs read different SRF entries in the same cycle: single port.
  Rig rig;
  ProgramBuilder pb;
  pb.line()
      .rc(0, rc_mv(isa::RcDst::kR0, isa::RcSrc::kSrf, 1))
      .rc(1, rc_mv(isa::RcDst::kR0, isa::RcSrc::kSrf, 2))
      .emit();
  pb.line().lcu(lcu_exit()).emit();
  EXPECT_THROW(rig.run(pb.build()), StructuralHazard);
}

TEST(Column, SrfBroadcastReadIsLegal) {
  // All four RCs reading the SAME SRF entry share the broadcast.
  Rig rig;
  rig.acc.host_write_srf(0, 3, 42);
  ProgramBuilder pb;
  pb.line().rc_all(rc_mv(isa::RcDst::kR0, isa::RcSrc::kSrf, 3)).emit();
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  for (unsigned r = 0; r < 4; ++r) {
    EXPECT_EQ(rig.acc.column(0).rc_state(r).rf[0], 42u);
  }
}

TEST(Column, VwrRowPlusWordWriteThrows) {
  // LSU row-loads VWR A while an RC writes a word of A: one write port.
  Rig rig;
  ProgramBuilder pb;
  pb.line()
      .lsu(lsu_ld_vwr(VwrSel::A, 0))
      .rc(0, rc_mv(isa::RcDst::kVwrA, isa::RcSrc::kOne))
      .emit();
  pb.line().lcu(lcu_exit()).emit();
  EXPECT_THROW(rig.run(pb.build()), StructuralHazard);
}

TEST(Column, RcSliceWritesAreDisjointAndLegal) {
  Rig rig;
  ProgramBuilder pb;
  pb.line().mxcu(mxcu_set_idx(4)).emit();
  pb.line().rc_all(rc_mv(isa::RcDst::kVwrB, isa::RcSrc::kOne)).emit();
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  for (unsigned r = 0; r < 4; ++r) {
    EXPECT_EQ(rig.acc.column(0).vwr(VwrSel::B).peek(r, 4), 1u);
  }
}

TEST(Column, MissingExitThrows) {
  Rig rig;
  ProgramBuilder pb;
  pb.line().rc(0, rc_mv(isa::RcDst::kR0, isa::RcSrc::kOne)).emit();
  EXPECT_THROW(rig.run(pb.build()), SimError);
}

TEST(Column, CrossColumnReadsNeedSyncedPartner) {
  Rig rig;
  ProgramBuilder pb;
  pb.line().rc(0, rc_mv(isa::RcDst::kR0, isa::RcSrc::kRcCross)).emit();
  pb.line().lcu(lcu_exit()).emit();
  EXPECT_THROW(rig.run(pb.build()), SimError);
}

TEST(Column, CrossColumnReadsWorkWhenSynced) {
  Rig rig;
  ProgramBuilder pb0;
  pb0.line().rc(2, rc_op(isa::RcOp::kSadd, isa::RcDst::kR0, isa::RcSrc::kImm,
                         isa::RcSrc::kZero, 0, 21)).emit();
  pb0.line().lcu(lcu_nop()).emit();
  pb0.line().lcu(lcu_exit()).emit();
  ProgramBuilder pb1;
  pb1.line().lcu(lcu_nop()).emit();
  pb1.line().rc(2, rc_mv(isa::RcDst::kR1, isa::RcSrc::kRcCross)).emit();
  pb1.line().lcu(lcu_exit()).emit();
  const unsigned id = rig.acc.register_kernel(
      make_kernel2("cross", pb0.build(), pb1.build()));
  rig.acc.run_kernel(id);
  EXPECT_EQ(rig.acc.column(1).rc_state(2).rf[1], 21u);
}

TEST(Column, OperandIsolationKeepsNopQuiet) {
  // A NOP-only program charges fetches but no ALU or register-file events.
  Rig rig;
  ProgramBuilder pb;
  pb.line().emit();
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  EXPECT_EQ(rig.acc.meter().count(energy::Event::kAluOp), 0u);
  EXPECT_EQ(rig.acc.meter().count(energy::Event::kRcRfRead), 0u);
  EXPECT_GT(rig.acc.meter().count(energy::Event::kInstrFetchRc), 0u);
}

TEST(Column, ConfigReloadOnlyWhenKernelChanges) {
  Rig rig;
  ProgramBuilder pb;
  pb.line().lcu(lcu_exit()).emit();
  const unsigned a = rig.acc.register_kernel(make_kernel("a", 0, pb.build()));
  const unsigned b = rig.acc.register_kernel(make_kernel("b", 0, pb.build()));
  rig.acc.run_kernel(a);
  const auto words_after_first = rig.acc.meter().count(energy::Event::kConfigWord);
  rig.acc.run_kernel(a);  // cached: no reload
  EXPECT_EQ(rig.acc.meter().count(energy::Event::kConfigWord), words_after_first);
  rig.acc.run_kernel(b);  // different kernel: reload
  EXPECT_GT(rig.acc.meter().count(energy::Event::kConfigWord), words_after_first);
}

TEST(Column, BranchTakesEffectNextCycle) {
  Rig rig;
  ProgramBuilder pb;
  Label skip = pb.make_label();
  pb.line().lcu(lcu_b(), skip).emit();
  pb.line().rc(0, rc_mv(isa::RcDst::kR0, isa::RcSrc::kOne)).emit();  // skipped
  pb.bind(skip);
  pb.line().lcu(lcu_exit()).emit();
  rig.run(pb.build());
  EXPECT_EQ(rig.acc.column(0).rc_state(0).rf[0], 0u);
}

// --- precise faults -------------------------------------------------------------
// A faulting line raises its documented error when it executes and changes
// nothing: column state, SPM data and row stamps, cycle count and meter
// counts are exactly what the previous line left. The trace engine falls
// back to the interpreter and surfaces the same error and state.

/// Everything a faulting line must leave untouched, flattened.
std::vector<std::uint64_t> observe(Vwr2a& acc) {
  std::vector<std::uint64_t> v;
  for (unsigned c = 0; c < arch::kNumColumns; ++c) {
    Column::Checkpoint ck;
    acc.column(c).save_state(ck);
    for (const auto& row : ck.vwr) v.insert(v.end(), row.begin(), row.end());
    v.insert(v.end(), ck.srf.begin(), ck.srf.end());
    for (const RcState& rc : ck.rcs) v.insert(v.end(), rc.rf.begin(), rc.rf.end());
    v.insert(v.end(), ck.rc_prev.begin(), ck.rc_prev.end());
    v.insert(v.end(), ck.lcu_rf.begin(), ck.lcu_rf.end());
    v.insert(v.end(), ck.lsu_ptr.begin(), ck.lsu_ptr.end());
    v.insert(v.end(), {ck.idx, static_cast<std::uint64_t>(ck.aux), ck.pc,
                       ck.running, ck.executed});
  }
  for (unsigned w = 0; w < arch::kSpmWords; ++w) v.push_back(acc.spm().peek(w));
  for (unsigned r = 0; r < arch::kSpmRows; ++r) v.push_back(acc.spm().row_version(r));
  v.push_back(acc.spm().write_gen());
  for (unsigned e = 0; e < static_cast<unsigned>(energy::Event::kCount); ++e) {
    v.push_back(acc.meter().count(static_cast<energy::Event>(e)));
  }
  v.push_back(acc.cycles());
  return v;
}

/// Index of the first difference, or -1.
long first_diff(const std::vector<std::uint64_t>& a,
                const std::vector<std::uint64_t>& b) {
  if (a.size() != b.size()) return static_cast<long>(std::min(a.size(), b.size()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return static_cast<long>(i);
  }
  return -1;
}

/// Runs `fn`, expecting a SimError of exactly type Ex with message `what`.
template <class Ex, class Fn>
void expect_fault(Fn&& fn, const std::string& what, const std::string& ctx) {
  try {
    fn();
    ADD_FAILURE() << ctx << ": no fault";
  } catch (const SimError& e) {
    EXPECT_EQ(typeid(e), typeid(Ex)) << ctx << ": " << e.what();
    EXPECT_EQ(std::string(e.what()), what) << ctx;
  }
}

/// Steps `prog` (column 0) interpreted up to `fault_pc`, then checks the
/// line there faults with Ex/`what` and leaves everything unchanged; then
/// runs the same kernel on a trace-cache block and checks it ends in the
/// same error and state. `setup` prepares both blocks identically.
template <class Ex>
void expect_precise_fault(const isa::ColumnProgram& prog, unsigned fault_pc,
                          const std::string& what,
                          void (*setup)(Vwr2a&) = [](Vwr2a&) {}) {
  Rig ri;
  setup(ri.acc);
  const unsigned ki = ri.acc.register_kernel(make_kernel("f", 0, prog));
  ri.acc.start_kernel(ki);
  for (int guard = 0; ri.acc.column(0).pc() != fault_pc; ++guard) {
    ASSERT_LT(guard, 1000) << "never reached pc " << fault_pc;
    ri.acc.step();
  }
  const std::vector<std::uint64_t> before = observe(ri.acc);
  expect_fault<Ex>([&] { ri.acc.step(); }, what, "interpreter");
  EXPECT_EQ(first_diff(before, observe(ri.acc)), -1)
      << "the faulting line changed state";
  ASSERT_TRUE(ri.acc.column(0).running());

  Rig rt;
  rt.acc.set_exec_mode(ExecMode::kTraceCache);
  setup(rt.acc);
  const unsigned kt = rt.acc.register_kernel(make_kernel("f", 0, prog));
  expect_fault<Ex>([&] { rt.acc.run_kernel(kt); }, what, "trace cache");
  EXPECT_EQ(first_diff(before, observe(rt.acc)), -1)
      << "the trace fallback ended in a different state";
}

/// A first line that changes column state and energy, so "unchanged"
/// below is measured against a non-trivial state.
void emit_prologue(ProgramBuilder& pb) {
  pb.line()
      .lcu(lcu_set(1, 9))
      .mxcu(mxcu_set_idx(3))
      .rc_all(rc_mv(isa::RcDst::kR0, isa::RcSrc::kImm, 0, 5))
      .emit();
}

TEST(PreciseFault, StaticPortHazards) {
  {
    ProgramBuilder pb;  // two SRF addresses
    emit_prologue(pb);
    pb.line()
        .lcu(lcu_add(1, 1))
        .rc(0, rc_mv(isa::RcDst::kR1, isa::RcSrc::kSrf, 1))
        .rc(1, rc_mv(isa::RcDst::kR1, isa::RcSrc::kSrf, 2))
        .emit();
    pb.line().lcu(lcu_exit()).emit();
    expect_precise_fault<StructuralHazard>(
        pb.build(), 1,
        "SRF: port conflict (single-ported, one address per cycle per column)");
  }
  {
    ProgramBuilder pb;  // SRF write beside a read of the same entry
    emit_prologue(pb);
    pb.line()
        .rc(0, rc_mv(isa::RcDst::kSrf, isa::RcSrc::kOne, 4))
        .rc(1, rc_mv(isa::RcDst::kR1, isa::RcSrc::kSrf, 4))
        .emit();
    pb.line().lcu(lcu_exit()).emit();
    expect_precise_fault<StructuralHazard>(
        pb.build(), 1,
        "SRF: port conflict (single-ported, one address per cycle per column)");
  }
  {
    ProgramBuilder pb;  // LSU row write and RC word write into VWR B
    emit_prologue(pb);
    pb.line()
        .lsu(lsu_ld_vwr(VwrSel::B, 2))
        .rc(2, rc_mv(isa::RcDst::kVwrB, isa::RcSrc::kOne))
        .emit();
    pb.line().lcu(lcu_exit()).emit();
    expect_precise_fault<StructuralHazard>(
        pb.build(), 1,
        "VWR B: row write and RC word write in one cycle (single write port)");
  }
}

TEST(PreciseFault, UndecodableField) {
  ProgramBuilder pb;
  emit_prologue(pb);
  pb.line().lcu(lcu_add(1, 1)).rc_all(rc_mv(isa::RcDst::kR1, isa::RcSrc::kOne)).emit();
  pb.line().lcu(lcu_exit()).emit();
  isa::ColumnProgram prog = pb.build();
  prog.patch(rc_slot(2), 1, 0xFFFFFFFFu);  // RC opcode field out of range
  expect_precise_fault<DecodeError>(prog, 1, "isa decode: bad field RC opcode");
}

TEST(PreciseFault, LsuAddressOutOfRange) {
  ProgramBuilder pb;
  emit_prologue(pb);
  pb.line().lsu(lsu_setptr(0, 0)).emit();  // P0 = SRF0 = 9000
  // Word 9000 is past the SPM; the post-increment must not land either.
  pb.line()
      .lsu(lsu_ld_srf_ptr(1, 0, 2))
      .lcu(lcu_add(1, 1))
      .rc_all(rc_mv(isa::RcDst::kR1, isa::RcSrc::kOne))
      .emit();
  pb.line().lcu(lcu_exit()).emit();
  expect_precise_fault<RangeError>(pb.build(), 2, "SPM: word out of range",
                                   [](Vwr2a& acc) { acc.host_write_srf(0, 0, 9000); });
}

TEST(PreciseFault, CrossOperandWithoutPartner) {
  ProgramBuilder pb;
  emit_prologue(pb);
  pb.line()
      .rc(0, rc_mv(isa::RcDst::kR1, isa::RcSrc::kOne))
      .rc(1, rc_mv(isa::RcDst::kR1, isa::RcSrc::kRcCross))
      .emit();
  pb.line().lcu(lcu_exit()).emit();
  expect_precise_fault<SimError>(
      pb.build(), 1,
      "RC: kRcCross operand used without a synchronized partner column");
}

TEST(PreciseFault, BranchPastEnd) {
  ProgramBuilder pb;
  emit_prologue(pb);
  isa::LcuInstr br = lcu_beq_imm(1, 9);  // taken: r1 == 9
  br.target = 40;                        // past the 3-line program
  pb.line().lcu(br).rc_all(rc_mv(isa::RcDst::kR1, isa::RcSrc::kOne)).emit();
  pb.line().lcu(lcu_exit()).emit();
  expect_precise_fault<SimError>(pb.build(), 1, "Column: branch past end of program");
}

} // namespace
} // namespace vwr2a::cgra
