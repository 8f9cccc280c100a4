// Trace-cache identity: ExecMode::kTraceCache must be indistinguishable
// from the interpreter -- bit-identical architectural state, exactly equal
// cycle counts, exactly equal per-event energy counts -- on every program
// that runs, and must surface the same documented faults on every program
// that does not. The random-program differential fuzz is the strongest pin:
// any divergence between compile_trace()/replay and Column::step() shows up
// as a state or meter mismatch.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "artifact/builder.hpp"
#include "bus/ahb.hpp"
#include "casm/builder.hpp"
#include "casm/factories.hpp"
#include "cgra/alu.hpp"
#include "cgra/tracecache.hpp"
#include "cgra/vwr2a.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "isa/image_cache.hpp"
#include "energy/meter.hpp"
#include "mem/sram.hpp"
#include "runtime/device.hpp"
#include "soc/platform.hpp"

namespace vwr2a {
namespace {

using namespace casm;
using cgra::ExecMode;

/// A standalone VWR2A rig with a selectable execution engine.
struct Rig {
  energy::EnergyMeter sys_meter;
  mem::SystemSram sram{sys_meter};
  bus::AhbBus ahb{sram, sys_meter};
  cgra::Vwr2a acc{ahb};

  explicit Rig(ExecMode mode) { acc.set_exec_mode(mode, "test"); }

  /// Seeds SPM, SRFs, VWRs and LCU-visible SRF params deterministically.
  void seed(Rng rng) {
    for (unsigned w = 0; w < arch::kSpmWords; ++w) {
      acc.spm().poke(w, rng.next_u32());
    }
    for (unsigned c = 0; c < arch::kNumColumns; ++c) {
      for (unsigned i = 0; i < arch::kSrfEntries; ++i) {
        acc.column(c).srf().poke(i, rng.next_below(1u << 16));
      }
      for (unsigned v = 0; v < arch::kVwrsPerColumn; ++v) {
        for (unsigned s = 0; s < arch::kRcsPerColumn; ++s) {
          for (unsigned i = 0; i < arch::kSliceWords; ++i) {
            acc.column(c).vwr(static_cast<VwrSel>(v)).poke(s, i, rng.next_u32());
          }
        }
      }
    }
  }
};

/// Full observable-state comparison of the two rigs.
void expect_identical(Rig& a, Rig& b, const std::string& what) {
  EXPECT_EQ(a.acc.cycles(), b.acc.cycles()) << what;
  for (unsigned e = 0; e < static_cast<unsigned>(energy::Event::kCount); ++e) {
    EXPECT_EQ(a.acc.meter().count(static_cast<energy::Event>(e)),
              b.acc.meter().count(static_cast<energy::Event>(e)))
        << what << " event " << energy::to_string(static_cast<energy::Event>(e));
  }
  EXPECT_EQ(a.acc.meter().total_pj(), b.acc.meter().total_pj()) << what;
  for (unsigned w = 0; w < arch::kSpmWords; ++w) {
    ASSERT_EQ(a.acc.spm().peek(w), b.acc.spm().peek(w))
        << what << " SPM word " << w;
  }
  for (unsigned c = 0; c < arch::kNumColumns; ++c) {
    const cgra::Column& ca = a.acc.column(c);
    const cgra::Column& cb = b.acc.column(c);
    for (unsigned i = 0; i < arch::kSrfEntries; ++i) {
      ASSERT_EQ(ca.srf().peek(i), cb.srf().peek(i))
          << what << " col " << c << " SRF " << i;
    }
    for (unsigned v = 0; v < arch::kVwrsPerColumn; ++v) {
      for (unsigned s = 0; s < arch::kRcsPerColumn; ++s) {
        for (unsigned i = 0; i < arch::kSliceWords; ++i) {
          ASSERT_EQ(ca.vwr(static_cast<VwrSel>(v)).peek(s, i),
                    cb.vwr(static_cast<VwrSel>(v)).peek(s, i))
              << what << " col " << c << " VWR " << v;
        }
      }
    }
    for (unsigned r = 0; r < arch::kLcuRegs; ++r) {
      ASSERT_EQ(ca.lcu_reg(r), cb.lcu_reg(r)) << what << " col " << c;
    }
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      ASSERT_EQ(ca.rc_state(r).rf, cb.rc_state(r).rf) << what << " col " << c;
      ASSERT_EQ(ca.rc_outputs()[r], cb.rc_outputs()[r]) << what << " col " << c;
    }
    ASSERT_EQ(ca.mxcu_index(), cb.mxcu_index()) << what;
    ASSERT_EQ(ca.executed_cycles(), cb.executed_cycles()) << what;
  }
}

// --- random-program differential fuzz ---------------------------------------

isa::RcInstr random_rc(Rng& rng) {
  isa::RcInstr i;
  i.op = static_cast<isa::RcOp>(
      rng.next_below(static_cast<unsigned>(isa::RcOp::kCount)));
  i.src_a = static_cast<isa::RcSrc>(
      rng.next_below(static_cast<unsigned>(isa::RcSrc::kCount)));
  i.src_b = static_cast<isa::RcSrc>(
      rng.next_below(static_cast<unsigned>(isa::RcSrc::kCount)));
  i.dst = static_cast<isa::RcDst>(
      rng.next_below(static_cast<unsigned>(isa::RcDst::kCount)));
  i.srf = static_cast<std::uint8_t>(rng.next_below(8));
  i.imm = static_cast<std::int8_t>(rng.next_u32());
  return i;
}

isa::LsuInstr random_lsu(Rng& rng) {
  isa::LsuInstr i;
  switch (rng.next_below(7)) {
    case 0: return i;  // nop
    case 1: return lsu_ld_vwr(static_cast<VwrSel>(rng.next_below(3)),
                              rng.next_below(arch::kSpmRows));
    case 2: return lsu_st_vwr(static_cast<VwrSel>(rng.next_below(3)),
                              rng.next_below(arch::kSpmRows));
    case 3: return lsu_ld_srf(static_cast<std::uint8_t>(rng.next_below(8)),
                              rng.next_below(arch::kSpmWords));
    case 4: return lsu_st_srf(static_cast<std::uint8_t>(rng.next_below(8)),
                              rng.next_below(arch::kSpmWords));
    case 5: return lsu_shuf(static_cast<isa::ShufMode>(rng.next_below(8)));
    default:
      // SRF-based addressing: data-dependent rows, range-checked at replay.
      return lsu_ld_vwr_srf(static_cast<VwrSel>(rng.next_below(3)),
                            static_cast<std::uint8_t>(rng.next_below(8)),
                            static_cast<int>(rng.next_below(8)));
  }
}

isa::MxcuInstr random_mxcu(Rng& rng) {
  isa::MxcuInstr i;
  i.op = static_cast<isa::MxcuOp>(
      rng.next_below(static_cast<unsigned>(isa::MxcuOp::kCount)));
  i.srf = static_cast<std::uint8_t>(rng.next_below(8));
  i.imm = static_cast<std::int16_t>(static_cast<int>(rng.next_below(128)) - 64);
  return i;
}

/// Random LCU op at line `pc` of `len` lines (line 0 is a prologue that
/// seeds r3 with a small trip count). Register-writing ops stay off r3 and
/// at most one DBNZ (always on r3, always backward) is emitted per program,
/// so every generated program terminates in both engines.
isa::LcuInstr random_lcu(Rng& rng, unsigned pc, unsigned len, bool& used_dbnz) {
  isa::LcuInstr i;
  switch (rng.next_below(8)) {
    case 0:
      return lcu_nop();
    case 1:
      return lcu_set(static_cast<std::uint8_t>(rng.next_below(3)),
                     static_cast<int>(rng.next_below(64)) - 32);
    case 2:
      return lcu_add(static_cast<std::uint8_t>(rng.next_below(3)),
                     static_cast<int>(rng.next_below(16)) - 8);
    case 3:
      i.op = isa::LcuOp::kMvSrf;
      i.rd = static_cast<std::uint8_t>(rng.next_below(3));
      i.srf = static_cast<std::uint8_t>(rng.next_below(8));
      return i;
    case 4:
      i.op = isa::LcuOp::kStSrf;
      i.ra = static_cast<std::uint8_t>(rng.next_below(4));
      i.srf = static_cast<std::uint8_t>(rng.next_below(8));
      return i;
    case 5: {  // forward conditional skip
      i.op = static_cast<isa::LcuOp>(
          static_cast<unsigned>(isa::LcuOp::kBeq) + rng.next_below(8));
      i.ra = static_cast<std::uint8_t>(rng.next_below(4));
      i.rb = static_cast<std::uint8_t>(rng.next_below(4));
      i.imm = static_cast<std::int16_t>(static_cast<int>(rng.next_below(8)) - 4);
      i.target = static_cast<std::uint8_t>(
          pc + 1 + rng.next_below(len + 1 - pc));  // (pc, len+1] incl. EXIT
      return i;
    }
    case 6: {  // SRF zero test, forward
      i.op = rng.next_below(2) ? isa::LcuOp::kBsrfZ : isa::LcuOp::kBsrfNz;
      i.srf = static_cast<std::uint8_t>(rng.next_below(8));
      i.target =
          static_cast<std::uint8_t>(pc + 1 + rng.next_below(len + 1 - pc));
      return i;
    }
    default: {  // tight backward DBNZ loop over the previous line
      if (used_dbnz || pc < 2) return lcu_nop();
      used_dbnz = true;
      i.op = isa::LcuOp::kDbnz;
      i.rd = 3;  // seeded by the prologue, untouched elsewhere
      i.target = static_cast<std::uint8_t>(pc - 1);
      return i;
    }
  }
}

/// One random VLIW program, terminating by construction (bounded DBNZ,
/// forward-only conditional skips). The RC source space includes kRcCross
/// and the LSU rows span the whole SPM, so two-column trials exercise the
/// lockstep (cross-operand) tier, the sync schedule (static overlaps) and
/// the post-hoc dynamic masks alike.
isa::ColumnProgram random_program(Rng& rng, unsigned len) {
  ProgramBuilder pb;
  // Prologue: bound every DBNZ trip count.
  pb.line().lcu(lcu_set(3, 1 + static_cast<int>(rng.next_below(4)))).emit();
  bool used_dbnz = false;
  for (unsigned l = 1; l <= len; ++l) {
    auto line = pb.line();
    if (rng.next_below(2)) line.lsu(random_lsu(rng));
    if (rng.next_below(2)) line.mxcu(random_mxcu(rng));
    if (rng.next_below(2)) line.lcu(random_lcu(rng, l, len, used_dbnz));
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      if (rng.next_below(2)) line.rc(r, random_rc(rng));
    }
    line.emit();
  }
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

TEST(TraceCacheFuzz, RandomProgramsBitCycleEnergyIdentical) {
  Rng rng(0x7AC3);
  unsigned completed = 0, faulted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t data_seed = rng.next_u64();
    const isa::ColumnProgram prog = random_program(rng, 2 + rng.next_below(12));
    // Two-column trials exercise the decoupled replay + conflict detector;
    // single-column trials the plain block replay.
    const bool two_cols = rng.next_below(2) == 1;
    const isa::KernelImage img =
        two_cols ? make_kernel2("fuzz2", prog, prog) : make_kernel("fuzz", 0, prog);

    Rig ri(ExecMode::kInterpret);
    Rig rt(ExecMode::kTraceCache);
    ri.seed(Rng(data_seed));
    rt.seed(Rng(data_seed));
    // Bound every DBNZ: r3 holds a small count (host-style SRF write would
    // disturb state symmetrically anyway; poke is free and identical).
    for (unsigned c = 0; c < arch::kNumColumns; ++c) {
      ri.acc.column(c).srf().poke(3, 3);
      rt.acc.column(c).srf().poke(3, 3);
    }

    const unsigned ki = ri.acc.register_kernel(img);
    const unsigned kt = rt.acc.register_kernel(img);
    // Runs one launch; returns 0 (clean), 1 (hazard) or 2 (other fault).
    auto launch = [](Rig& rig, unsigned kid, std::string& err) {
      try {
        rig.acc.run_kernel(kid);
      } catch (const StructuralHazard& e) {
        err = e.what();
        return 1;
      } catch (const SimError& e) {
        err = e.what();
        return 2;
      }
      return 0;
    };
    std::string err_i, err_t;
    const int outcome_i = launch(ri, ki, err_i);
    const int outcome_t = launch(rt, kt, err_t);
    ASSERT_EQ(outcome_i, outcome_t) << "trial " << trial << ": interpreter '"
                                    << err_i << "' vs trace '" << err_t << "'";
    ASSERT_EQ(err_i, err_t) << "trial " << trial;
    if (outcome_i == 0) {
      ++completed;
      expect_identical(ri, rt, "trial " + std::to_string(trial));
      if (::testing::Test::HasFatalFailure()) return;
      // Warm relaunch from the state the first launch left: the memoized
      // traces and sync plan must replay identically too (or fault alike).
      const int again_i = launch(ri, ki, err_i);
      const int again_t = launch(rt, kt, err_t);
      ASSERT_EQ(again_i, again_t) << "trial " << trial << " relaunch";
      ASSERT_EQ(err_i, err_t) << "trial " << trial << " relaunch";
      expect_identical(ri, rt, "trial " + std::to_string(trial) + " relaunch");
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      ++faulted;
      // Faulting replays fall back to the interpreter, so even the partial
      // state and partial energy of the fault path match exactly.
      expect_identical(ri, rt, "faulted trial " + std::to_string(trial));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The generator must exercise both the clean path and the fault path
  // (dense random lines collide on the single-ported SRF frequently, so
  // faults dominate -- exactly the population that pins the fallback).
  EXPECT_GT(completed, 15u);
  EXPECT_GT(faulted, 100u);
}

// --- directed coverage -------------------------------------------------------

/// A kernel whose LCU trip count is data-dependent: the host parameter in
/// SRF0 feeds the DBNZ counter (fused self-loop replay must read it at
/// runtime, not bake it in).
isa::ColumnProgram counted_accumulate_program() {
  ProgramBuilder pb;
  pb.line().lcu(lcu_mv_srf(0, 0)).emit();  // r0 = SRF0 (trip count)
  pb.line().rc_all(rc_mv(isa::RcDst::kR0, isa::RcSrc::kZero)).emit();
  Label loop = pb.make_label();
  pb.bind(loop);
  pb.line()
      .rc_all(rc_add(isa::RcDst::kR0, isa::RcSrc::kR0, isa::RcSrc::kVwrA))
      .mxcu(mxcu_add_idx(1))
      .lcu(lcu_dbnz(0), loop)
      .emit();
  pb.line().rc_all(rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kR0)).emit();
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

TEST(TraceCache, DataDependentTripCountIsIdentical) {
  for (Word trips : {1u, 2u, 7u, 31u, 97u}) {
    Rig ri(ExecMode::kInterpret);
    Rig rt(ExecMode::kTraceCache);
    ri.seed(Rng(42));
    rt.seed(Rng(42));
    const isa::KernelImage img =
        make_kernel("counted", 0, counted_accumulate_program());
    const unsigned ki = ri.acc.register_kernel(img);
    const unsigned kt = rt.acc.register_kernel(img);
    ri.acc.host_write_srf(0, 0, trips);
    rt.acc.host_write_srf(0, 0, trips);
    const Cycle ci = ri.acc.run_kernel(ki);
    const Cycle ct = rt.acc.run_kernel(kt);
    EXPECT_EQ(ci, ct) << "trips " << trips;
    // Trip count must show in the cycle count (data dependence is real).
    EXPECT_GT(ci, static_cast<Cycle>(trips));
    expect_identical(ri, rt, "trips " + std::to_string(trips));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- fused hardware loops ----------------------------------------------------

/// One fused DBNZ self-loop over `body` (the last line carries the DBNZ),
/// entered with LCU r0 = `trips` and the slice index at `start`. The SRF
/// entry 3 the bodies read comes from the rig seed.
isa::ColumnProgram fused_loop_program(
    const std::vector<isa::RcInstr>& body,
    const std::vector<int>& steps, unsigned trips, unsigned start) {
  ProgramBuilder pb;
  pb.line()
      .lcu(lcu_set(0, static_cast<int>(trips)))
      .mxcu(mxcu_set_idx(static_cast<int>(start)))
      .emit();
  Label loop = pb.make_label();
  pb.bind(loop);
  for (std::size_t i = 0; i < body.size(); ++i) {
    auto line = pb.line().rc_all(body[i]);
    if (steps[i] != 0) line.mxcu(mxcu_add_idx(steps[i]));
    if (i + 1 == body.size()) line.lcu(lcu_dbnz(0), loop);
    line.emit();
  }
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

/// Runs `prog` on an interpreter rig and a trace rig seeded alike and
/// checks full state, cycle and per-event identity. SRF entry 5 holds an
/// in-range SPM word address for pointer-mode loads.
void expect_fused_identical(const isa::ColumnProgram& prog,
                            const std::string& what) {
  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  for (Rig* r : {&ri, &rt}) {
    r->seed(Rng(0xF05E));
    r->acc.column(0).srf().poke(5, 100);
  }
  const isa::KernelImage img = make_kernel("fused", 0, prog);
  const Cycle ci = ri.acc.run_kernel(ri.acc.register_kernel(img));
  const Cycle ct = rt.acc.run_kernel(rt.acc.register_kernel(img));
  ASSERT_EQ(ci, ct) << what;
  ASSERT_EQ(rt.acc.interpreted_cycles(), 0u) << what << ": not replayed";
  expect_identical(ri, rt, what);
}

/// Every RC opcode as a single-line quad-fast DBNZ body: second operand
/// from a VWR row, an immediate or the SRF (or none, for unary ops), first
/// operand from a row or a register, results to a fresh row, to the source
/// row itself or to a register, with index steps 0, +1 and -1. The
/// (start, trips) pairs cover a full slice, wrap-around in both
/// directions, more trips than slice words, and a single trip.
TEST(TraceCacheFused, SingleLineQuadBodiesMatchInterpreter) {
  using isa::RcDst;
  using isa::RcOp;
  using isa::RcSrc;
  const std::pair<unsigned, unsigned> walks[] = {
      {0, 32}, {29, 7}, {2, 7}, {3, 40}, {5, 1}};
  unsigned kernels = 0;
  for (unsigned o = 1; o < static_cast<unsigned>(RcOp::kCount); ++o) {
    const RcOp op = static_cast<RcOp>(o);
    const bool unary = cgra::alu_is_unary(op);
    for (RcSrc a : {RcSrc::kVwrA, RcSrc::kR0}) {
      for (RcSrc b : {RcSrc::kVwrC, RcSrc::kImm, RcSrc::kSrf}) {
        if (unary && b != RcSrc::kVwrC) continue;
        for (RcDst d : {RcDst::kVwrC, RcDst::kVwrA, RcDst::kR0}) {
          const isa::RcInstr rc = rc_op(op, d, a, b, /*srf=*/3, /*imm=*/-5);
          for (int step : {0, 1, -1}) {
            for (const auto& [start, trips] : walks) {
              const isa::ColumnProgram prog =
                  fused_loop_program({rc}, {step}, trips, start);
              // The body must be what the fused quad path replays.
              const auto trace = cgra::compile_trace(prog);
              ASSERT_TRUE(trace->ok);
              ASSERT_TRUE(trace->blocks[1].fuse_self_loop);
              ASSERT_EQ(trace->lines[1].kind, cgra::tc::Line::Kind::kQuadFast);
              expect_fused_identical(
                  prog, "op " + std::to_string(o) + " a " +
                            std::to_string(static_cast<int>(a)) + " b " +
                            std::to_string(static_cast<int>(b)) + " d " +
                            std::to_string(static_cast<int>(d)) + " step " +
                            std::to_string(step) + " start " +
                            std::to_string(start) + " trips " +
                            std::to_string(trips));
              if (::testing::Test::HasFatalFailure()) return;
              ++kernels;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(kernels, 2000u);
}

/// Multi-line bodies: register temporaries written before they are read
/// (the FFT butterfly shape), a register accumulated across iterations
/// (the reduction shape), a step on a line other than the last, a
/// result-less line, and bodies mixing quad lines with generic lines that
/// rewrite the SRF the quad lines read or read the neighbour results the
/// quad lines leave behind.
TEST(TraceCacheFused, MultiLineBodiesMatchInterpreter) {
  using isa::RcDst;
  using isa::RcOp;
  using isa::RcSrc;
  struct Body {
    const char* name;
    std::vector<isa::RcInstr> rc;
    std::vector<int> steps;  ///< per line; the last one usually walks
  };
  const std::vector<Body> bodies = {
      {"butterfly temporaries",
       {rc_add(RcDst::kR0, RcSrc::kVwrA, RcSrc::kVwrB),
        rc_sra(RcDst::kVwrC, RcSrc::kR0, RcSrc::kOne),
        rc_sub(RcDst::kR1, RcSrc::kVwrB, RcSrc::kVwrA),
        rc_sra(RcDst::kVwrA, RcSrc::kR1, RcSrc::kOne)},
       {0, 0, 0, 1}},
      {"in-place pair",
       {rc_add(RcDst::kVwrC, RcSrc::kVwrA, RcSrc::kVwrB),
        rc_sub(RcDst::kVwrA, RcSrc::kVwrA, RcSrc::kVwrB)},
       {0, 1}},
      {"accumulator",
       {rc_fxpmul(RcDst::kR0, RcSrc::kVwrA, RcSrc::kVwrA),
        rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kR0)},
       {0, 1}},
      {"register read before written",
       {rc_add(RcDst::kVwrC, RcSrc::kR0, RcSrc::kVwrA),
        rc_mv(RcDst::kR0, RcSrc::kVwrB)},
       {0, -1}},
      {"invariant register and SRF",
       {rc_fxpmul(RcDst::kVwrC, RcSrc::kR1, RcSrc::kVwrA),
        rc_op(RcOp::kMax, RcDst::kVwrB, RcSrc::kVwrC, RcSrc::kSrf, 3)},
       {0, 1}},
      {"result-less line",
       {rc_op(RcOp::kCmpLt, RcDst::kNone, RcSrc::kVwrA, RcSrc::kVwrB),
        rc_add(RcDst::kVwrC, RcSrc::kVwrA, RcSrc::kImm, 0, 7)},
       {0, 1}},
      {"step on an inner line",
       {rc_add(RcDst::kVwrC, RcSrc::kVwrA, RcSrc::kVwrB),
        rc_sub(RcDst::kVwrB, RcSrc::kVwrC, RcSrc::kVwrA)},
       {1, 0}},
  };
  for (const Body& body : bodies) {
    for (int walk : {1, -1}) {
      std::vector<int> steps = body.steps;
      for (int& st : steps) st *= walk;
      for (const auto& [start, trips] :
           {std::pair<unsigned, unsigned>{0, 32}, {27, 9}, {4, 9}, {6, 45}}) {
        expect_fused_identical(
            fused_loop_program(body.rc, steps, trips, start),
            std::string(body.name) + " walk " + std::to_string(walk) +
                " start " + std::to_string(start) + " trips " +
                std::to_string(trips));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  // Mixed bodies: quad lines that load the SRF entry another quad line
  // reads (the FIR multiply-accumulate shape), by immediate and by
  // post-incremented pointer, and generic lines between quad lines.
  enum class Middle { kLoadImm, kLoadPtr, kNeighbour };
  auto mixed = [](Middle middle) {
    ProgramBuilder pb;
    pb.line()
        .lcu(lcu_set(0, 11))
        .mxcu(mxcu_set_idx(30))
        .lsu(lsu_setptr(0, /*base srf=*/5))
        .emit();
    Label loop = pb.make_label();
    pb.bind(loop);
    pb.line()
        .rc_all(rc_fxpmul(RcDst::kR0, RcSrc::kVwrA, RcSrc::kSrf, 3))
        .mxcu(mxcu_add_idx(1))
        .emit();
    switch (middle) {
      case Middle::kLoadImm:
        pb.line()
            .rc_all(rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kR0))
            .lsu(lsu_ld_srf(3, 77))
            .emit();
        break;
      case Middle::kLoadPtr:
        pb.line()
            .rc_all(rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kR0))
            .lsu(lsu_ld_srf_ptr(3, 0, /*stride=*/3))
            .emit();
        break;
      case Middle::kNeighbour:
        // Generic: neighbour results are lane-crossing, never quad-fast.
        pb.line().rc_all(rc_add(RcDst::kR1, RcSrc::kRcUp, RcSrc::kR0)).emit();
        break;
    }
    pb.line()
        .rc_all(rc_add(RcDst::kVwrC, RcSrc::kR1, RcSrc::kVwrB))
        .mxcu(mxcu_add_idx(-2))
        .lcu(lcu_dbnz(0), loop)
        .emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  {
    // A one-line body with a load rides the per-line loop, not the
    // one-line fast path.
    ProgramBuilder pb;
    pb.line().lcu(lcu_set(0, 9)).lsu(lsu_setptr(0, /*base srf=*/5)).emit();
    Label loop = pb.make_label();
    pb.bind(loop);
    pb.line()
        .rc_all(rc_add(RcDst::kVwrC, RcSrc::kVwrA, RcSrc::kR1))
        .lsu(lsu_ld_srf_ptr(3, 0, /*stride=*/3))
        .mxcu(mxcu_add_idx(1))
        .lcu(lcu_dbnz(0), loop)
        .emit();
    pb.line().lcu(lcu_exit()).emit();
    expect_fused_identical(pb.build(), "one-line body with an SRF load");
  }
  expect_fused_identical(mixed(Middle::kLoadImm), "mixed, SRF load by imm");
  expect_fused_identical(mixed(Middle::kLoadPtr), "mixed, SRF load by ptr");
  expect_fused_identical(mixed(Middle::kNeighbour), "mixed, neighbour reader");
}

// --- loop-plan map shapes ----------------------------------------------------

/// Serves freshly compiled traces with every loop plan removed, so a rig
/// replays each fused loop line by line: the reference for the SPM access
/// masks, which the interpreter does not record.
class PlanlessTraces : public cgra::TraceSource {
 public:
  std::shared_ptr<const cgra::CompiledTrace> load_trace(
      const std::string&, const isa::ColumnProgram& prog) override {
    auto t = std::make_shared<cgra::CompiledTrace>(*cgra::compile_trace(prog));
    for (cgra::tc::Block& b : t->blocks) b.plan = {};
    return t;
  }
};

/// The loop plan compile_trace gives the self-loop of a program built by
/// map_loop_program (block 1).
const cgra::tc::LoopPlan& body_plan(
    const std::shared_ptr<const cgra::CompiledTrace>& trace) {
  EXPECT_TRUE(trace->ok) << trace->bail_reason;
  EXPECT_TRUE(trace->blocks.at(1).fuse_self_loop);
  return trace->blocks.at(1).plan;
}

/// One line of a map-shape body: a quad RC op, an index step, and an
/// optional kImm SRF load (entry, SPM word).
struct MapBodyLine {
  isa::RcInstr rc;
  int step = 0;
  int load_srf = -1;
  unsigned load_word = 0;
};

/// A fused self-loop over `body`, entered with LCU r0 = `trips` and the
/// slice index at `start`.
isa::ColumnProgram map_loop_program(const std::vector<MapBodyLine>& body,
                                    unsigned trips, unsigned start) {
  ProgramBuilder pb;
  pb.line()
      .lcu(lcu_set(0, static_cast<int>(trips)))
      .mxcu(mxcu_set_idx(static_cast<int>(start)))
      .emit();
  Label loop = pb.make_label();
  pb.bind(loop);
  for (std::size_t i = 0; i < body.size(); ++i) {
    auto line = pb.line().rc_all(body[i].rc);
    if (body[i].step != 0) line.mxcu(mxcu_add_idx(body[i].step));
    if (body[i].load_srf >= 0) {
      line.lsu(lsu_ld_srf(static_cast<std::uint8_t>(body[i].load_srf),
                          body[i].load_word));
    }
    if (i + 1 == body.size()) line.lcu(lcu_dbnz(0), loop);
    line.emit();
  }
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

/// Runs `prog` on an interpreter rig, a trace rig and a trace rig without
/// loop plans, all seeded alike; when `match_entry` is set, each SRF entry
/// the body loads starts out holding the word its last load reads. Checks
/// registers, VWRs, SRF, SPM data and row stamps, meters and cycles
/// against the interpreter, and the replay's SPM access masks against the
/// line-by-line replay.
void expect_map_identical(const isa::ColumnProgram& prog,
                          const std::vector<MapBodyLine>& body,
                          bool match_entry, const std::string& what) {
  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  Rig rl(ExecMode::kTraceCache);
  PlanlessTraces planless;
  rl.acc.trace_cache().set_source(&planless);
  for (Rig* r : {&ri, &rt, &rl}) {
    r->seed(Rng(0x3A9));
    if (!match_entry) continue;
    for (const MapBodyLine& l : body) {
      if (l.load_srf < 0) continue;
      r->acc.column(0).srf().poke(static_cast<unsigned>(l.load_srf),
                                  r->acc.spm().peek(l.load_word));
    }
  }
  const isa::KernelImage img = make_kernel("map", 0, prog);
  const Cycle ci = ri.acc.run_kernel(ri.acc.register_kernel(img));
  const Cycle ct = rt.acc.run_kernel(rt.acc.register_kernel(img));
  const Cycle cl = rl.acc.run_kernel(rl.acc.register_kernel(img));
  ASSERT_EQ(ci, ct) << what;
  ASSERT_EQ(ci, cl) << what;
  ASSERT_EQ(rt.acc.interpreted_cycles(), 0u) << what << ": not replayed";
  expect_identical(ri, rt, what);
  for (unsigned row = 0; row < arch::kSpmRows; ++row) {
    ASSERT_EQ(ri.acc.spm().row_version(row), rt.acc.spm().row_version(row))
        << what << " SPM row stamp " << row;
  }
  const cgra::Column& ct0 = rt.acc.column(0);
  const cgra::Column& cl0 = rl.acc.column(0);
  EXPECT_EQ(ct0.spm_read_mask(), cl0.spm_read_mask()) << what;
  EXPECT_EQ(ct0.spm_write_mask(), cl0.spm_write_mask()) << what;
}

/// Random bodies in the shapes the loop plans widen: per-line index
/// offsets (rows read and written at one offset or at several), register
/// accumulators (sole reader and writer, or read by another line too) and
/// ride-along SRF loads whose entry value matches the loaded word or not,
/// at trip counts 1, 31, 32 and 33 (33 never maps: more iterations than
/// slice words). Every body must replay exactly like the interpreter,
/// mapped or not; the counts show each shape was generated both ways.
TEST(TraceCacheFused, RandomMapBodiesMatchInterpreter) {
  using isa::RcDst;
  using isa::RcOp;
  using isa::RcSrc;
  const RcSrc srcs[] = {RcSrc::kVwrA, RcSrc::kVwrB, RcSrc::kVwrC,
                        RcSrc::kR0,   RcSrc::kR1,   RcSrc::kSrf,
                        RcSrc::kImm,  RcSrc::kOne};
  const RcDst dsts[] = {RcDst::kVwrA, RcDst::kVwrB, RcDst::kVwrC,
                        RcDst::kR0,   RcDst::kR1,   RcDst::kNone};
  Rng rng(0x10097);
  std::map<std::string, unsigned> seen;
  for (int trial = 0; trial < 600; ++trial) {
    const unsigned len = 1 + rng.next_below(5);
    std::vector<MapBodyLine> body(len);
    int net = 0;
    for (MapBodyLine& l : body) {
      const RcOp op = static_cast<RcOp>(
          1 + rng.next_below(static_cast<unsigned>(RcOp::kCount) - 1));
      l.rc = rc_op(op, dsts[rng.next_below(6)], srcs[rng.next_below(8)],
                   srcs[rng.next_below(8)],
                   static_cast<std::uint8_t>(rng.next_below(2)),
                   static_cast<std::int8_t>(rng.next_u32()));
      l.step = static_cast<int>(rng.next_below(4)) - 1;  // -1..2
      net += l.step;
      if (rng.next_below(3) == 0) {
        // The load holds the SRF port: its line reads no SRF entry.
        l.load_srf = static_cast<int>(rng.next_below(2));
        l.load_word = rng.next_below(arch::kSpmWords);
        if (l.rc.src_a == RcSrc::kSrf) l.rc.src_a = RcSrc::kVwrA;
        if (l.rc.src_b == RcSrc::kSrf) l.rc.src_b = RcSrc::kVwrB;
      }
    }
    if (len >= 2 && rng.next_below(3) == 0) {
      // The FIR rotation: the first line reads an entry the last reloads.
      const int e = static_cast<int>(rng.next_below(2));
      body.front().rc.src_b = RcSrc::kSrf;
      body.front().rc.srf = static_cast<std::uint8_t>(e);
      body.front().load_srf = -1;
      MapBodyLine& last = body.back();
      last.load_srf = e;
      last.load_word = rng.next_below(arch::kSpmWords);
      if (last.rc.src_a == RcSrc::kSrf) last.rc.src_a = RcSrc::kVwrA;
      if (last.rc.src_b == RcSrc::kSrf) last.rc.src_b = RcSrc::kVwrB;
    }
    if (rng.next_below(3) != 0) {
      // An accumulator line R = R + x (or x + R).
      MapBodyLine& l = body[rng.next_below(len)];
      const RcDst r = rng.next_below(2) ? RcDst::kR0 : RcDst::kR1;
      const RcSrc rs = r == RcDst::kR0 ? RcSrc::kR0 : RcSrc::kR1;
      RcSrc x = srcs[rng.next_below(8)];
      if (x == rs || (l.load_srf >= 0 && x == RcSrc::kSrf)) x = RcSrc::kVwrB;
      l.rc = rng.next_below(2) ? rc_add(r, rs, x, l.rc.srf, l.rc.imm)
                               : rc_add(r, x, rs, l.rc.srf, l.rc.imm);
    }
    // Mostly a net walk of +-1 (the mappable one), sometimes not.
    if (rng.next_below(6) != 0) {
      body.back().step += (rng.next_below(2) ? 1 : -1) - net;
    }
    const unsigned trips = std::array<unsigned, 4>{1, 31, 32, 33}[trial % 4];
    const unsigned start = rng.next_below(arch::kSliceWords);
    const bool match_entry = rng.next_below(2) == 0;
    const isa::ColumnProgram prog = map_loop_program(body, trips, start);
    const auto trace = cgra::compile_trace(prog);
    if (!trace->ok) continue;  // e.g. a port hazard the generator built
    const cgra::tc::LoopPlan& plan = body_plan(trace);
    const bool mapped = !plan.lines.empty();
    const std::string how = mapped && trips <= arch::kSliceWords ? "mapped"
                                                                 : "lines";
    bool offsets = false, fold = false;
    for (const cgra::tc::MapLine& m : plan.lines) {
      offsets = offsets || m.off != plan.lines.front().off;
      fold = fold || m.d.k == cgra::tc::MapRef::K::kReg;
    }
    ++seen[how];
    if (offsets) ++seen[how + " with offsets"];
    if (fold) ++seen[how + " with a fold"];
    if (!plan.loads.empty()) ++seen[how + " with loads"];
    if (plan.entry_srf != 0) {
      ++seen[how + (match_entry ? " entry matching" : " entry differing")];
    }
    expect_map_identical(prog, body, match_entry,
                         "trial " + std::to_string(trial) + " trips " +
                             std::to_string(trips) + " start " +
                             std::to_string(start) + " " + how);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const char* key :
       {"mapped", "lines", "mapped with offsets", "mapped with a fold",
        "mapped with loads", "mapped entry matching",
        "mapped entry differing"}) {
    EXPECT_GE(seen[key], 5u) << key;
  }
}

/// The map rules by name: each body is checked against the interpreter,
/// and its plan (or its absence) is pinned.
TEST(TraceCacheFused, MapRulesHoldAndRefuseByShape) {
  using isa::RcDst;
  using isa::RcOp;
  using isa::RcSrc;
  struct Case {
    const char* name;
    std::vector<MapBodyLine> body;
    bool maps;
  };
  const std::vector<Case> cases = {
      {"per-line offsets (FIR shape)",
       {{rc_fxpmul(RcDst::kR1, RcSrc::kVwrA, RcSrc::kSrf, 1), -1},
        {rc_fxpmul(RcDst::kR0, RcSrc::kVwrA, RcSrc::kSrf, 2), 0},
        {rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kR0), -1},
        {rc_add(RcDst::kVwrC, RcSrc::kR1, RcSrc::kVwrA), 3}},
       true},
      {"row written at one offset, read at another",
       {{rc_add(RcDst::kVwrC, RcSrc::kVwrA, RcSrc::kVwrB), 1},
        {rc_sub(RcDst::kVwrB, RcSrc::kVwrC, RcSrc::kVwrA), 0}},
       false},
      {"row written at two offsets",
       {{rc_add(RcDst::kVwrC, RcSrc::kVwrA, RcSrc::kVwrB), 2},
        {rc_mv(RcDst::kVwrC, RcSrc::kVwrA), -1}},
       false},
      {"sum of squares accumulator",
       {{rc_fxpmul(RcDst::kR0, RcSrc::kVwrA, RcSrc::kVwrA), 0},
        {rc_add(RcDst::kR1, RcSrc::kR0, RcSrc::kR1), 1}},
       true},
      {"accumulator another line reads",
       {{rc_fxpmul(RcDst::kR0, RcSrc::kVwrA, RcSrc::kVwrA), 0},
        {rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kR0), 0},
        {rc_add(RcDst::kVwrC, RcSrc::kR1, RcSrc::kVwrB), 1}},
       false},
      {"accumulator with a second writer",
       {{rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kVwrB), 0},
        {rc_mv(RcDst::kR1, RcSrc::kVwrA), 1}},
       false},
      {"register written before it is read (a temporary)",
       {{rc_mv(RcDst::kR1, RcSrc::kVwrA), 0},
        {rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kVwrB), 0},
        {rc_sub(RcDst::kVwrB, RcSrc::kR1, RcSrc::kVwrB), -1}},
       true},
      {"carried register that is not a sum",
       {{rc_op(RcOp::kMax, RcDst::kR1, RcSrc::kR1, RcSrc::kVwrA), 1}},
       false},
      {"ride-along loads (FIR rotation)",
       {{rc_fxpmul(RcDst::kR0, RcSrc::kVwrA, RcSrc::kSrf, 1), 0},
        {rc_add(RcDst::kVwrC, RcSrc::kR0, RcSrc::kVwrB), 0, 1, 300},
        {rc_fxpmul(RcDst::kR0, RcSrc::kVwrC, RcSrc::kSrf, 1), 0},
        {rc_add(RcDst::kVwrC, RcSrc::kR0, RcSrc::kVwrC), 1, 1, 77}},
       true},
  };
  for (const Case& c : cases) {
    for (unsigned trips : {1u, 31u, 32u, 33u}) {
      for (bool match : {false, true}) {
        const unsigned start = (trips * 7) % arch::kSliceWords;
        const isa::ColumnProgram prog = map_loop_program(c.body, trips, start);
        const auto trace = cgra::compile_trace(prog);
        EXPECT_EQ(!body_plan(trace).lines.empty(), c.maps) << c.name;
        expect_map_identical(prog, c.body, match,
                             std::string(c.name) + " trips " +
                                 std::to_string(trips) +
                                 (match ? " entry matching" : ""));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// Two columns that communicate through the SPM at *statically* known rows:
/// column 0 stores row 40 (immediate address), column 1 loads it a few
/// cycles later. The block dependence analysis sees the overlap at compile
/// time, so the launch replays on the sync schedule -- the conflicting
/// blocks advance in interpreter order from the start, with no rollback.
TEST(TraceCache, StaticSpmFlowReplaysOnSyncSchedule) {
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(isa::RcDst::kVwrA, isa::RcSrc::kVwrA,
                            isa::RcSrc::kOne)).emit();
    pb.line().lsu(lsu_st_vwr(VwrSel::A, 40)).emit();
    pb.line().emit();  // idle while the partner loads
    pb.line().emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto reader = [] {
    ProgramBuilder pb;
    pb.line().emit();
    pb.line().emit();
    pb.line().lsu(lsu_ld_vwr(VwrSel::B, 40)).emit();  // sees the new row
    pb.line().rc_all(rc_add(isa::RcDst::kVwrC, isa::RcSrc::kVwrB,
                            isa::RcSrc::kOne)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage img = make_kernel2("spmflow", writer(), reader());

  // The compiled traces carry the static row masks the plan is built from.
  const auto tw = cgra::compile_trace(writer());
  const auto tr = cgra::compile_trace(reader());
  ASSERT_TRUE(tw->ok && tr->ok);
  EXPECT_EQ(tw->static_writes, 1ull << 40);
  EXPECT_EQ(tr->static_reads, 1ull << 40);
  const cgra::tc::SyncPlan plan = cgra::tc::make_sync_plan(tw.get(), tr.get());
  EXPECT_EQ(plan.mode, cgra::tc::SyncPlan::Mode::kScheduled);
  EXPECT_GT(plan.sync_blocks[0] + plan.sync_blocks[1], 0u);

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(77));
  rt.seed(Rng(77));
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "first launch (sync schedule)");
  EXPECT_EQ(rt.acc.traced_rollbacks(), 0u);
  EXPECT_GT(rt.acc.sync_points(), 0u);
  EXPECT_EQ(rt.acc.interpreted_cycles(), 0u);

  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "second launch (sync schedule)");
  EXPECT_EQ(rt.acc.traced_rollbacks(), 0u);
  EXPECT_EQ(rt.acc.traced_launches(), 2u);
}

/// The same dataflow with a *dynamically* addressed store (SRF-based row):
/// invisible to the static analysis, so the launch free-runs decoupled, the
/// post-hoc mask check catches the overlap, and the rollback ladder reruns
/// in per-cycle lockstep. The hint pins later launches to lockstep until a
/// reload re-evaluates -- and a reload with a non-conflicting row parameter
/// returns the kernel to the decoupled tier.
TEST(TraceCache, DynamicSpmConflictRollsBackAndHintReEvaluates) {
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(isa::RcDst::kVwrA, isa::RcSrc::kVwrA,
                            isa::RcSrc::kOne)).emit();
    pb.line().lsu(lsu_st_vwr_srf(VwrSel::A, /*base srf=*/4)).emit();
    pb.line().emit();
    pb.line().emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto reader = [] {
    ProgramBuilder pb;
    pb.line().emit();
    pb.line().emit();
    pb.line().lsu(lsu_ld_vwr(VwrSel::B, 40)).emit();
    pb.line().rc_all(rc_add(isa::RcDst::kVwrC, isa::RcSrc::kVwrB,
                            isa::RcSrc::kOne)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage img = make_kernel2("dynflow", writer(), reader());
  // A throwaway single-column kernel used to force a reload of the columns.
  ProgramBuilder other;
  other.line().emit();
  other.line().lcu(lcu_exit()).emit();
  const isa::KernelImage evict = make_kernel("evict", 0, other.build());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(78));
  rt.seed(Rng(78));
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  const unsigned ei = ri.acc.register_kernel(evict);
  const unsigned et = rt.acc.register_kernel(evict);
  // SRF4 = 40: the dynamic store lands on the row the partner reads.
  ri.acc.host_write_srf(0, 4, 40);
  rt.acc.host_write_srf(0, 4, 40);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "dynamic conflict (rollback to lockstep)");
  EXPECT_EQ(rt.acc.traced_rollbacks(), 1u);

  // Still resident: the hint sends the relaunch straight to lockstep.
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "hinted relaunch (lockstep, no new rollback)");
  EXPECT_EQ(rt.acc.traced_rollbacks(), 1u);

  // Change the row parameter so the store no longer overlaps, and force a
  // reload: the hint is re-evaluated, the relaunch free-runs decoupled, and
  // the post-hoc check passes -- no new rollback, decoupled cycles grow.
  ri.acc.run_kernel(ei);
  rt.acc.run_kernel(et);
  ri.acc.host_write_srf(0, 4, 10);
  rt.acc.host_write_srf(0, 4, 10);
  const std::uint64_t dec_before = rt.acc.replayed_decoupled_cycles();
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "reload re-evaluates the hint (decoupled again)");
  EXPECT_EQ(rt.acc.traced_rollbacks(), 1u);
  EXPECT_GT(rt.acc.replayed_decoupled_cycles(), dec_before);
}

/// A cross-column POLL at a statically known word: column 0 spins on an SPM
/// word until column 1 writes it non-zero. The immediate addresses put both
/// sides in the static masks, so the spin block and the store block are
/// sync points -- the scheduled replay interleaves them like the
/// interpreter and terminates exactly when it does, with no budget blow-up
/// and no rollback.
TEST(TraceCache, StaticCrossColumnPollRunsOnSyncSchedule) {
  constexpr unsigned kFlagWord = 40 * arch::kVwrWords;  // row 40, word 0
  auto poller = [] {
    ProgramBuilder pb;
    Label spin = pb.make_label();
    pb.bind(spin);
    pb.line().lsu(lsu_ld_srf(1, kFlagWord)).emit();  // SRF1 = SPM[flag]
    isa::LcuInstr b;
    b.op = isa::LcuOp::kBsrfZ;
    b.srf = 1;
    pb.line().lcu(b, spin).emit();                   // while (SRF1 == 0)
    pb.line().rc_all(rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kSrf, 1)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().emit();                                // give the poller a spin
    pb.line().emit();
    pb.line().lsu(lsu_st_srf(2, kFlagWord)).emit();  // SPM[flag] = SRF2
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage img = make_kernel2("poll", poller(), writer());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  for (Rig* r : {&ri, &rt}) {
    r->seed(Rng(88));
    r->acc.spm().poke(kFlagWord, 0);          // flag starts clear
    r->acc.column(1).srf().poke(2, 7);        // the value the writer posts
  }
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  EXPECT_EQ(rt.acc.traced_rollbacks(), 0u);
  EXPECT_GT(rt.acc.sync_points(), 0u);
  expect_identical(ri, rt, "static cross-column poll");

  for (Rig* r : {&ri, &rt}) r->acc.spm().poke(kFlagWord, 0);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  EXPECT_EQ(rt.acc.traced_rollbacks(), 0u);
  expect_identical(ri, rt, "static cross-column poll, relaunch");
}

/// The same poll through an SRF-based (dynamic) address: invisible to the
/// static analysis, so free-running column 0 alone would never terminate.
/// The decoupled attempt must hit its replay budget, roll back, and rerun
/// in lockstep -- terminating exactly like the interpreter.
TEST(TraceCache, DynamicCrossColumnPollHitsBudgetAndGoesLockstep) {
  constexpr unsigned kFlagWord = 40 * arch::kVwrWords;  // row 40, word 0
  auto poller = [] {
    ProgramBuilder pb;
    pb.line().lsu(lsu_setptr(0, /*base srf=*/4)).emit();  // P0 = SRF4
    Label spin = pb.make_label();
    pb.bind(spin);
    pb.line().lsu(lsu_ld_srf_ptr(1, 0, /*stride=*/0)).emit();  // SRF1 = SPM[P0]
    isa::LcuInstr b;
    b.op = isa::LcuOp::kBsrfZ;
    b.srf = 1;
    pb.line().lcu(b, spin).emit();                   // while (SRF1 == 0)
    pb.line().rc_all(rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kSrf, 1)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().emit();
    pb.line().emit();
    pb.line().emit();
    pb.line().lsu(lsu_st_srf(2, kFlagWord)).emit();  // SPM[flag] = SRF2
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage img = make_kernel2("dynpoll", poller(), writer());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  for (Rig* r : {&ri, &rt}) {
    r->seed(Rng(89));
    r->acc.spm().poke(kFlagWord, 0);          // flag starts clear
    r->acc.column(0).srf().poke(4, kFlagWord);
    r->acc.column(1).srf().poke(2, 7);        // the value the writer posts
  }
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);  // must terminate (budget -> rollback -> lockstep)
  EXPECT_EQ(rt.acc.traced_rollbacks(), 1u);
  expect_identical(ri, rt, "dynamic cross-column poll");

  // Later launches go straight to lockstep (the hint holds while resident).
  for (Rig* r : {&ri, &rt}) r->acc.spm().poke(kFlagWord, 0);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  EXPECT_EQ(rt.acc.traced_rollbacks(), 1u);
  expect_identical(ri, rt, "dynamic cross-column poll, lockstep relaunch");
}

/// kRcCross operands inside a lockstep-traced pair: both columns read the
/// partner's previous-cycle RC results. Such programs used to be
/// non-traceable (interpreter only); they now compile with a partner
/// snapshot slot and replay on the per-cycle lockstep tier -- the
/// interpreter never runs on the happy path.
TEST(TraceCache, CrossColumnOperandsReplayInLockstep) {
  auto make_prog = [](isa::RcDst dst) {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(isa::RcDst::kR0, isa::RcSrc::kVwrA,
                            isa::RcSrc::kOne)).emit();
    pb.line().rc_all(rc_add(dst, isa::RcSrc::kRcCross,
                            isa::RcSrc::kR0)).emit();
    pb.line().rc_all(rc_mv(dst, isa::RcSrc::kRcCross)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::ColumnProgram p0 = make_prog(isa::RcDst::kVwrB);
  const isa::ColumnProgram p1 = make_prog(isa::RcDst::kVwrC);

  const auto t0 = cgra::compile_trace(p0);
  ASSERT_TRUE(t0->ok);
  EXPECT_TRUE(t0->has_cross);
  const auto t1 = cgra::compile_trace(p1);
  const cgra::tc::SyncPlan plan = cgra::tc::make_sync_plan(t0.get(), t1.get());
  EXPECT_EQ(plan.mode, cgra::tc::SyncPlan::Mode::kLockstep);

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(91));
  rt.seed(Rng(91));
  const isa::KernelImage img = make_kernel2("cross", p0, p1);
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "cross-operand lockstep replay");
  EXPECT_EQ(rt.acc.traced_launches(), 1u);
  EXPECT_EQ(rt.acc.traced_rollbacks(), 0u);
  EXPECT_EQ(rt.acc.interpreted_cycles(), 0u);
  EXPECT_GT(rt.acc.replayed_lockstep_cycles(), 0u);
}

/// A kRcCross operand without a running partner column must surface the
/// interpreter's documented SimError with identical partial state: the
/// replay faults on the missing snapshot, rolls back, and the interpreter
/// reruns to raise it.
TEST(TraceCache, CrossWithoutPartnerFaultsIdentically) {
  ProgramBuilder pb;
  pb.line().rc_all(rc_mv(isa::RcDst::kR0, isa::RcSrc::kOne)).emit();
  pb.line().rc_all(rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kRcCross)).emit();
  pb.line().lcu(lcu_exit()).emit();
  const isa::KernelImage img = make_kernel("lonecross", 0, pb.build());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(92));
  rt.seed(Rng(92));
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  std::string err_i, err_t;
  try {
    ri.acc.run_kernel(ki);
  } catch (const SimError& e) {
    err_i = e.what();
  }
  try {
    rt.acc.run_kernel(kt);
  } catch (const SimError& e) {
    err_t = e.what();
  }
  EXPECT_FALSE(err_i.empty());
  EXPECT_EQ(err_i, err_t);
  expect_identical(ri, rt, "lone cross fault path");
}

/// Replay energy is counted per block and folded into the meter once per
/// launch. Back-to-back launches on every replay tier -- decoupled,
/// sync-scheduled, per-cycle lockstep, and one launch that rolls back --
/// must leave the meter equal to an interpreter twin's after every single
/// launch, so no launch's counts leak into the next one or survive its
/// rollback.
TEST(TraceCache, DeferredEnergyIsFoldedAfterEveryLaunchOnEveryTier) {
  using isa::RcDst;
  using isa::RcSrc;
  // Decoupled: two columns with no shared rows.
  const isa::KernelImage decoupled =
      make_kernel2("dec", counted_accumulate_program(),
                   counted_accumulate_program());
  // Scheduled: column 0 stores a row that column 1 loads (static rows).
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(RcDst::kVwrA, RcSrc::kVwrA, RcSrc::kOne)).emit();
    pb.line().lsu(lsu_st_vwr(VwrSel::A, 40)).emit();
    pb.line().emit();
    pb.line().emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto reader = [] {
    ProgramBuilder pb;
    pb.line().emit();
    pb.line().emit();
    pb.line().lsu(lsu_ld_vwr(VwrSel::B, 40)).emit();
    pb.line().rc_all(rc_add(RcDst::kVwrC, RcSrc::kVwrB, RcSrc::kOne)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage scheduled = make_kernel2("sched", writer(), reader());
  // Lockstep: cross-column operands.
  auto cross = [](RcDst dst) {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(RcDst::kR0, RcSrc::kVwrA, RcSrc::kOne)).emit();
    pb.line().rc_all(rc_add(dst, RcSrc::kRcCross, RcSrc::kR0)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage lockstep =
      make_kernel2("lock", cross(RcDst::kVwrB), cross(RcDst::kVwrC));
  // Rollback: a dynamically addressed store onto the row the partner reads.
  auto dyn_writer = [] {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(RcDst::kVwrA, RcSrc::kVwrA, RcSrc::kOne)).emit();
    pb.line().lsu(lsu_st_vwr_srf(VwrSel::A, 4)).emit();
    pb.line().emit();
    pb.line().emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage rollback =
      make_kernel2("roll", dyn_writer(), reader());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(93));
  rt.seed(Rng(93));
  for (Rig* r : {&ri, &rt}) {
    r->acc.host_write_srf(0, 0, 9);   // trip counts
    r->acc.host_write_srf(1, 0, 13);
    r->acc.host_write_srf(0, 4, 40);  // the rollback kernel's store row
  }
  struct Launch {
    const char* tier;
    const isa::KernelImage* img;
  };
  const Launch launches[] = {
      {"decoupled", &decoupled}, {"decoupled", &decoupled},
      {"scheduled", &scheduled}, {"scheduled", &scheduled},
      {"lockstep", &lockstep},   {"lockstep", &lockstep},
      {"rollback", &rollback},   {"decoupled", &decoupled},
  };
  std::map<const isa::KernelImage*, std::pair<unsigned, unsigned>> ids;
  for (const Launch& l : launches) {
    if (!ids.count(l.img)) {
      ids[l.img] = {ri.acc.register_kernel(*l.img),
                    rt.acc.register_kernel(*l.img)};
    }
  }
  unsigned n = 0;
  for (const Launch& l : launches) {
    const std::uint64_t dec = rt.acc.replayed_decoupled_cycles();
    const std::uint64_t lock = rt.acc.replayed_lockstep_cycles();
    const std::uint64_t sync = rt.acc.sync_points();
    const std::uint64_t rolls = rt.acc.traced_rollbacks();
    ri.acc.run_kernel(ids[l.img].first);
    rt.acc.run_kernel(ids[l.img].second);
    const std::string what =
        "launch " + std::to_string(n++) + " (" + l.tier + ")";
    expect_identical(ri, rt, what);
    if (::testing::Test::HasFatalFailure()) return;
    const std::string tier = l.tier;
    if (tier == "decoupled") {
      EXPECT_GT(rt.acc.replayed_decoupled_cycles(), dec) << what;
    }
    if (tier == "scheduled") {
      EXPECT_GT(rt.acc.sync_points(), sync) << what;
    }
    if (tier == "lockstep" || tier == "rollback") {
      EXPECT_GT(rt.acc.replayed_lockstep_cycles(), lock) << what;
    }
    if (tier == "rollback") {
      EXPECT_EQ(rt.acc.traced_rollbacks(), rolls + 1) << what;
    }
  }
  EXPECT_EQ(rt.acc.interpreted_cycles(), 0u);
}

TEST(TraceCache, StaticHazardBailsToInterpreterWithSameFault) {
  // Two different SRF addresses in one line: the single-ported SRF throws
  // StructuralHazard at runtime; the compiler must refuse to trace it and
  // the traced rig must raise the identical fault.
  ProgramBuilder pb;
  pb.line()
      .rc(0, rc_op(isa::RcOp::kSadd, isa::RcDst::kR0, isa::RcSrc::kSrf,
                   isa::RcSrc::kZero, /*srf=*/1))
      .rc(1, rc_op(isa::RcOp::kSadd, isa::RcDst::kR0, isa::RcSrc::kSrf,
                   isa::RcSrc::kZero, /*srf=*/2))
      .emit();
  pb.line().lcu(lcu_exit()).emit();
  const isa::ColumnProgram prog = pb.build();

  const auto trace = cgra::compile_trace(prog);
  EXPECT_FALSE(trace->ok);
  EXPECT_FALSE(trace->bail_reason.empty());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  const unsigned ki = ri.acc.register_kernel(make_kernel("hz", 0, prog));
  const unsigned kt = rt.acc.register_kernel(make_kernel("hz", 0, prog));
  EXPECT_THROW(ri.acc.run_kernel(ki), StructuralHazard);
  EXPECT_THROW(rt.acc.run_kernel(kt), StructuralHazard);
  expect_identical(ri, rt, "hazard fault path");
}

TEST(TraceCache, SharedTraceCacheCompilesOnce) {
  cgra::TraceCache shared;
  const isa::ColumnProgram prog = counted_accumulate_program();
  const auto t1 = shared.get_or_compile("vwr3.w32", prog);
  const auto t2 = shared.get_or_compile("vwr3.w32", prog);
  EXPECT_EQ(t1.get(), t2.get());
  auto st = shared.stats();
  EXPECT_EQ(st.compiled, 1u);
  EXPECT_EQ(st.hits, 1u);
  // A different variant namespace compiles its own copy (ISSUE: traces are
  // keyed by ArchConfig variant).
  const auto t3 = shared.get_or_compile("vwr2.w32", prog);
  EXPECT_NE(t1.get(), t3.get());
  EXPECT_EQ(shared.stats().compiled, 2u);
}

TEST(TraceCache, CompiledBlocksLookRight) {
  const auto trace = cgra::compile_trace(counted_accumulate_program());
  ASSERT_TRUE(trace->ok);
  ASSERT_EQ(trace->length(), 5u);
  // Blocks: [0,1] (falls to the loop leader), [2] dbnz self-loop (fused),
  // [3,4] exit.
  ASSERT_EQ(trace->blocks.size(), 3u);
  EXPECT_EQ(trace->blocks[0].len, 2u);
  EXPECT_EQ(trace->blocks[1].first, 2u);
  EXPECT_EQ(trace->blocks[1].term, cgra::tc::Term::kDbnz);
  EXPECT_TRUE(trace->blocks[1].fuse_self_loop);
  EXPECT_EQ(trace->blocks[2].term, cgra::tc::Term::kExit);
  // Per-block energy is non-empty and contains the per-cycle fetch events.
  for (const auto& b : trace->blocks) {
    bool has_fetch = false;
    for (const auto& d : b.energy) {
      if (d.e == energy::Event::kInstrFetchRc) {
        has_fetch = true;
        EXPECT_EQ(d.n, 4ull * b.len);
      }
    }
    EXPECT_TRUE(has_fetch);
  }
}

/// Every hardware loop of the runtime job catalog replays through a loop
/// plan: compile each kernel the catalog registers, for every job family
/// and each of the four fleet variants, and require a map plan on every
/// fused self-loop block that does RC work. A kernel edit that puts a loop back on the
/// line-by-line path fails here by kernel and block.
TEST(TraceCache, EveryCatalogLoopHasAMapPlan) {
  std::vector<soc::ArchConfig> fleet(4);
  fleet[1].vwr_count = 2;
  fleet[2].vwr_count = 4;
  fleet[3].simd_width = 16;
  // populate_catalog's sweep, on devices kept for their column counters.
  isa::ImageCache cache;
  const std::vector<runtime::Job> jobs = artifact::catalog_jobs();
  for (soc::ArchConfig variant : fleet) {
    variant.exec_mode = cgra::ExecMode::kTraceCache;
    runtime::Device device(0, cache, variant);
    std::uint64_t seq = 0;
    for (const runtime::Job& job : jobs) device.run(job, seq++);
    // No catalog loop runs more trips than a slice has words, so no
    // planned loop falls back to line-by-line replay at run time.
    for (unsigned c = 0; c < arch::kNumColumns; ++c) {
      EXPECT_EQ(device.platform().vwr2a().column(c).long_loop_runs(), 0u)
          << variant.name() << " column " << c;
    }
  }

  std::map<std::string, const isa::KernelImage*> images;
  std::vector<std::shared_ptr<const isa::KernelImage>> keep;
  cache.for_each_image(
      [&](const std::string& key,
          const std::shared_ptr<const isa::KernelImage>& image) {
        images[key] = image.get();
        keep.push_back(image);
      });
  auto kernel_of = [&](const isa::ColumnProgram& prog) {
    for (const auto& [key, image] : images) {
      for (const isa::ColumnProgram& p : image->program) {
        if (p == prog) return key;
      }
    }
    return std::string("<unregistered>");
  };
  std::set<std::string> families;
  unsigned traces = 0, loops = 0;
  cache.traces().for_each_trace(
      [&](const std::string& variant, const isa::ColumnProgram& prog,
          const std::shared_ptr<const cgra::CompiledTrace>& trace) {
        ASSERT_TRUE(trace->ok) << kernel_of(prog) << ": " << trace->bail_reason;
        ++traces;
        families.insert(variant);
        for (std::size_t bi = 0; bi < trace->blocks.size(); ++bi) {
          const cgra::tc::Block& b = trace->blocks[bi];
          if (!b.fuse_self_loop) continue;
          // A body without RC work (zero_rows' store-and-advance row loop)
          // has no lanes to map: it replays line by line on any engine.
          bool lanes = false;
          for (unsigned i = b.first; i < b.first + b.len; ++i) {
            lanes = lanes || trace->lines[i].rc_mask != 0;
          }
          if (!lanes) continue;
          ++loops;
          EXPECT_FALSE(b.plan.lines.empty())
              << "kernel " << kernel_of(prog) << " (" << variant
              << ") block " << bi << " at line " << b.first
              << ": fused loop has no map plan";
        }
      });
  EXPECT_EQ(families.size(), 4u);  // one trace namespace per variant
  EXPECT_GT(traces, 100u) << traces;
  EXPECT_GT(loops, 100u) << loops;
}

TEST(TraceCache, ExecModeIsCostModelTransparent) {
  soc::ArchConfig a;
  a.exec_mode = ExecMode::kTraceCache;
  EXPECT_TRUE(a.is_baseline());          // engine choice is not a variant
  EXPECT_EQ(a.name(), "vwr3.w32");       // image-cache namespace unchanged
  soc::Platform::Config b;               // the ISSUE's spelling
  b.exec_mode = ExecMode::kInterpret;
  EXPECT_EQ(soc::ArchConfig{}, b);
}

} // namespace
} // namespace vwr2a
