// Memory structures, bus and DMA models: port rules (checked per VLIW
// line), ranges, strides, timing formulas, bank gating, configuration-memory
// accounting.

#include <gtest/gtest.h>

#include "bus/ahb.hpp"
#include "casm/builder.hpp"
#include "casm/factories.hpp"
#include "cgra/line.hpp"
#include "common/status.hpp"
#include "dma/dma.hpp"
#include "energy/meter.hpp"
#include "mem/config_mem.hpp"
#include "mem/regfile.hpp"
#include "mem/spm.hpp"
#include "mem/sram.hpp"
#include "mem/srf.hpp"
#include "mem/vwr.hpp"

namespace vwr2a::mem {
namespace {

TEST(Vwr, SliceViewAndRangeChecks) {
  Vwr v;
  v.poke(2, 5, 77);
  EXPECT_EQ(v.peek(2, 5), 77u);
  EXPECT_EQ(v.row()[2 * arch::kSliceWords + 5], 77u);
  EXPECT_THROW(v.peek(4, 0), RangeError);
  EXPECT_THROW(v.peek(0, 32), RangeError);
}

TEST(Srf, BackdoorRangeChecks) {
  Srf s;
  s.poke(7, 5);
  EXPECT_EQ(s.peek(7), 5u);
  EXPECT_EQ(s.regs()[7], 5u);
  EXPECT_THROW(s.peek(arch::kSrfEntries), RangeError);
  EXPECT_THROW(s.poke(arch::kSrfEntries, 0), RangeError);
}

TEST(Spm, SystemSideIndependentOfArraySide) {
  energy::EnergyMeter m;
  Spm spm(m);
  spm.array_write_word(3, 11);   // LSU path
  spm.write_word_system(5, 99);  // DMA port, same cycle: fine
  EXPECT_EQ(spm.peek(3), 11u);
  EXPECT_EQ(spm.peek(5), 99u);
  EXPECT_EQ(spm.array_row(0)[5], 99u);
}

TEST(Spm, RangeChecks) {
  energy::EnergyMeter m;
  Spm spm(m);
  EXPECT_THROW(spm.array_row(arch::kSpmRows), RangeError);
  EXPECT_THROW(spm.array_read_word(arch::kSpmWords), RangeError);
  EXPECT_THROW(spm.write_word_system(arch::kSpmWords, 0), RangeError);
}

// --- port rules, decided per VLIW line (cgra/line.hpp) ------------------------

/// Analyzes the first line of a one-line program.
cgra::DecodedLine analyze(casm::ProgramBuilder::LineBuilder line) {
  return cgra::decode_line(line.emit().build(), 0);
}

TEST(LinePorts, SrfSecondAddressConflicts) {
  using namespace casm;
  casm::ProgramBuilder pb;
  const cgra::DecodedLine L =
      analyze(pb.line()
                  .rc(0, rc_mv(isa::RcDst::kR0, isa::RcSrc::kSrf, 3))
                  .rc(1, rc_mv(isa::RcDst::kR0, isa::RcSrc::kSrf, 4)));
  EXPECT_EQ(L.fault, cgra::LineFault::kHazard);
  EXPECT_EQ(L.fault_what,
            "SRF: port conflict (single-ported, one address per cycle per column)");
}

TEST(LinePorts, SrfSameAddressReadsShareTheBroadcast) {
  using namespace casm;
  casm::ProgramBuilder pb;
  const cgra::DecodedLine L =
      analyze(pb.line()
                  .lcu(lcu_mv_srf(0, 3))
                  .rc_all(rc_mv(isa::RcDst::kR0, isa::RcSrc::kSrf, 3)));
  EXPECT_EQ(L.fault, cgra::LineFault::kNone);
}

TEST(LinePorts, SrfReadPlusWriteConflicts) {
  using namespace casm;
  casm::ProgramBuilder pb;
  // One address, but a write beside a read: the port is single.
  const cgra::DecodedLine L =
      analyze(pb.line()
                  .rc(0, rc_mv(isa::RcDst::kSrf, isa::RcSrc::kOne, 1))
                  .rc(1, rc_mv(isa::RcDst::kR0, isa::RcSrc::kSrf, 1)));
  EXPECT_EQ(L.fault, cgra::LineFault::kHazard);
}

TEST(LinePorts, VwrRowWriteAndWordWriteCollide) {
  using namespace casm;
  casm::ProgramBuilder pb;
  const cgra::DecodedLine L =
      analyze(pb.line()
                  .lsu(lsu_ld_vwr(VwrSel::A, 0))
                  .rc(0, rc_mv(isa::RcDst::kVwrA, isa::RcSrc::kOne)));
  EXPECT_EQ(L.fault, cgra::LineFault::kHazard);
  EXPECT_EQ(L.fault_what,
            "VWR A: row write and RC word write in one cycle (single write "
            "port)");
  // The shuffle result is a row write into VWR C.
  casm::ProgramBuilder pb2;
  EXPECT_EQ(analyze(pb2.line()
                        .lsu(lsu_shuf(isa::ShufMode::kEvenPrune))
                        .rc(3, rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kOne)))
                .fault,
            cgra::LineFault::kHazard);
}

TEST(LinePorts, SliceWritesFromAllRcsAndRowWriteElsewhereAreLegal) {
  using namespace casm;
  casm::ProgramBuilder pb;
  const cgra::DecodedLine L =
      analyze(pb.line()
                  .lsu(lsu_ld_vwr(VwrSel::A, 0))
                  .rc_all(rc_mv(isa::RcDst::kVwrB, isa::RcSrc::kVwrA)));
  EXPECT_EQ(L.fault, cgra::LineFault::kNone);
}

TEST(Sram, BankGatingBlocksAccess) {
  energy::EnergyMeter m;
  SystemSram sram(m);
  const unsigned bank1_word = arch::kSramBytes / 4 / arch::kSramBanks + 1;
  sram.write(bank1_word, 7);
  sram.set_bank_gated(1, true);
  EXPECT_THROW(sram.read(bank1_word), HostError);
  sram.set_bank_gated(1, false);
  EXPECT_EQ(sram.read(bank1_word), 7u);
}

TEST(ConfigMem, LoadCostMatchesImage) {
  energy::EnergyMeter m;
  ConfigMem cm(m);
  isa::KernelImage img;
  img.name = "k";
  img.columns = isa::ColumnSet::kCol0;
  std::array<std::uint32_t, arch::kSlotsPerColumn> line{};
  for (int i = 0; i < 10; ++i) img.program[0].append_line(line);
  const unsigned id = cm.add_kernel(img);
  EXPECT_EQ(cm.charge_load(id), 10u);
  EXPECT_EQ(m.count(energy::Event::kConfigWord), 10u * arch::kSlotsPerColumn);
  EXPECT_THROW(cm.kernel(99), HostError);
}

} // namespace
} // namespace vwr2a::mem

namespace vwr2a::dma {
namespace {

struct DmaRig {
  energy::EnergyMeter m;
  mem::Spm spm{m};
  mem::SystemSram sram{m};
  bus::AhbBus ahb{sram, m};
  Dma dma{spm, ahb, m};
};

TEST(Dma, ContiguousAndStridedTransfers) {
  DmaRig r;
  for (unsigned i = 0; i < 64; ++i) r.sram.poke(i, 100 + i);
  r.dma.transfer({Dir::kSysToSpm, 0, 0, 64, 1, 1});
  for (unsigned i = 0; i < 64; ++i) EXPECT_EQ(r.spm.peek(i), 100 + i);

  // Deinterleave: every second word.
  r.dma.transfer({Dir::kSysToSpm, 0, 200, 32, 2, 1});
  for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(r.spm.peek(200 + i), 100 + 2 * i);
}

TEST(Dma, NegativeStrideReverses) {
  DmaRig r;
  for (unsigned i = 0; i < 16; ++i) r.sram.poke(i, i);
  r.dma.transfer({Dir::kSysToSpm, 15, 0, 16, -1, 1});
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(r.spm.peek(i), 15 - i);
}

TEST(Dma, SpmToSysScatter) {
  DmaRig r;
  for (unsigned i = 0; i < 8; ++i) r.spm.poke(i, 50 + i);
  r.dma.transfer({Dir::kSpmToSys, 100, 0, 8, 4, 1});
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(r.sram.peek(100 + 4 * i), 50 + i);
}

TEST(Dma, CycleFormula) {
  DmaRig r;
  for (unsigned i = 0; i < 40; ++i) r.sram.poke(i, i);
  // setup + ceil(40/16)*burst_setup + 40*beat = 8 + 3*2 + 40 = 54.
  EXPECT_EQ(r.dma.transfer({Dir::kSysToSpm, 0, 0, 40, 1, 1}), 54u);
  EXPECT_EQ(r.dma.total_beats(), 40u);
}

TEST(Dma, EmptyAndOutOfRangeThrow) {
  DmaRig r;
  EXPECT_THROW(r.dma.transfer({Dir::kSysToSpm, 0, 0, 0, 1, 1}), HostError);
  EXPECT_THROW(r.dma.transfer({Dir::kSysToSpm, 0, arch::kSpmWords - 1, 4, 1, 1}),
               RangeError);
}

TEST(Bus, BeatsAndEnergyAccounted) {
  DmaRig r;
  for (unsigned i = 0; i < 8; ++i) r.sram.poke(i, i);
  r.dma.transfer({Dir::kSysToSpm, 0, 0, 8, 1, 1});
  EXPECT_EQ(r.ahb.beats(), 8u);
  EXPECT_EQ(r.m.count(energy::Event::kBusBeat), 8u);
  EXPECT_EQ(r.m.count(energy::Event::kSramRead), 8u);
  EXPECT_EQ(r.m.count(energy::Event::kSpmWordWrite), 8u);
}

} // namespace
} // namespace vwr2a::dma
