#include "kernels/fir.hpp"

#include "casm/builder.hpp"
#include "casm/factories.hpp"
#include "common/status.hpp"

namespace vwr2a::kernels {

namespace {

using namespace casm;
using isa::ColumnProgram;

constexpr unsigned kRowWords = arch::kVwrWords;
/// SPM word region holding the 11 staged taps.
constexpr unsigned kTapMem = kFirTapRow * kRowWords;

/// Builds the FIR program for one column. `col` selects the starting staged
/// row (host also writes SRF0 = col); `nrows_total` staged rows live at SPM
/// rows [0, nrows_total) with outputs at [nrows_total, 2*nrows_total).
ColumnProgram fir_program(unsigned col, unsigned nrows_total) {
  const unsigned my_rows = (nrows_total + 1 - col) / 2;  // rows col, col+2, ...
  if (my_rows == 0) throw AsmError("fir_program: column has no rows");
  ProgramBuilder pb;
  // Prologue: taps 0..6 -> SRF1..7.
  for (unsigned t = 0; t < 7; ++t) {
    pb.line().lsu(lsu_ld_srf(static_cast<std::uint8_t>(1 + t), kTapMem + t)).emit();
  }
  pb.line().lcu(lcu_set(2, static_cast<int>(my_rows))).emit();

  Label row = pb.make_label();
  pb.bind(row);
  pb.line()
      .lsu(lsu_ld_vwr_srf(VwrSel::A, 0, 0))
      .lcu(lcu_set(0, static_cast<int>(kFirOutsPerSlice)))
      .mxcu(mxcu_set_idx(10))
      .emit();

  // Software-pipelined 11-tap MAC, 2 cycles/tap. Tap t reads in-slice word
  // (k + 10 - t); the SRF entry map rotates taps 7..10 (and back 0..3)
  // through SRF1..4 on accumulate cycles.
  Label kloop = pb.make_label();
  pb.bind(kloop);
  // t = 0: R1 = x * tap0, and start walking the index down.
  pb.line()
      .rc_all(rc_fxpmul(RcDst::kR1, RcSrc::kVwrA, RcSrc::kSrf, 1))
      .mxcu(mxcu_add_idx(-1))
      .emit();
  for (unsigned t = 1; t <= 10; ++t) {
    const std::uint8_t entry = static_cast<std::uint8_t>(t <= 6 ? 1 + t : t - 6);
    // multiply cycle.
    pb.line().rc_all(rc_fxpmul(RcDst::kR0, RcSrc::kVwrA, RcSrc::kSrf, entry)).emit();
    // accumulate cycle (the final one writes straight into VWR C at word k).
    auto line = pb.line();
    if (t < 10) {
      line.rc_all(rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kR0)).mxcu(mxcu_add_idx(-1));
    } else {
      line.rc_all(rc_add(RcDst::kVwrC, RcSrc::kR1, RcSrc::kR0))
          .mxcu(mxcu_add_idx(11))
          .lcu(lcu_dbnz(0), kloop);
    }
    // SRF rotation on the free accumulate-cycle port.
    switch (t) {
      case 1: line.lsu(lsu_ld_srf(1, kTapMem + 7)); break;
      case 2: line.lsu(lsu_ld_srf(2, kTapMem + 8)); break;
      case 3: line.lsu(lsu_ld_srf(3, kTapMem + 9)); break;
      case 4: line.lsu(lsu_ld_srf(4, kTapMem + 10)); break;
      case 7: line.lsu(lsu_ld_srf(1, kTapMem + 0)); break;
      case 8: line.lsu(lsu_ld_srf(2, kTapMem + 1)); break;
      case 9: line.lsu(lsu_ld_srf(3, kTapMem + 2)); break;
      case 10: line.lsu(lsu_ld_srf(4, kTapMem + 3)); break;
      default: break;
    }
    line.emit();
  }
  // Row epilogue: store outputs, advance SRF0 by two rows, loop.
  pb.line().lsu(lsu_st_vwr_srf(VwrSel::C, 0, static_cast<int>(nrows_total))).emit();
  pb.line().lcu(lcu_mv_srf(1, 0)).emit();
  pb.line().lcu(lcu_add(1, 2)).emit();
  pb.line().lcu(lcu_st_srf(0, 1)).emit();
  pb.line().lcu(lcu_dbnz(2), row).emit();
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

} // namespace

FirKernels::FirKernels(Host host, isa::ImageCache* cache)
    : host_(host), cache_(cache) {}

void FirKernels::prepare(unsigned zeros_base) {
  zeros_base_ = zeros_base;
  for (unsigned i = 0; i < 16; ++i) host_.sram().poke(zeros_base_ + i, 0);
  prepared_ = true;
}

unsigned FirKernels::kernel_for_rows(unsigned nrows) {
  if (nrows == 0 || nrows >= kernels_.size()) {
    throw HostError("FirKernels: unsupported row count");
  }
  if (kernels_[nrows] < 0) {
    const std::string name = "fir11_rows" + std::to_string(nrows);
    auto build = [&]() {
      if (nrows == 1) {
        // A single staged row: column 0 alone.
        return make_kernel(name, 0, fir_program(0, 1));
      }
      return make_kernel2(name, fir_program(0, nrows), fir_program(1, nrows));
    };
    kernels_[nrows] = static_cast<int>(host_.register_image(cache_, name, build));
  }
  return static_cast<unsigned>(kernels_[nrows]);
}

FirRunStats FirKernels::fir11(unsigned n, const std::vector<std::int32_t>& taps,
                              unsigned sys_in, unsigned sys_out,
                              bool taps_resident) {
  FirRunStats stats;
  const Cycle t0 = host_.acc().cycles();
  if (!prepared_) throw HostError("FirKernels: prepare() not called");
  if (taps.size() != kFirTaps) throw HostError("FirKernels: need 11 taps");
  if (n == 0 || n > 12 * kFirOutsPerRow) throw HostError("FirKernels: bad n");

  // Tap constants live next to the zero block; place and stage them, unless
  // the caller proved the staged copy is still resident.
  if (!taps_resident) {
    for (unsigned t = 0; t < kFirTaps; ++t) {
      host_.sram().poke(zeros_base_ + 16 + t, static_cast<Word>(taps[t]));
    }
    host_.dma({dma::Dir::kSysToSpm, zeros_base_ + 16, kTapMem, kFirTaps, 1, 1});
  }

  // Stage the overlapped input windows.
  const unsigned rows = (n + kFirOutsPerRow - 1) / kFirOutsPerRow;
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned j = 0; j < 4; ++j) {
      const unsigned o = kFirOutsPerSlice * (4 * r + j);  // first output
      if (o >= n) continue;
      const unsigned spm = r * kRowWords + 32 * j;
      if (o == 0) {
        // x[-10..-1] are zeros; x[0..21] from the input.
        host_.dma({dma::Dir::kSysToSpm, zeros_base_ + 6, spm, 10, 1, 1});
        const unsigned cnt = std::min(22u, n);
        host_.dma({dma::Dir::kSysToSpm, sys_in, spm + 10, cnt, 1, 1});
      } else {
        const unsigned first = o - 10;
        const unsigned cnt = std::min(32u, n - first);
        host_.dma({dma::Dir::kSysToSpm, sys_in + first, spm, cnt, 1, 1});
      }
    }
  }

  // Launch parameters for both columns (column c starts at staged row c).
  host_.srf(0, 0, 0);
  host_.srf(1, 0, 1);
  host_.run(kernel_for_rows(rows));
  ++stats.launches;

  // DMA the n valid outputs back to sys_out.
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned j = 0; j < 4; ++j) {
      const unsigned o = kFirOutsPerSlice * (4 * r + j);
      if (o >= n) continue;
      const unsigned cnt = std::min(kFirOutsPerSlice, n - o);
      host_.dma({dma::Dir::kSpmToSys, sys_out + o, (rows + r) * kRowWords + 32 * j,
                 cnt, 1, 1});
    }
  }
  stats.cycles = host_.acc().cycles() - t0;
  return stats;
}

} // namespace vwr2a::kernels
