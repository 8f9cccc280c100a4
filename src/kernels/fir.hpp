#pragma once
// VWR2A FIR filter kernel (paper Sec 4.4.1/5.1.2: 11 taps, both columns
// working on different slices of the input array).
//
// Mapping. The shared slice index forces all RCs to read the same in-slice
// word, so the input is *staged* with per-slice overlap ("careful data
// placement", Sec 3.3.2): each 32-word slice holds the full input window
// for 22 outputs -- slice j of staged row r contains
// x[22*(4r+j) - 10 .. 22*(4r+j) + 21]. For output k of a slice, tap t reads
// in-slice word (k + 10 - t); that index is identical across slices, so one
// MXCU walk serves all four RCs.
//
// The 11-tap MAC runs software-pipelined at 2 cycles/tap (the RC ALU has no
// fused MAC): multiply into R0, accumulate into R1, with the final
// accumulate steering straight into VWR C at in-slice word k. The 8-entry
// single-ported SRF cannot hold 11 coefficients plus the row pointer, so
// the LSU rotates taps 7..10 and 0..3 through SRF1..4 during the accumulate
// cycles (whose SRF port is free) -- an instructive case of the paper's
// single-ported-SRF constraint.
//
// Numerics: x in 16.15, taps in the q.16 coefficient format, truncating
// multiplies, matching dsp::fir_fx bit-for-bit.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/image_cache.hpp"
#include "kernels/host.hpp"

namespace vwr2a::kernels {

/// Outputs produced per slice per staged row.
inline constexpr unsigned kFirOutsPerSlice = 22;
/// Outputs per staged row (4 slices).
inline constexpr unsigned kFirOutsPerRow = 4 * kFirOutsPerSlice;
/// Number of filter taps.
inline constexpr unsigned kFirTaps = 11;

/// SPM row the staged taps occupy (word region 53*128..): callers that
/// track tap residency across runs watch this row's write stamp.
inline constexpr unsigned kFirTapRow = 53;

/// Run statistics.
struct FirRunStats {
  Cycle cycles = 0;
  unsigned launches = 0;
};

/// FIR-11 kernel family.
class FirKernels {
 public:
  /// `cache`, when given, shares assembled kernel images across instances
  /// (one assembly fleet-wide; each device still registers/loads its copy
  /// of the configuration state through its own config memory).
  explicit FirKernels(Host host, isa::ImageCache* cache = nullptr);

  /// One-time placement of a 16-word zero block (for the left boundary of
  /// the staging windows) at sys word address zeros_base.
  void prepare(unsigned zeros_base);

  /// Filters n samples of 16.15 data at sys_in with the 11 coefficient-
  /// format taps, writing n outputs to sys_out. n up to 1024.
  /// `taps_resident` skips the tap staging (poke + DMA into kFirTapRow):
  /// only pass true when `taps` are the ones staged by the previous call
  /// and the tap row's write stamp is unchanged since.
  FirRunStats fir11(unsigned n, const std::vector<std::int32_t>& taps,
                    unsigned sys_in, unsigned sys_out,
                    bool taps_resident = false);

 private:
  unsigned kernel_for_rows(unsigned nrows);

  Host host_;
  isa::ImageCache* cache_ = nullptr;
  unsigned zeros_base_ = 0;
  bool prepared_ = false;
  // Kernels keyed by staged-row count (1..12); built lazily.
  std::vector<int> kernels_ = std::vector<int>(13, -1);
};

} // namespace vwr2a::kernels
