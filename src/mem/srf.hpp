#pragma once
// Scalar register file: 8 x 32-bit, single-ported (paper Sec 3.2). One
// address per cycle across all units of the column; several consumers may
// observe the same read (the data bus broadcasts), but a second address --
// read or write -- in the same cycle is a structural hazard. The port rule
// is a property of each VLIW line and is checked once per loaded program
// (cgra/line.hpp); the register file itself is plain storage.

#include <array>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vwr2a::mem {

/// The per-column scalar register file.
class Srf {
 public:
  /// Datapath access. Configuration fields address the SRF with 3 bits, so
  /// every datapath index is in range.
  std::array<Word, arch::kSrfEntries>& regs() { return regs_; }
  const std::array<Word, arch::kSrfEntries>& regs() const { return regs_; }

  /// Debug/testing backdoor (host-side initialization), range-checked.
  Word peek(unsigned idx) const {
    check(idx);
    return regs_[idx];
  }
  void poke(unsigned idx, Word v) {
    check(idx);
    regs_[idx] = v;
  }

 private:
  static void check(unsigned idx) {
    if (idx >= arch::kSrfEntries) throw RangeError("SRF: index out of range");
  }

  std::array<Word, arch::kSrfEntries> regs_{};
};

} // namespace vwr2a::mem
