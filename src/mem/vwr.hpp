#pragma once
// Very-wide register: a single-ported 4096-bit latch array, the paper's
// replacement for a multi-ported register file (Sec 2, Sec 3.2).
//
// Port model (strict): datapath word *reads* go through the multiplexer
// network and do not use the array port -- the paper notes that only the mux
// outputs switch each cycle. Writes use the port: per cycle, a VWR accepts
// either one whole-row write (LSU load or shuffle result) or any set of
// word writes from RCs (each RC owns a disjoint slice, so the row write
// combines the per-slice write enables). Mixing a row write and RC word
// writes in the same cycle is a structural hazard. The port rule is a
// property of each VLIW line and is checked once per loaded program
// (cgra/line.hpp); the register itself is plain storage.

#include <array>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vwr2a::mem {

/// One 128x32-bit very-wide register.
class Vwr {
 public:
  using Row = std::array<Word, arch::kVwrWords>;

  /// The latch array: slice s, word i lives at s * kSliceWords + i.
  Row& row() { return row_; }
  const Row& row() const { return row_; }

  /// Debug/testing backdoor: writes one word of slice `slice`.
  void poke(unsigned slice, unsigned index, Word v) {
    check_word(slice, index);
    row_[slice * arch::kSliceWords + index] = v;
  }

  /// Debug/testing backdoor: reads one word of slice `slice`.
  Word peek(unsigned slice, unsigned index) const {
    check_word(slice, index);
    return row_[slice * arch::kSliceWords + index];
  }

 private:
  static void check_word(unsigned slice, unsigned index) {
    if (slice >= arch::kRcsPerColumn) throw RangeError("VWR: bad slice");
    if (index >= arch::kSliceWords) throw RangeError("VWR: bad word index");
  }

  Row row_{};
};

} // namespace vwr2a::mem
