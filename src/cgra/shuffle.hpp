#pragma once
// The shuffle unit (paper Sec 3.3.1): takes the contents of VWRs A and B,
// applies one of four hard-wired data reorderings to their 256-word
// concatenation, and writes a selected 128-word half of the conceptual
// result to VWR C. It exists because moving data across RC slices through
// the connection matrix is "highly inefficient in terms of performance and
// energy".

#include <array>

#include "common/types.hpp"
#include "isa/opcodes.hpp"

namespace vwr2a::cgra {

using VwrRow = std::array<Word, arch::kVwrWords>;

/// Evaluates one shuffle operation; pure function of the two input rows.
///
/// With c = A:B (c[0..127] = A, c[128..255] = B) and N = 128:
///  * kInterleave{Lo,Hi}: out256[2i] = A[i], out256[2i+1] = B[i];
///    Lo returns out256[0..127], Hi returns out256[128..255].
///  * kEvenPrune: evens of A followed by evens of B (one 128-word row).
///  * kOddPrune: odds of A followed by odds of B.
///  * kBitRev{Lo,Hi}: out256[i] = c[bit_reverse_8(i)]; Lo/Hi halves.
///  * kCircShift{Lo,Hi}: out256[i] = c[(i + 32) mod 256] -- "the upper 32
///    words are moved to the lower 32 words"; Lo/Hi halves.
VwrRow shuffle_eval(isa::ShufMode mode, const VwrRow& a, const VwrRow& b);

/// shuffle_eval() writing into `out`, which must alias neither input.
void shuffle_eval(isa::ShufMode mode, const VwrRow& a, const VwrRow& b,
                  VwrRow& out);

/// The permutation/selection as an index map into the concatenation A:B:
/// result[i] = concat[shuffle_source_index(mode, i)]. The definition the
/// precomputed table every shuffle reads from is built from; also used by
/// property tests.
unsigned shuffle_source_index(isa::ShufMode mode, unsigned i);

} // namespace vwr2a::cgra
