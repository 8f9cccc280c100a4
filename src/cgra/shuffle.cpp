#include "cgra/shuffle.hpp"

#include <algorithm>
#include <cstdint>

#include "common/bits.hpp"
#include "common/status.hpp"

namespace vwr2a::cgra {

namespace {
constexpr unsigned kN = arch::kVwrWords;       // 128
constexpr unsigned kConcat = 2 * kN;           // 256
constexpr unsigned kConcatBits = 8;            // log2(256)
constexpr unsigned kShift = arch::kSliceWords; // 32
} // namespace

unsigned shuffle_source_index(isa::ShufMode mode, unsigned i) {
  using isa::ShufMode;
  switch (mode) {
    case ShufMode::kInterleaveLo:
      // out256[2j] = A[j] = c[j]; out256[2j+1] = B[j] = c[128 + j].
      return (i % 2 == 0) ? (i / 2) : (kN + i / 2);
    case ShufMode::kInterleaveHi: {
      const unsigned j = i + kN;
      return (j % 2 == 0) ? (j / 2) : (kN + j / 2);
    }
    case ShufMode::kEvenPrune:
      // evens of A then evens of B.
      return (i < kN / 2) ? (2 * i) : (kN + 2 * (i - kN / 2));
    case ShufMode::kOddPrune:
      return (i < kN / 2) ? (2 * i + 1) : (kN + 2 * (i - kN / 2) + 1);
    case ShufMode::kBitRevLo:
      return bit_reverse(i, kConcatBits);
    case ShufMode::kBitRevHi:
      return bit_reverse(i + kN, kConcatBits);
    case ShufMode::kCircShiftLo:
      return (i + kShift) % kConcat;
    case ShufMode::kCircShiftHi:
      return (i + kN + kShift) % kConcat;
    default:
      throw DecodeError("shuffle: bad mode");
  }
}

namespace {

/// shuffle_source_index() precomputed for every mode: [mode][i] = source
/// index into the A:B concatenation.
using ShuffleMap = std::array<std::array<std::uint16_t, kN>,
                              static_cast<unsigned>(isa::ShufMode::kCount)>;

const ShuffleMap& shuffle_map() {
  static const ShuffleMap map = [] {
    ShuffleMap m{};
    for (unsigned mode = 0; mode < m.size(); ++mode) {
      for (unsigned i = 0; i < kN; ++i) {
        m[mode][i] = static_cast<std::uint16_t>(
            shuffle_source_index(static_cast<isa::ShufMode>(mode), i));
      }
    }
    return m;
  }();
  return map;
}

} // namespace

void shuffle_eval(isa::ShufMode mode, const VwrRow& a, const VwrRow& b,
                  VwrRow& out) {
  if (mode >= isa::ShufMode::kCount) throw DecodeError("shuffle: bad mode");
  const auto& map = shuffle_map()[static_cast<unsigned>(mode)];
  // Gather from A:B laid out as one array: the map indexes it directly.
  std::array<Word, kConcat> ab;
  std::copy_n(a.begin(), kN, ab.begin());
  std::copy_n(b.begin(), kN, ab.begin() + kN);
  for (unsigned i = 0; i < kN; ++i) out[i] = ab[map[i]];
}

VwrRow shuffle_eval(isa::ShufMode mode, const VwrRow& a, const VwrRow& b) {
  VwrRow out;
  shuffle_eval(mode, a, b, out);
  return out;
}

} // namespace vwr2a::cgra
