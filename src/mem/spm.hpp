#pragma once
// Shared scratchpad memory: 32 KiB with a double interface (paper Sec 3.2):
// a 4096-bit row interface on the array side and a 32-bit word port on the
// system side used by the DMA (the interfaces are independent -- "double
// interface").
//
// Array-side banking: the SPM is built by concatenating narrow macros
// (Sec 5.1.1); this model gives each column its own row access per cycle
// (per-column banking), which is what lets the two columns run synchronized
// kernels with identical LSU schedules. The LSU is a column's only array-
// side client and issues one operation per VLIW line, so one access per
// column per cycle holds by construction. Array-side accesses carry no
// energy here: a column charges each line's events as one block
// (cgra/line.hpp).

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "energy/meter.hpp"

namespace vwr2a::mem {

/// The VWR2A scratchpad. Word addresses are in words (not bytes).
class Spm {
 public:
  using Row = std::array<Word, arch::kVwrWords>;

  explicit Spm(energy::EnergyMeter& meter) : meter_(&meter) {
    data_.resize(arch::kSpmWords, 0);
    row_version_.resize(arch::kSpmRows, 0);
  }

  /// System-side word read (DMA out). Independent interface.
  Word read_word_system(unsigned word) {
    check_word(word);
    meter_->add(energy::Event::kSpmWordRead);
    return data_[word];
  }

  /// System-side word write (DMA in).
  void write_word_system(unsigned word, Word v) {
    check_word(word);
    meter_->add(energy::Event::kSpmWordWrite);
    touch_row(word / arch::kVwrWords);
    data_[word] = v;
  }

  // --- system-side bulk transfers (stride-1 DMA fast path) --------------------
  // Exactly equivalent to n calls of the word methods above: same energy
  // counts, and -- crucially for the residency machinery -- the same row
  // stamp values (each written word advances the shared generation; a row's
  // stamp ends at the generation of the last word written into it).

  /// Reads n consecutive words (caller checked the range).
  void read_words_system(unsigned first, Word* dst, unsigned n) {
    meter_->add(energy::Event::kSpmWordRead, n);
    std::copy_n(data_.begin() + first, n, dst);
  }

  /// Writes n consecutive words (caller checked the range).
  void write_words_system(unsigned first, const Word* src, unsigned n) {
    meter_->add(energy::Event::kSpmWordWrite, n);
    const std::uint64_t gen0 = write_gen_;
    write_gen_ += n;
    const unsigned last = first + n - 1;
    for (unsigned r = first / arch::kVwrWords; r <= last / arch::kVwrWords; ++r) {
      // Index (within the transfer) of the last word landing in row r.
      const unsigned li = std::min(last, (r + 1) * arch::kVwrWords - 1) - first;
      row_version_[r] = gen0 + li + 1;
    }
    std::copy_n(src, n, data_.begin() + first);
  }

  /// True when all n strided words lie inside the SPM.
  bool words_system_ok(unsigned first, std::int32_t stride,
                       std::uint32_t n) const {
    if (n == 0) return false;
    const std::int64_t last =
        static_cast<std::int64_t>(first) +
        static_cast<std::int64_t>(stride) * (static_cast<std::int64_t>(n) - 1);
    return std::min<std::int64_t>(first, last) >= 0 &&
           std::max<std::int64_t>(first, last) <
               static_cast<std::int64_t>(arch::kSpmWords);
  }

  /// Strided system-side read (caller checked words_system_ok).
  void read_words_system_strided(unsigned first, std::int32_t stride,
                                 std::uint32_t n, Word* dst) {
    meter_->add(energy::Event::kSpmWordRead, n);
    std::int64_t a = first;
    for (std::uint32_t i = 0; i < n; ++i, a += stride) dst[i] = data_[a];
  }

  /// Strided system-side write (caller checked words_system_ok). Row stamps
  /// advance per word in beat order, exactly like write_word_system.
  void write_words_system_strided(unsigned first, std::int32_t stride,
                                  std::uint32_t n, const Word* src) {
    meter_->add(energy::Event::kSpmWordWrite, n);
    std::int64_t a = first;
    for (std::uint32_t i = 0; i < n; ++i, a += stride) {
      data_[a] = src[i];
      row_version_[static_cast<unsigned>(a) / arch::kVwrWords] = ++write_gen_;
    }
  }

  // --- array side ------------------------------------------------------------
  // The columns' LSU path. Range checks throw RangeError; writes advance the
  // row stamps like every other write path.

  /// Row data pointer for a whole-row read.
  const Word* array_row(unsigned row) const {
    check_row(row);
    return data_.data() + row * arch::kVwrWords;
  }

  /// Whole-row write.
  void array_write_row(unsigned row, const Row& v) {
    check_row(row);
    touch_row(row);
    std::copy_n(v.begin(), arch::kVwrWords, data_.begin() + row * arch::kVwrWords);
  }

  /// Scalar word read (LSU -> SRF path).
  Word array_read_word(unsigned word) const {
    check_word(word);
    return data_[word];
  }

  /// Scalar word write (SRF -> SPM path).
  void array_write_word(unsigned word, Word v) {
    check_word(word);
    touch_row(word / arch::kVwrWords);
    data_[word] = v;
  }

  /// Range checks of the array-side addresses, exposed so a column can
  /// fault a line before it changes any state.
  static void check_row(unsigned row) {
    if (row >= arch::kSpmRows) throw RangeError("SPM: row out of range");
  }
  static void check_word(unsigned word) {
    if (word >= arch::kSpmWords) throw RangeError("SPM: word out of range");
  }

  // --- rollback support -------------------------------------------------------
  // The trace replayer runs a two-column kernel with the columns decoupled
  // and rolls the SPM back when the row-access masks turn out to conflict
  // (see cgra/tracecache.hpp). Restoring is pure simulator bookkeeping.

  /// Current global write generation (for checkpointing).
  std::uint64_t write_gen() const { return write_gen_; }

  /// Restores one row's data and stamp from a checkpoint.
  void trace_restore_row(unsigned row, const Row& data, std::uint64_t version) {
    check_row(row);
    std::copy_n(data.begin(), arch::kVwrWords,
                data_.begin() + row * arch::kVwrWords);
    row_version_[row] = version;
  }

  /// Restores the global write generation from a checkpoint.
  void trace_restore_write_gen(std::uint64_t gen) { write_gen_ = gen; }

  /// Debug/testing backdoor, no port or energy accounting.
  Word peek(unsigned word) const {
    check_word(word);
    return data_[word];
  }
  void poke(unsigned word, Word v) {
    check_word(word);
    touch_row(word / arch::kVwrWords);
    data_[word] = v;
  }

  // --- write stamps -----------------------------------------------------------
  // Every write path bumps a monotone per-row stamp (a shared generation
  // counter), so a driver that staged a region can later prove "nothing
  // touched these rows since" by comparing stamps -- the mechanism behind
  // runtime::Device's SPM residency tracking and cross-job staging dedup.
  // Stamps are simulator bookkeeping, not architectural state: they cost no
  // cycles or energy.

  /// Write stamp of one row (0 = never written).
  std::uint64_t row_version(unsigned row) const {
    check_row(row);
    return row_version_[row];
  }

  /// Newest write stamp over rows [first_row, first_row + nrows).
  std::uint64_t region_version(unsigned first_row, unsigned nrows) const {
    if (first_row + nrows > arch::kSpmRows) {
      throw RangeError("SPM: region_version out of range");
    }
    std::uint64_t v = 0;
    for (unsigned r = first_row; r < first_row + nrows; ++r) {
      v = std::max(v, row_version_[r]);
    }
    return v;
  }

 private:
  void touch_row(unsigned row) { row_version_[row] = ++write_gen_; }

  energy::EnergyMeter* meter_;
  std::vector<Word> data_;
  std::vector<std::uint64_t> row_version_;
  std::uint64_t write_gen_ = 0;
};

} // namespace vwr2a::mem
