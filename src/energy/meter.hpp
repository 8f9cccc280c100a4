#pragma once
// Event counting and energy/power reporting.

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "common/types.hpp"
#include "energy/events.hpp"

namespace vwr2a::energy {

/// One entry of a pre-aggregated event block: `n` occurrences of `e`.
/// The trace-cache compiler folds every event a micro-op block raises into
/// a short list of these; trace replay counts block executions and adds
/// each executed block's list once per launch with add_block().
struct EventDelta {
  Event e = Event::kCount;
  std::uint64_t n = 0;
};

/// Counts architectural events and converts them to energy. One meter per
/// engine (VWR2A, FFT accelerator, CPU, system) keeps the Table-3 style
/// breakdowns separable; meters can be merged for SoC-level totals.
class EnergyMeter {
 public:
  /// Records n occurrences of event e.
  void add(Event e, std::uint64_t n = 1) {
    counts_[static_cast<unsigned>(e)] += n;
  }

  /// Records a pre-aggregated block of events `times` over: exactly
  /// equivalent to calling add(d.e, d.n * times) for every delta, which is
  /// what keeps trace-cache replay energy bit-identical to the interpreter
  /// (counts are integers; equal counts give equal energy sums).
  void add_block(std::span<const EventDelta> deltas, std::uint64_t times = 1) {
    for (const EventDelta& d : deltas) {
      counts_[static_cast<unsigned>(d.e)] += d.n * times;
    }
  }

  /// Occurrences recorded for e.
  std::uint64_t count(Event e) const { return counts_[static_cast<unsigned>(e)]; }

  /// Energy contributed by event e, in pJ.
  double event_pj(Event e) const { return static_cast<double>(count(e)) * energy_pj(e); }

  /// Total energy in pJ.
  double total_pj() const;

  /// Total energy in µJ.
  double total_uj() const { return total_pj() * 1e-6; }

  /// Energy in pJ for one Table-3 category.
  double category_pj(Category c) const;

  /// Clears all counts.
  void reset() { counts_.fill(0); }

  /// Accumulates another meter into this one.
  EnergyMeter& operator+=(const EnergyMeter& other);

 private:
  std::array<std::uint64_t, static_cast<unsigned>(Event::kCount)> counts_{};
};

/// A Table-3 style power breakdown for a run of `cycles` cycles at the
/// architectural clock.
struct PowerReport {
  double total_mw = 0.0;
  std::array<double, static_cast<unsigned>(Category::kCount)> category_mw{};
  double seconds = 0.0;
  double total_uj = 0.0;

  double category_fraction(Category c) const {
    return total_mw > 0 ? category_mw[static_cast<unsigned>(c)] / total_mw : 0.0;
  }
};

/// Builds a power report from a meter and a cycle count (80 MHz clock).
PowerReport make_power_report(const EnergyMeter& meter, Cycle cycles);

/// Multi-line human-readable dump: per-category power and percentage, in the
/// layout of the paper's Table 3.
std::string format_power_report(const PowerReport& report, const std::string& title);

/// Per-event count/energy dump for debugging and calibration.
std::string format_event_counts(const EnergyMeter& meter);

} // namespace vwr2a::energy
