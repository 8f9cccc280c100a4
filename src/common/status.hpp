#pragma once
// Error handling for the simulator. Architectural violations (structural
// hazards, out-of-range accesses, malformed configuration words) throw
// SimError: they indicate an invalid kernel or host program, which a real
// chip would turn into undefined behaviour. The simulator is strict instead.

#include <stdexcept>
#include <string>

namespace vwr2a {

/// Base class for all simulator-detected errors.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// A structural hazard: two units of one VLIW line contended for a
/// single-ported resource (SRF port, VWR write port) in the same cycle.
class StructuralHazard : public SimError {
 public:
  explicit StructuralHazard(const std::string& what) : SimError(what) {}
};

/// An access outside an architectural range (SPM row, VWR index, SRF entry,
/// program-memory address, ...).
class RangeError : public SimError {
 public:
  explicit RangeError(const std::string& what) : SimError(what) {}
};

/// A configuration word that does not decode to a legal instruction.
class DecodeError : public SimError {
 public:
  explicit DecodeError(const std::string& what) : SimError(what) {}
};

/// Kernel assembly error (bad label, program too long, operand misuse).
class AsmError : public SimError {
 public:
  explicit AsmError(const std::string& what) : SimError(what) {}
};

/// Host-side programming error (bad DMA descriptor, kernel id, ...).
class HostError : public SimError {
 public:
  explicit HostError(const std::string& what) : SimError(what) {}
};

} // namespace vwr2a
