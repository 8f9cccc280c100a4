#pragma once
// Configuration memory: stores kernel images; configuration words are copied
// into the units' 64-word program memories when a kernel execution starts
// (paper Sec 3.1). The synchronizer tracks which kernel each column currently
// holds so that re-launching the same kernel skips the reload.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "energy/meter.hpp"
#include "isa/program.hpp"

namespace vwr2a::mem {

/// Kernel image store with load-cost accounting.
class ConfigMem {
 public:
  explicit ConfigMem(energy::EnergyMeter& meter) : meter_(&meter) {}

  /// Registers a kernel image; returns its id. Host-side operation (images
  /// are written at system boot in the paper's platform).
  unsigned add_kernel(isa::KernelImage image) {
    return add_kernel(std::make_shared<const isa::KernelImage>(std::move(image)));
  }

  /// Registers a shared (typically cache-owned) image without copying it;
  /// a fleet of simulated devices aliases one assembled image this way.
  unsigned add_kernel(std::shared_ptr<const isa::KernelImage> image) {
    if (image == nullptr) throw HostError("ConfigMem: null kernel image");
    kernels_.push_back(std::move(image));
    return static_cast<unsigned>(kernels_.size() - 1);
  }

  /// The image for `id`.
  const isa::KernelImage& kernel(unsigned id) const {
    if (id >= kernels_.size()) throw HostError("ConfigMem: bad kernel id");
    return *kernels_[id];
  }

  /// Number of registered kernels.
  unsigned size() const { return static_cast<unsigned>(kernels_.size()); }

  /// Charges the energy of copying the image into the program memories and
  /// returns the load latency in cycles (streams fill in parallel; the
  /// longest stream bounds the latency).
  unsigned charge_load(unsigned id) {
    const auto& k = kernel(id);
    meter_->add(energy::Event::kConfigWord, k.total_words());
    return k.load_cycles();
  }

 private:
  energy::EnergyMeter* meter_;
  std::vector<std::shared_ptr<const isa::KernelImage>> kernels_;
};

} // namespace vwr2a::mem
