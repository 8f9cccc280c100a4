#pragma once
// Seeded job inputs paired with their golden outputs. Goldens come from
// the dsp::reference models (and, for the whole-app window, a direct
// soc::Platform run), exactly as tests/test_runtime_jobs.cpp pins them.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/job.hpp"

namespace perfbench {

struct CheckedJob {
  std::string kernel;  ///< kernel_set() label (or a fleet-mix label)
  unsigned family = 0;  ///< runtime::Job::work alternative
  vwr2a::runtime::Job job;
  std::vector<std::int32_t> expect;
};

/// Random 16.15 samples in (-lim, lim).
std::vector<std::int32_t> random_q15(unsigned n, vwr2a::Rng& rng, double lim);

CheckedJob make_cfft(unsigned n, vwr2a::Rng& rng);
CheckedJob make_rfft(unsigned n, vwr2a::Rng& rng);
CheckedJob make_ifft(unsigned n, vwr2a::Rng& rng);
CheckedJob make_fir(unsigned n, const vwr2a::runtime::SharedBuffer& taps,
                    vwr2a::Rng& rng);
CheckedJob make_reduce(vwr2a::runtime::ReduceOp op,
                       const vwr2a::runtime::SharedBuffer& input);
CheckedJob make_delineation(unsigned n, vwr2a::Rng& rng);
CheckedJob make_bio(vwr2a::Rng& rng);

/// One job per kernel_set() entry, inputs drawn from `rng`.
std::vector<CheckedJob> make_kernel_round(vwr2a::Rng& rng);

}  // namespace perfbench
