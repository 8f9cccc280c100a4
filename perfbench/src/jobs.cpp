#include "jobs.hpp"

#include <algorithm>
#include <cmath>

#include "app/mbiotracker.hpp"
#include "common/fixed_point.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "soc/platform.hpp"

namespace perfbench {

using namespace vwr2a;
using runtime::make_buffer;

namespace {

template <class Work>
unsigned family_of() {
  return static_cast<unsigned>(decltype(runtime::Job::work)(Work{}).index());
}

/// Interleaved complex input and its golden model input.
std::vector<std::int32_t> random_complex(unsigned n, Rng& rng,
                                         std::vector<dsp::CplxFx>& x) {
  x.resize(n);
  std::vector<std::int32_t> w(2 * n);
  for (unsigned i = 0; i < n; ++i) {
    x[i].re = fx::to_q16_15(rng.next_range(-0.4, 0.4));
    x[i].im = fx::to_q16_15(rng.next_range(-0.4, 0.4));
    w[2 * i] = x[i].re;
    w[2 * i + 1] = x[i].im;
  }
  return w;
}

std::vector<std::int32_t> flatten(const std::vector<dsp::CplxFx>& y) {
  std::vector<std::int32_t> out;
  out.reserve(2 * y.size());
  for (const dsp::CplxFx& c : y) {
    out.push_back(c.re);
    out.push_back(c.im);
  }
  return out;
}

/// Golden of the 2048-point complex FFT: the driver's two-level
/// decomposition X[k] = E[k] + W^k O[k], X[k+1024] = E[k] - W^k O[k], with
/// E/O the 1024-point golden FFTs and the driver's coefficient arithmetic
/// (tests/test_kernels_fft.cpp, Cfft2048).
std::vector<dsp::CplxFx> cfft2048_golden(const std::vector<dsp::CplxFx>& x) {
  constexpr unsigned kHalf = 1024;
  std::vector<dsp::CplxFx> ev(kHalf), od(kHalf);
  for (unsigned i = 0; i < kHalf; ++i) {
    ev[i] = x[2 * i];
    od[i] = x[2 * i + 1];
  }
  const auto fe = dsp::pease_fft_fx(ev);
  const auto fo = dsp::pease_fft_fx(od);
  constexpr double kPi = 3.14159265358979323846;
  auto wrap = [](std::uint32_t v) { return static_cast<std::int32_t>(v); };
  std::vector<dsp::CplxFx> y(2 * kHalf);
  for (unsigned k = 0; k < kHalf; ++k) {
    const std::int32_t wre = fx::to_coeff(std::cos(-2.0 * kPi * k / (2 * kHalf)));
    const std::int32_t wim = fx::to_coeff(std::sin(-2.0 * kPi * k / (2 * kHalf)));
    const std::int32_t tre =
        wrap(static_cast<std::uint32_t>(fx::fxp_mul(fo[k].re, wre)) -
             static_cast<std::uint32_t>(fx::fxp_mul(fo[k].im, wim)));
    const std::int32_t tim =
        wrap(static_cast<std::uint32_t>(fx::fxp_mul(fo[k].re, wim)) +
             static_cast<std::uint32_t>(fx::fxp_mul(fo[k].im, wre)));
    y[k] = {fe[k].re + tre, fe[k].im + tim};
    y[k + kHalf] = {fe[k].re - tre, fe[k].im - tim};
  }
  return y;
}

}  // namespace

std::vector<std::int32_t> random_q15(unsigned n, Rng& rng, double lim) {
  std::vector<std::int32_t> x(n);
  for (auto& v : x) v = fx::to_q16_15(rng.next_range(-lim, lim));
  return x;
}

CheckedJob make_cfft(unsigned n, Rng& rng) {
  std::vector<dsp::CplxFx> x;
  auto w = random_complex(n, rng, x);
  return {"cfft-" + std::to_string(n), family_of<runtime::CfftJob>(),
          runtime::Job{runtime::CfftJob{n, make_buffer(std::move(w))}, ""},
          flatten(n == 2048 ? cfft2048_golden(x) : dsp::pease_fft_fx(x))};
}

CheckedJob make_ifft(unsigned n, Rng& rng) {
  std::vector<dsp::CplxFx> x;
  auto w = random_complex(n, rng, x);
  return {"ifft-" + std::to_string(n), family_of<runtime::IfftJob>(),
          runtime::Job{runtime::IfftJob{n, make_buffer(std::move(w))}, ""},
          flatten(dsp::pease_ifft_fx(x))};
}

CheckedJob make_rfft(unsigned n, Rng& rng) {
  auto x = random_q15(n, rng, 0.4);
  auto expect = flatten(dsp::rfft_fx(x));
  return {"rfft-" + std::to_string(n), family_of<runtime::RfftJob>(),
          runtime::Job{runtime::RfftJob{n, make_buffer(std::move(x))}, ""},
          std::move(expect)};
}

CheckedJob make_fir(unsigned n, const runtime::SharedBuffer& taps, Rng& rng) {
  auto x = random_q15(n, rng, 0.9);
  auto expect = dsp::fir_fx(x, *taps);
  return {"fir-" + std::to_string(n), family_of<runtime::FirJob>(),
          runtime::Job{runtime::FirJob{n, taps, make_buffer(std::move(x))}, ""},
          std::move(expect)};
}

CheckedJob make_reduce(runtime::ReduceOp op, const runtime::SharedBuffer& input) {
  const std::vector<std::int32_t>& x = *input;
  const auto n = static_cast<unsigned>(x.size());
  std::int32_t want = 0;
  std::string name;
  switch (op) {
    case runtime::ReduceOp::kMin:
      want = *std::min_element(x.begin(), x.end());
      name = "min";
      break;
    case runtime::ReduceOp::kMax:
      want = *std::max_element(x.begin(), x.end());
      name = "max";
      break;
    case runtime::ReduceOp::kMean:
      want = dsp::mean_i32(x);
      name = "mean";
      break;
    case runtime::ReduceOp::kEnergy:
      want = dsp::energy_fx(x);
      name = "energy";
      break;
  }
  return {"reduce-" + name + "-" + std::to_string(n),
          family_of<runtime::ReduceJob>(),
          runtime::Job{runtime::ReduceJob{op, n, input}, ""},
          {want}};
}

CheckedJob make_delineation(unsigned n, Rng& rng) {
  dsp::RespirationParams p;
  p.breath_hz = 0.2 + 0.2 * rng.next_double();
  Rng sig(rng.next_u64());
  auto x = dsp::respiration_q16_15(n, p, sig);
  const std::int32_t thr = fx::to_q16_15(0.08);
  std::vector<std::int32_t> expect;
  for (const auto& e : dsp::delineate(x, thr)) {
    expect.push_back(
        static_cast<std::int32_t>((e.index << 1) | (e.is_max ? 1u : 0u)));
  }
  return {"delin-" + std::to_string(n), family_of<runtime::DelineationJob>(),
          runtime::Job{runtime::DelineationJob{n, thr, make_buffer(std::move(x))}, ""},
          std::move(expect)};
}

CheckedJob make_bio(Rng& rng) {
  dsp::RespirationParams p;
  p.breath_hz = 0.15 + 0.45 * rng.next_double();
  Rng sig(rng.next_u64());
  auto xq = dsp::respiration_q16_15(app::kWindow, p, sig);
  // Golden: a fresh platform running the window the device sees.
  std::vector<double> x(app::kWindow);
  for (unsigned i = 0; i < app::kWindow; ++i) x[i] = fx::from_q16_15(xq[i]);
  soc::Platform plat;
  app::MBioTracker tracker(plat);
  tracker.init();
  const app::AppResult golden = tracker.run(app::Target::kCpuVwr2a, x);
  std::vector<std::int32_t> expect = {
      golden.svm_class, static_cast<std::int32_t>(golden.extrema)};
  for (double f : golden.feat.as_vector()) expect.push_back(fx::to_q16_15(f));
  return {"bio-512", family_of<runtime::BioTrackerJob>(),
          runtime::Job{runtime::BioTrackerJob{app::Target::kCpuVwr2a,
                                              make_buffer(std::move(xq))},
                       ""},
          std::move(expect)};
}

std::vector<CheckedJob> make_kernel_round(Rng& rng) {
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  const auto red = make_buffer(random_q15(512, rng, 0.95));
  std::vector<CheckedJob> r;
  for (unsigned n : {512u, 1024u, 2048u}) r.push_back(make_cfft(n, rng));
  for (unsigned n : {512u, 1024u, 2048u}) r.push_back(make_rfft(n, rng));
  r.push_back(make_fir(256, taps, rng));
  r.push_back(make_ifft(512, rng));
  for (auto op : {runtime::ReduceOp::kMin, runtime::ReduceOp::kMax,
                  runtime::ReduceOp::kMean, runtime::ReduceOp::kEnergy}) {
    r.push_back(make_reduce(op, red));
  }
  r.push_back(make_delineation(1024, rng));
  r.push_back(make_bio(rng));
  return r;
}

}  // namespace perfbench
