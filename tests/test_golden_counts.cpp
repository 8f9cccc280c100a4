// Golden cycle and energy-event counts of the paper's kernel set on the
// reference interpreter. Every kernel runs on one interpret-mode
// runtime::Device with fixed-seed inputs; the test pins the VWR2A cycles,
// the interpreted column-cycles and every nonzero per-Event count of the
// VWR2A meter as exact integers.
//
// The trace compiler and the interpreter share one static line analysis
// (cgra/line.hpp), so the interp-vs-trace differential tests cannot catch
// a mistake in that analysis: both engines would make it together. These
// numbers can. A deliberate change to the cost model updates them here, in
// the same change, with the reason.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/mbiotracker.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "isa/image_cache.hpp"
#include "runtime/device.hpp"

namespace vwr2a::runtime {
namespace {

using energy::Event;

struct Golden {
  std::string kernel;
  std::uint64_t vwr2a_cycles = 0;
  std::uint64_t column_cycles = 0;
  /// Nonzero VWR2A meter counts, by energy::to_string(Event) name.
  std::vector<std::pair<std::string, std::uint64_t>> events;
};

std::vector<std::int32_t> random_q15(unsigned n, Rng& rng, double lim) {
  std::vector<std::int32_t> x(n);
  for (auto& v : x) v = fx::to_q16_15(rng.next_range(-lim, lim));
  return x;
}

std::vector<std::int32_t> random_complex(unsigned n, Rng& rng) {
  return random_q15(2 * n, rng, 0.4);
}

/// The kernel set, inputs drawn in order from one seeded generator.
std::vector<std::pair<std::string, Job>> kernel_set() {
  Rng rng(20240513);
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  const auto red = make_buffer(random_q15(512, rng, 0.95));
  std::vector<std::pair<std::string, Job>> jobs;
  for (unsigned n : {512u, 2048u}) {
    jobs.push_back({"cfft-" + std::to_string(n),
                    Job{CfftJob{n, make_buffer(random_complex(n, rng))}, ""}});
  }
  jobs.push_back({"rfft-512",
                  Job{RfftJob{512, make_buffer(random_q15(512, rng, 0.4))}, ""}});
  jobs.push_back({"ifft-512",
                  Job{IfftJob{512, make_buffer(random_complex(512, rng))}, ""}});
  jobs.push_back(
      {"fir-256",
       Job{FirJob{256, taps, make_buffer(random_q15(256, rng, 0.9))}, ""}});
  jobs.push_back({"reduce-min-512", Job{ReduceJob{ReduceOp::kMin, 512, red}, ""}});
  jobs.push_back(
      {"reduce-mean-512", Job{ReduceJob{ReduceOp::kMean, 512, red}, ""}});
  {
    dsp::RespirationParams p;
    p.breath_hz = 0.25;
    Rng sig(rng.next_u64());
    jobs.push_back(
        {"delin-1024",
         Job{DelineationJob{1024, fx::to_q16_15(0.08),
                            make_buffer(dsp::respiration_q16_15(1024, p, sig))},
             ""}});
  }
  {
    dsp::RespirationParams p;
    p.breath_hz = 0.3;
    Rng sig(rng.next_u64());
    jobs.push_back(
        {"bio-512",
         Job{BioTrackerJob{app::Target::kCpuVwr2a,
                           make_buffer(dsp::respiration_q16_15(app::kWindow, p,
                                                               sig))},
             ""}});
  }
  return jobs;
}

std::vector<Golden> measure() {
  isa::ImageCache cache;
  Device dev(0, cache, soc::ArchConfig{.exec_mode = cgra::ExecMode::kInterpret});
  const energy::EnergyMeter& meter = dev.platform().vwr2a().meter();
  std::vector<Golden> out;
  std::uint64_t seq = 0;
  for (const auto& [name, job] : kernel_set()) {
    const energy::EnergyMeter before = meter;
    const std::uint64_t icyc0 = dev.replay_stats().interpreted_cycles;
    const JobResult r = dev.run(job, seq++);
    Golden g;
    g.kernel = name;
    g.vwr2a_cycles = r.cost.vwr2a_cycles;
    g.column_cycles = dev.replay_stats().interpreted_cycles - icyc0;
    for (unsigned e = 0; e < static_cast<unsigned>(Event::kCount); ++e) {
      const std::uint64_t n =
          meter.count(static_cast<Event>(e)) - before.count(static_cast<Event>(e));
      if (n != 0) g.events.push_back({energy::to_string(static_cast<Event>(e)), n});
    }
    out.push_back(std::move(g));
  }
  return out;
}

/// The golden table in source form, so a deliberate cost-model change can
/// paste the printed replacement.
std::string to_source(const Golden& g) {
  std::string s = "    {\"" + g.kernel + "\", " + std::to_string(g.vwr2a_cycles) +
                  ", " + std::to_string(g.column_cycles) + ", {";
  for (std::size_t i = 0; i < g.events.size(); ++i) {
    s += (i ? ", " : "") + std::string("{\"") + g.events[i].first + "\", " +
         std::to_string(g.events[i].second) + "}";
  }
  return s + "}},";
}

TEST(GoldenCounts, KernelSetCyclesAndEventsAreExact) {
  const std::vector<Golden> want = {
    {"cfft-512", 8665, 7730,
     {{"spm_row_read", 314}, {"spm_row_write", 226},
      {"spm_word_read", 1024}, {"spm_word_write", 1536},
      {"vwr_row_write", 426}, {"vwr_word_read", 56320},
      {"vwr_word_write", 28160}, {"srf_read", 296}, {"srf_write", 184},
      {"alu_op", 15872}, {"alu_fxpmul", 12288}, {"shuffle_op", 112},
      {"instr_fetch_rc", 30920}, {"instr_fetch_ctrl", 23190},
      {"pc_update", 7730}, {"config_word", 6223}, {"leak_cycle", 8665},
      {"dma_setup", 8}, {"dma_beat", 2560}, {"irq", 29}}},
    {"cfft-2048", 50092, 37128,
     {{"spm_row_read", 1476}, {"spm_row_write", 1060},
      {"spm_word_read", 8192}, {"spm_word_write", 12288},
      {"vwr_row_write", 1972}, {"vwr_word_read", 271360},
      {"vwr_word_write", 135680}, {"srf_read", 1400}, {"srf_write", 824},
      {"alu_op", 76800}, {"alu_fxpmul", 58880}, {"shuffle_op", 496},
      {"instr_fetch_rc", 148512}, {"instr_fetch_ctrl", 111384},
      {"pc_update", 37128}, {"config_word", 14252}, {"leak_cycle", 50092},
      {"dma_setup", 104}, {"dma_beat", 20480}, {"irq", 200}}},
    {"rfft-512", 8078, 5154,
     {{"spm_row_read", 205}, {"spm_row_write", 147},
      {"spm_word_read", 1024}, {"spm_word_write", 2304},
      {"vwr_row_write", 269}, {"vwr_word_read", 35584},
      {"vwr_word_write", 17792}, {"srf_read", 180}, {"srf_write", 176},
      {"rc_rf_read", 1024}, {"rc_rf_write", 1024}, {"alu_op", 11008},
      {"alu_fxpmul", 7808}, {"shuffle_op", 64}, {"instr_fetch_rc", 20616},
      {"instr_fetch_ctrl", 15462}, {"pc_update", 5154},
      {"config_word", 4130}, {"leak_cycle", 8078}, {"dma_setup", 16},
      {"dma_beat", 3328}, {"irq", 34}}},
    {"ifft-512", 9307, 8320,
     {{"spm_row_read", 326}, {"spm_row_write", 238},
      {"spm_word_read", 1024}, {"spm_word_write", 1536},
      {"vwr_row_write", 438}, {"vwr_word_read", 57856},
      {"vwr_word_write", 29696}, {"srf_read", 332}, {"srf_write", 199},
      {"rc_rf_read", 512}, {"rc_rf_write", 512}, {"alu_op", 17920},
      {"alu_fxpmul", 12288}, {"shuffle_op", 112},
      {"instr_fetch_rc", 33280}, {"instr_fetch_ctrl", 24960},
      {"pc_update", 8320}, {"config_word", 6419}, {"leak_cycle", 9307},
      {"dma_setup", 8}, {"dma_beat", 2560}, {"irq", 32}}},
    {"fir-256", 2148, 1422,
     {{"spm_row_read", 545}, {"spm_row_write", 3}, {"spm_word_read", 256},
      {"spm_word_write", 387}, {"vwr_row_write", 3},
      {"vwr_word_read", 2904}, {"vwr_word_write", 264}, {"srf_read", 2913},
      {"srf_write", 547}, {"rc_rf_read", 5280}, {"rc_rf_write", 5280},
      {"alu_op", 2640}, {"alu_fxpmul", 2904}, {"instr_fetch_rc", 5688},
      {"instr_fetch_ctrl", 4266}, {"pc_update", 1422},
      {"config_word", 504}, {"leak_cycle", 2148}, {"dma_setup", 26},
      {"dma_beat", 643}, {"irq", 27}}},
    {"reduce-min-512", 5916, 5094,
     {{"spm_row_read", 72}, {"spm_word_write", 512}, {"vwr_row_write", 72},
      {"vwr_word_read", 9216}, {"srf_read", 9378}, {"srf_write", 126},
      {"rc_rf_read", 18576}, {"rc_rf_write", 18630}, {"alu_op", 18648},
      {"instr_fetch_rc", 20376}, {"instr_fetch_ctrl", 15282},
      {"pc_update", 5094}, {"config_word", 98}, {"leak_cycle", 5916},
      {"dma_setup", 1}, {"dma_beat", 512}, {"irq", 19}}},
    {"reduce-mean-512", 178, 155,
     {{"spm_row_read", 4}, {"vwr_row_write", 4}, {"vwr_word_read", 512},
      {"srf_read", 9}, {"srf_write", 6}, {"rc_rf_read", 520},
      {"rc_rf_write", 523}, {"alu_op", 524}, {"instr_fetch_rc", 620},
      {"instr_fetch_ctrl", 465}, {"pc_update", 155}, {"config_word", 91},
      {"leak_cycle", 178}, {"irq", 1}}},
    {"delin-1024", 18672, 18091,
     {{"spm_row_read", 2748}, {"spm_row_write", 276},
      {"spm_word_read", 21}, {"spm_word_write", 1027},
      {"vwr_row_write", 8}, {"vwr_word_read", 3840},
      {"vwr_word_write", 1045}, {"srf_read", 6469}, {"srf_write", 3613},
      {"rc_rf_read", 4800}, {"rc_rf_write", 4800}, {"alu_op", 4885},
      {"alu_mul", 960}, {"instr_fetch_rc", 72364},
      {"instr_fetch_ctrl", 54273}, {"pc_update", 18091},
      {"config_word", 686}, {"leak_cycle", 18672}, {"dma_setup", 3},
      {"dma_beat", 1048}, {"irq", 5}}},
    {"bio-512", 24174, 22174,
     {{"spm_row_read", 2173}, {"spm_row_write", 280},
      {"spm_word_read", 523}, {"spm_word_write", 3338},
      {"vwr_row_write", 549}, {"vwr_word_read", 84022},
      {"vwr_word_write", 29339}, {"srf_read", 16617}, {"srf_write", 2238},
      {"rc_rf_read", 42365}, {"rc_rf_write", 42443}, {"alu_op", 46571},
      {"alu_mul", 480}, {"alu_fxpmul", 24758}, {"shuffle_op", 104},
      {"instr_fetch_rc", 88696}, {"instr_fetch_ctrl", 66522},
      {"pc_update", 22174}, {"config_word", 8001}, {"leak_cycle", 24174},
      {"dma_setup", 60}, {"dma_beat", 3861}, {"irq", 108}}},
  };
  const std::vector<Golden> got = measure();
  ASSERT_EQ(got.size(), want.size()) << [&] {
    std::string s = "measured:\n";
    for (const Golden& g : got) s += to_source(g) + "\n";
    return s;
  }();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Golden& g = got[i];
    const Golden& w = want[i];
    SCOPED_TRACE(g.kernel);
    EXPECT_EQ(g.kernel, w.kernel);
    EXPECT_EQ(g.vwr2a_cycles, w.vwr2a_cycles);
    EXPECT_EQ(g.column_cycles, w.column_cycles);
    EXPECT_EQ(g.events, w.events) << "measured: " << to_source(g);
  }
}

}  // namespace
}  // namespace vwr2a::runtime
