// The artifact subsystem (src/artifact/): builder determinism, loader
// validation, corruption fuzzing (a damaged artifact is cleanly rejected
// and the fleet falls back to in-process assembly with identical results),
// hydration counters, and the ImageCache compile-once regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "artifact/builder.hpp"
#include "artifact/codec.hpp"
#include "artifact/format.hpp"
#include "artifact/store.hpp"
#include "casm/builder.hpp"
#include "casm/factories.hpp"
#include "kernels/fir.hpp"
#include "runtime/device.hpp"
#include "runtime/pool.hpp"

namespace vwr2a::artifact {
namespace {

using runtime::DevicePool;
using runtime::Job;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "vwr2a_" + name + ".vwr2art";
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(f.good());
}

/// A small, fast artifact: the baseline variant only, catalog populated by
/// a handful of jobs run on one device in trace mode. Seconds matter here
/// -- the fuzz test opens hundreds of mutated copies.
std::vector<std::uint8_t> small_artifact_bytes() {
  isa::ImageCache cache;
  runtime::Device dev(0, cache,
                      soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache});
  std::vector<std::int32_t> taps(kernels::kFirTaps, 1024);
  std::vector<std::int32_t> x(256);
  for (unsigned i = 0; i < x.size(); ++i) {
    x[i] = static_cast<std::int32_t>(i % 128) - 64;
  }
  std::uint64_t seq = 0;
  dev.run(Job{runtime::FirJob{256, runtime::make_buffer(taps),
                              runtime::make_buffer(x)},
              "fir", -1},
          seq++);
  dev.run(Job{runtime::ReduceJob{runtime::ReduceOp::kEnergy, 128,
                                 runtime::make_buffer(
                                     std::vector<std::int32_t>(128, 33))},
              "reduce", -1},
          seq++);
  return serialize_cache(cache);
}

const std::vector<std::uint8_t>& small_artifact() {
  static const std::vector<std::uint8_t> bytes = small_artifact_bytes();
  return bytes;
}

// --- format & loader ----------------------------------------------------------

/// Known answers for the payload checksum over every tail length of the
/// 8-lane interleave (0..7 bytes past each full group), so a rewrite of the
/// loop cannot silently change the digest of existing artifacts.
TEST(Artifact, ChecksumKnownAnswers) {
  constexpr std::uint64_t kDigest[18] = {
      0x1a54d5c978ab922bull, 0x91a9600fc47385d7ull, 0x8493f0ebcd9718a6ull,
      0xd9d7f607020f8e35ull, 0x0dd08c6d1ba8a24dull, 0xf2968f52ef884634ull,
      0x0c719acb912a5200ull, 0x6e53e4997ff25f95ull, 0xbd461167ac9848e6ull,
      0x0bad1380bf02d5ceull, 0xe7ab7512fad628f6ull, 0x42936dfecc40a956ull,
      0x116d4d2beebeed07ull, 0x7ef897051aad3fffull, 0x3a0b64bed6e1dcbeull,
      0x70380034fa571c0bull, 0xbbb24392054325fdull, 0x974e6a9fba8e786aull};
  std::uint8_t data[17];
  for (unsigned i = 0; i < 17; ++i) {
    data[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 37u));
  }
  for (unsigned n = 0; n <= 17; ++n) {
    EXPECT_EQ(artifact::fnv1a(data, n), kDigest[n]) << "length " << n;
  }
}

TEST(Artifact, RoundTripOpensAndVerifies) {
  const std::string path = temp_path("roundtrip");
  write_file(path, small_artifact());
  std::string why;
  const auto store = Store::open(path, &why);
  ASSERT_NE(store, nullptr) << why;
  EXPECT_GT(store->image_count(), 0u);
  EXPECT_GT(store->trace_count(), 0u);
  EXPECT_EQ(store->file_size(), small_artifact().size());
  EXPECT_TRUE(store->verify_all(&why)) << why;
  // Index keys come back sorted (the canonical order the builder wrote).
  const auto keys = store->image_keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(Artifact, HydratedImagesAreByteIdenticalToBuilt) {
  // Serialize a cache, load every entry back through the Store, and
  // re-encode: the hydrated objects must round-trip to the same bytes.
  isa::ImageCache cache;
  runtime::Device dev(0, cache,
                      soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache});
  std::vector<std::int32_t> x(128, 5);
  std::uint64_t seq = 0;
  dev.run(Job{runtime::ReduceJob{runtime::ReduceOp::kMax, 128,
                                 runtime::make_buffer(x)},
              "r", -1},
          seq++);
  const std::string path = temp_path("identity");
  write_file(path, serialize_cache(cache));
  std::string why;
  const auto store = Store::open(path, &why);
  ASSERT_NE(store, nullptr) << why;
  std::size_t checked = 0;
  cache.for_each_image([&](const std::string& key, const auto& built) {
    const auto loaded = store->load_image(key);
    ASSERT_NE(loaded, nullptr) << key;
    std::vector<std::uint8_t> a, b;
    encode_image(*built, a);
    encode_image(*loaded, b);
    EXPECT_EQ(a, b) << key;
    ++checked;
  });
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(store->counters().images_served, checked);
}

TEST(Artifact, MissingAndBogusFilesAreRejected) {
  std::string why;
  EXPECT_EQ(Store::open(temp_path("nonexistent"), &why), nullptr);
  EXPECT_FALSE(why.empty());

  const std::string path = temp_path("bogus");
  write_file(path, std::vector<std::uint8_t>(4096, 0x5a));
  EXPECT_EQ(Store::open(path, &why), nullptr);

  write_file(path, {});
  EXPECT_EQ(Store::open(path, &why), nullptr);
}

TEST(Artifact, WrongVersionAndArchTagAreRejected) {
  std::vector<std::uint8_t> bytes = small_artifact();
  // Bump the format version and refresh both checksums so only the version
  // check can reject: version gating must not depend on checksum luck.
  auto rewrite = [](std::vector<std::uint8_t> b, std::size_t off,
                    std::uint64_t value) {
    patch_u64(b, off, value);
    patch_u64(b, kOffPayloadFnv,
              fnv1a(b.data() + kHeaderBytes, b.size() - kHeaderBytes));
    patch_u64(b, kOffHeaderFnv, 0);
    patch_u64(b, kOffHeaderFnv, fnv1a(b.data(), kHeaderBytes));
    return b;
  };
  const std::string path = temp_path("version");
  std::string why;

  const std::uint64_t good_ver =
      static_cast<std::uint64_t>(kFormatVersion) |
      (static_cast<std::uint64_t>(arch_tag()) << 32);
  write_file(path, rewrite(bytes, kOffVersion, good_ver + 1));
  EXPECT_EQ(Store::open(path, &why), nullptr);
  EXPECT_NE(why.find("version"), std::string::npos) << why;

  write_file(path, rewrite(bytes, kOffVersion,
                           good_ver ^ (1ull << 40)));  // arch tag bit
  EXPECT_EQ(Store::open(path, &why), nullptr);
  EXPECT_NE(why.find("architecture"), std::string::npos) << why;
}

// --- corruption fuzz ----------------------------------------------------------

/// Every single-bit flip anywhere in the file must be rejected at open():
/// the header checksum covers the header, the payload checksum covers the
/// rest, so there are no don't-care bytes.
TEST(Artifact, FuzzBitFlipsRejectedCleanly) {
  const std::vector<std::uint8_t>& good = small_artifact();
  const std::string path = temp_path("fuzz_flip");
  std::uint64_t lcg = 0x243f6a8885a308d3ull;  // fixed seed: deterministic
  for (int trial = 0; trial < 200; ++trial) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t pos = (lcg >> 16) % good.size();
    const unsigned bit = (lcg >> 8) & 7u;
    std::vector<std::uint8_t> bad = good;
    bad[pos] ^= static_cast<std::uint8_t>(1u << bit);
    write_file(path, bad);
    std::string why;
    EXPECT_EQ(Store::open(path, &why), nullptr)
        << "bit " << bit << " at byte " << pos << " accepted";
    EXPECT_FALSE(why.empty());
  }
}

TEST(Artifact, FuzzTruncationAndOversizeRejectedCleanly) {
  const std::vector<std::uint8_t>& good = small_artifact();
  const std::string path = temp_path("fuzz_size");
  std::string why;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kHeaderBytes - 1, kHeaderBytes,
        kHeaderBytes + 7, good.size() / 2, good.size() - 1}) {
    write_file(path,
               std::vector<std::uint8_t>(good.begin(), good.begin() + n));
    EXPECT_EQ(Store::open(path, &why), nullptr) << "truncated to " << n;
  }
  for (const std::size_t extra : {std::size_t{1}, std::size_t{4096}}) {
    std::vector<std::uint8_t> bad = good;
    bad.insert(bad.end(), extra, 0);
    write_file(path, bad);
    EXPECT_EQ(Store::open(path, &why), nullptr)
        << "extended by " << extra << " bytes";
  }
}

/// A pool pointed at a corrupt artifact must run cold with bit-identical
/// results -- corruption can cost the warm start, never correctness.
TEST(Artifact, CorruptArtifactFallsBackBitIdentical) {
  std::vector<std::uint8_t> bad = small_artifact();
  bad[bad.size() / 2] ^= 0x40;
  const std::string path = temp_path("fallback");
  write_file(path, bad);

  auto run = [&](const std::string& artifact_path) {
    DevicePool::Config cfg;
    cfg.artifact_path = artifact_path;
    cfg.artifact_env = false;  // pin the pool to exactly this path
    cfg.device_arch = {
        soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache}};
    DevicePool pool(cfg);
    std::vector<std::int32_t> x(512);
    for (unsigned i = 0; i < x.size(); ++i) {
      x[i] = static_cast<std::int32_t>((i * 97) % 2048) - 1024;
    }
    auto result =
        pool.submit(Job{runtime::CfftJob{256, runtime::make_buffer(x)},
                        "cfft", -1})
            .get();
    auto stats = pool.stats();
    return std::make_pair(std::move(result), std::move(stats));
  };

  const auto [cold_result, cold_stats] = run("");
  const auto [bad_result, bad_stats] = run(path);
  EXPECT_FALSE(bad_stats.artifact_attached);  // rejected at open
  EXPECT_EQ(bad_stats.image_cache.hydrated, 0u);
  EXPECT_EQ(bad_result.output, cold_result.output);
  EXPECT_EQ(bad_result.cost.cpu_cycles, cold_result.cost.cpu_cycles);
  EXPECT_EQ(bad_result.cost.vwr2a_cycles, cold_result.cost.vwr2a_cycles);
  EXPECT_EQ(bad_result.cost.vwr2a_pj, cold_result.cost.vwr2a_pj);
}

// --- hydration ----------------------------------------------------------------

/// A two-column kernel whose columns read each other's previous-cycle RC
/// results (kRcCross). Only the per-cycle lockstep tier can replay it, and
/// the trace's has_cross fact is what selects that tier.
std::array<isa::ColumnProgram, 2> cross_programs() {
  using namespace casm;
  auto make = [](isa::RcDst dst) {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(isa::RcDst::kR0, isa::RcSrc::kVwrA,
                            isa::RcSrc::kOne)).emit();
    pb.line().rc_all(rc_add(dst, isa::RcSrc::kRcCross, isa::RcSrc::kR0)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  return {make(isa::RcDst::kVwrB), make(isa::RcDst::kVwrC)};
}

/// Every hydrated trace is field-for-field the trace compile_trace makes of
/// its program -- the derived dependence facts (per-block static SPM rows,
/// their unions, has_cross) included, so a prewarmed fleet plans the same
/// replay tiers as a cold one.
TEST(Artifact, HydratedTracesEqualCompiledTraces) {
  isa::ImageCache cache;
  populate_catalog(cache, {soc::ArchConfig{}});
  const auto cross = cross_programs();
  for (const isa::ColumnProgram& p : cross) {
    ASSERT_TRUE(cache.traces().get_or_compile("cross", p)->ok);
  }
  const std::string path = temp_path("trace_identity");
  write_file(path, serialize_cache(cache));
  std::string why;
  const auto store = Store::open(path, &why);
  ASSERT_NE(store, nullptr) << why;

  std::size_t checked = 0, with_static_rows = 0;
  cache.traces().for_each_trace([&](const std::string& variant,
                                    const isa::ColumnProgram& prog,
                                    const auto& built) {
    const auto hydrated = store->load_trace(variant, prog);
    ASSERT_NE(hydrated, nullptr) << variant;
    EXPECT_TRUE(*hydrated == *cgra::compile_trace(prog))
        << variant << " trace of " << prog.length() << " lines";
    if ((built->static_reads | built->static_writes) != 0) ++with_static_rows;
    ++checked;
  });
  EXPECT_EQ(checked, store->trace_count());
  EXPECT_GT(with_static_rows, 0u);  // the SPM-row derivation is exercised

  const auto h0 = store->load_trace("cross", cross[0]);
  const auto h1 = store->load_trace("cross", cross[1]);
  ASSERT_NE(h0, nullptr);
  ASSERT_NE(h1, nullptr);
  EXPECT_TRUE(h0->has_cross);
  EXPECT_TRUE(h1->has_cross);
  EXPECT_EQ(cgra::tc::make_sync_plan(h0.get(), h1.get()).mode,
            cgra::tc::SyncPlan::Mode::kLockstep);
  EXPECT_TRUE(store->verify_all(&why)) << why;
}

/// verify_all recompiles every stored trace from its program key: an entry
/// that parses cleanly but differs from the in-process compile (codec
/// drift) is rejected.
TEST(Artifact, VerifyRejectsTraceThatDiffersFromItsCompile) {
  // A source that serves a subtly wrong trace, which the cache then holds
  // and the serializer writes out.
  struct SkewedSource : cgra::TraceSource {
    std::shared_ptr<const cgra::CompiledTrace> load_trace(
        const std::string&, const isa::ColumnProgram& prog) override {
      auto t = std::make_shared<cgra::CompiledTrace>(*cgra::compile_trace(prog));
      t->blocks.front().fuse_self_loop = !t->blocks.front().fuse_self_loop;
      return t;
    }
  } skewed;
  isa::ImageCache cache;
  cache.traces().set_source(&skewed);
  ASSERT_TRUE(cache.traces().get_or_compile("skew", cross_programs()[0])->ok);
  cache.traces().set_source(nullptr);
  const std::string path = temp_path("skewed");
  write_file(path, serialize_cache(cache));
  std::string why;
  const auto store = Store::open(path, &why);
  ASSERT_NE(store, nullptr) << why;
  EXPECT_FALSE(store->verify_all(&why));
  EXPECT_NE(why.find("differs from compile_trace"), std::string::npos) << why;
}

/// A fleet prewarmed from an artifact replays a job stream exactly like a
/// cold fleet: same outputs, cycles and energy, and the same replay tiers
/// -- launches, rollbacks, sync points and per-tier cycles. cfft-256 runs
/// its single-chunk stages split across both columns (fft_stage_split),
/// whose static SPM overlap puts them on the scheduled tier; a hydrated
/// trace that lost its dependence facts would free-run, conflict and roll
/// back on every such launch instead.
TEST(Artifact, PrewarmedFleetTakesColdFleetReplayTiers) {
  const soc::ArchConfig arch{.exec_mode = cgra::ExecMode::kTraceCache};
  isa::ImageCache built;
  populate_catalog(built, {arch});
  const std::string path = temp_path("prewarm_tiers");
  write_file(path, serialize_cache(built));

  std::vector<Job> jobs;
  for (unsigned n : {256u, 2048u, 256u}) {
    std::vector<std::int32_t> x(2 * n);
    for (unsigned i = 0; i < x.size(); ++i) {
      x[i] = static_cast<std::int32_t>((i * 97 + n) % 2048) - 1024;
    }
    jobs.push_back(Job{runtime::CfftJob{n, runtime::make_buffer(x)}, "cfft", -1});
  }
  std::vector<std::int32_t> taps(kernels::kFirTaps, 1024);
  std::vector<std::int32_t> x(256, 77);
  jobs.push_back(Job{runtime::FirJob{256, runtime::make_buffer(taps),
                                     runtime::make_buffer(x)},
                     "fir", -1});

  auto run = [&](bool warm) {
    DevicePool::Config cfg;
    cfg.device_arch = {arch};
    cfg.artifact_path = warm ? path : "";
    cfg.artifact_env = false;
    cfg.artifact_prewarm = warm;
    DevicePool pool(cfg);
    std::vector<runtime::JobResult> results;
    for (auto& h : pool.submit_batch(jobs)) results.push_back(h.get());
    pool.wait_idle();
    return std::make_pair(std::move(results), pool.stats());
  };
  const auto [cold, cold_stats] = run(false);
  const auto [warm, warm_stats] = run(true);
  ASSERT_TRUE(warm_stats.artifact_attached);
  EXPECT_EQ(warm_stats.trace_cache.compiled, 0u);  // every trace hydrated

  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].output, cold[i].output) << "job " << i;
    EXPECT_EQ(warm[i].cost.cpu_cycles, cold[i].cost.cpu_cycles) << "job " << i;
    EXPECT_EQ(warm[i].cost.vwr2a_cycles, cold[i].cost.vwr2a_cycles) << "job " << i;
    EXPECT_EQ(warm[i].cost.vwr2a_pj, cold[i].cost.vwr2a_pj) << "job " << i;
  }
  EXPECT_GT(cold_stats.replay_sync_points, 0u);  // the scheduled tier ran
  EXPECT_EQ(warm_stats.traced_launches, cold_stats.traced_launches);
  EXPECT_EQ(warm_stats.traced_rollbacks, cold_stats.traced_rollbacks);
  EXPECT_EQ(warm_stats.replay_sync_points, cold_stats.replay_sync_points);
  EXPECT_EQ(warm_stats.replay_decoupled_cycles,
            cold_stats.replay_decoupled_cycles);
  EXPECT_EQ(warm_stats.replay_lockstep_cycles,
            cold_stats.replay_lockstep_cycles);
  EXPECT_EQ(warm_stats.replay_interpreted_cycles,
            cold_stats.replay_interpreted_cycles);
}

TEST(Artifact, PoolHydratesImagesAndTraces) {
  const std::string path = temp_path("hydrate");
  write_file(path, small_artifact());

  DevicePool::Config cfg;
  cfg.artifact_path = path;
  cfg.artifact_env = false;
  cfg.device_arch = {
      soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache}};
  DevicePool pool(cfg);
  std::vector<std::int32_t> taps(kernels::kFirTaps, 1024);
  std::vector<std::int32_t> x(256);
  for (unsigned i = 0; i < x.size(); ++i) {
    x[i] = static_cast<std::int32_t>(i % 128) - 64;
  }
  pool.submit(Job{runtime::FirJob{256, runtime::make_buffer(taps),
                                  runtime::make_buffer(x)},
                  "fir", -1})
      .get();
  const runtime::FleetStats s = pool.stats();
  EXPECT_TRUE(s.artifact_attached);
  EXPECT_GT(s.image_cache.hydrated, 0u);
  EXPECT_EQ(s.image_cache.builds, 0u);  // everything came from the artifact
  EXPECT_GT(s.trace_cache.hydrated, 0u);
  EXPECT_EQ(s.trace_cache.compiled, 0u);
  EXPECT_EQ(s.artifact_images, s.image_cache.hydrated);
  EXPECT_EQ(s.artifact_traces, s.trace_cache.hydrated);
  EXPECT_EQ(s.artifact_rejects, 0u);
}

TEST(Artifact, EnvVariableOverridesConfigPath) {
  const std::string path = temp_path("env");
  write_file(path, small_artifact());
  ASSERT_EQ(setenv("VWR2A_ARTIFACT", path.c_str(), 1), 0);
  {
    DevicePool::Config cfg;  // no artifact_path; artifact_env defaults on
    DevicePool pool(cfg);
    EXPECT_NE(pool.artifact(), nullptr);
    EXPECT_EQ(pool.artifact()->path(), path);
  }
  {
    DevicePool::Config cfg;
    cfg.artifact_env = false;  // opt out: env must be ignored
    DevicePool pool(cfg);
    EXPECT_EQ(pool.artifact(), nullptr);
  }
  ASSERT_EQ(unsetenv("VWR2A_ARTIFACT"), 0);
}

// --- ImageCache compile-once regression ---------------------------------------

/// Many threads missing the same key concurrently must run the builder
/// exactly once (the old miss path could assemble the image once per racing
/// thread and publish one winner -- wasted work that Stats::builds now
/// makes observable).
TEST(Artifact, ImageCacheBuildsOncePerKeyUnderRace) {
  isa::ImageCache cache;
  std::atomic<unsigned> builder_runs{0};
  constexpr unsigned kThreads = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &builder_runs] {
      auto img = cache.get_or_build("contended", [&builder_runs] {
        builder_runs.fetch_add(1);
        // Widen the race window: every thread reaches the once-flag
        // before the first build finishes.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        isa::KernelImage image;
        image.name = "contended";
        return image;
      });
      EXPECT_NE(img, nullptr);
      EXPECT_EQ(img->name, "contended");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builder_runs.load(), 1u);
  const auto s = cache.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_EQ(s.entries, 1u);
  // All threads must share one image object, not copies.
  EXPECT_EQ(cache.get_or_build("contended", [] {
                 ADD_FAILURE() << "rebuilt a cached key";
                 return isa::KernelImage{};
               })
                ->name,
            "contended");
}

/// The hydration hook: a source that has the key suppresses the builder; a
/// source miss falls back to building, transparently.
TEST(Artifact, ImageCacheConsultsSourceBeforeBuilding) {
  class OneKeySource : public isa::ImageSource {
   public:
    std::shared_ptr<const isa::KernelImage> load_image(
        const std::string& key) override {
      if (key != "prebuilt") return nullptr;
      auto img = std::make_shared<isa::KernelImage>();
      img->name = "from-source";
      return img;
    }
  };
  OneKeySource source;
  isa::ImageCache cache;
  cache.set_source(&source);

  EXPECT_EQ(cache.get_or_build("prebuilt", [] {
                 ADD_FAILURE() << "built a key the source holds";
                 return isa::KernelImage{};
               })
                ->name,
            "from-source");
  EXPECT_EQ(cache.get_or_build("other", [] {
                 isa::KernelImage img;
                 img.name = "built";
                 return img;
               })
                ->name,
            "built");
  const auto s = cache.stats();
  EXPECT_EQ(s.hydrated, 1u);
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.misses, 2u);
}

// --- builder determinism ------------------------------------------------------

TEST(Artifact, SerializationIsDeterministic) {
  // Two independent populate+serialize runs in this process; the CI gate
  // additionally cmp's two separate vwr2a_artifact processes.
  EXPECT_EQ(small_artifact_bytes(), small_artifact_bytes());
}

} // namespace
} // namespace vwr2a::artifact
