#include "runtime/device.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/fixed_point.hpp"
#include "common/status.hpp"
#include "dma/dma.hpp"
#include "obs/trace.hpp"
#include "runtime/checkpoint.hpp"

namespace vwr2a::runtime {

namespace {

/// 18-bit signal range the reduction bisection resolves (reduce.hpp).
constexpr std::int32_t kReduceLo = -(1 << 17);
constexpr std::int32_t kReduceHi = (1 << 17) - 1;

} // namespace

Device::Device(unsigned id, isa::ImageCache& cache, const soc::ArchConfig& arch,
               const Options& opts)
    : id_(id),
      platform_(arch),
      cache_(&cache),
      host_(platform_.vwr2a(), platform_.sram(), &platform_.cpu(),
            arch.name() + "/"),
      fir_(host_, &cache),
      fft_(host_, &cache),
      reduce_(host_, &cache),
      delin_(host_, &cache),
      data_base_(kFftTableBase + kernels::FftKernels::table_words()),
      opts_(opts) {
  // Share one compiled-trace cache fleet-wide, like the image cache.
  platform_.vwr2a().set_trace_cache(&cache.traces());
  fir_.prepare(kFirScratchBase);
  fft_.prepare(kFftTableBase);
}

JobResult Device::run(const Job& job, std::uint64_t seq) {
  const soc::Platform::Snapshot before = platform_.snapshot();
  // device.run span: a1 = device id, a2 = stagings this job, a3 = engine
  // (1 = trace-cache, 0 = interpreter); sim timestamps are the device's
  // local clock before the job and the job's cycle delta.
  obs::Span span(
      "device.run", job.trace_id, id_, 0,
      platform_.arch().exec_mode == cgra::ExecMode::kTraceCache ? 1 : 0);
  const std::uint64_t stagings0 = stagings_;
  JobResult r = std::visit(
      [this](const auto& w) -> JobResult {
        using T = std::decay_t<decltype(w)>;
        if constexpr (std::is_same_v<T, FirJob>) return run_fir(w);
        else if constexpr (std::is_same_v<T, CfftJob>) return run_cfft(w);
        else if constexpr (std::is_same_v<T, RfftJob>) return run_rfft(w);
        else if constexpr (std::is_same_v<T, IfftJob>) return run_ifft(w);
        else if constexpr (std::is_same_v<T, ReduceJob>) return run_reduce(w);
        else if constexpr (std::is_same_v<T, DelineationJob>) {
          return run_delineation(w);
        } else if constexpr (std::is_same_v<T, PipelineJob>) {
          return run_pipeline(w);
        } else {
          return run_bio(w);
        }
      },
      job.work);
  r.cost = soc::Platform::delta(before, platform_.snapshot());
  r.device = id_;
  r.seq = seq;
  r.tag = job.tag;
  ++jobs_;
  if (span.active()) {
    span.set_sim(before.total_cycles(), r.cost.total_cycles());
    span.set_args(
        id_, stagings_ - stagings0,
        platform_.arch().exec_mode == cgra::ExecMode::kTraceCache ? 1 : 0);
  }
  return r;
}

void Device::check_sys_fit(unsigned end_word) const {
  if (end_word > kBioBase) {
    throw HostError(
        "Device: job data region would overlap the resident app image at "
        "kBioBase");
  }
}

void Device::stage_rows(const SharedBuffer& buf) {
  const std::vector<std::int32_t>& data = *buf;
  check_sys_fit(data_base_ + static_cast<unsigned>(data.size()));
  const unsigned nrows =
      static_cast<unsigned>(data.size()) / arch::kVwrWords;
  mem::Spm& spm = platform_.vwr2a().spm();
  // Cross-job input dedup: the same shared buffer staged into rows whose
  // write stamps are unchanged is still resident -- skip the copy and DMA.
  // (Holding the shared_ptr pins the allocation, so pointer identity cannot
  // be recycled under us.)
  if (opts_.dedup && staged_buf_ == buf &&
      spm.region_version(0, nrows) == staged_version_) {
    return;
  }
  {
    obs::Span stage("device.stage", 0, id_, data.size());
    host_.to_sram(data_base_, data);
    host_.dma({dma::Dir::kSysToSpm, data_base_, 0,
               static_cast<std::uint32_t>(data.size()), 1, 1});
  }
  ++stagings_;
  staged_buf_ = buf;
  staged_version_ = spm.region_version(0, nrows);
}

unsigned Device::fir_begin(const FirJob& job, unsigned& out_word) {
  if (job.taps == nullptr || job.input == nullptr) {
    throw HostError("Device: FIR job with null buffers");
  }
  if (job.input->size() != job.n) {
    throw HostError("Device: FIR job input size != n");
  }
  const unsigned in = data_base_;
  out_word = data_base_ + job.n;
  check_sys_fit(out_word + job.n);
  host_.to_sram(in, *job.input);
  ++stagings_;
  mem::Spm& spm = platform_.vwr2a().spm();
  const bool resident = opts_.dedup && staged_taps_ == job.taps &&
                        spm.row_version(kernels::kFirTapRow) == taps_version_;
  const unsigned kid = fir_.fir11_begin(job.n, *job.taps, in, resident);
  if (!resident) {
    obs::instant("device.stage", 0, id_, job.taps->size());
    ++stagings_;
    staged_taps_ = job.taps;
    taps_version_ = spm.row_version(kernels::kFirTapRow);
  }
  return kid;
}

void Device::run_fir_group(Device* const* devs, const Job* const* jobs,
                           const std::uint64_t* seqs, std::size_t n,
                           std::vector<JobResult>& results,
                           std::vector<std::exception_ptr>& errors) {
  results.assign(n, JobResult{});
  errors.assign(n, nullptr);
  obs::Span span("device.run_group", 0, static_cast<std::uint64_t>(n));

  std::vector<soc::Platform::Snapshot> before(n);
  std::vector<unsigned> kid(n, 0);
  std::vector<unsigned> out(n, 0);
  std::vector<std::uint64_t> stg0(n, 0);
  std::vector<char> live(n, 0);

  // Phase 1: bring every lane to the launch point (validation + staging are
  // device-local and precede any launch, exactly as in the scalar path). A
  // malformed job fails only its own lane -- validation throws before the
  // device is touched.
  for (std::size_t i = 0; i < n; ++i) {
    Device& d = *devs[i];
    before[i] = d.snapshot();
    stg0[i] = d.stagings_;
    try {
      const FirJob* fj = std::get_if<FirJob>(&jobs[i]->work);
      if (fj == nullptr) throw HostError("Device: non-FIR job in a FIR group");
      kid[i] = d.fir_begin(*fj, out[i]);
      live[i] = 1;
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }

  // Phase 2: launch. Lanes whose device is warm on this kernel's compiled
  // decoupled trace replay together; the rest (cold caches, interpret-mode
  // devices, attached tracers, lockstep plans) launch scalar. The batch
  // replayer re-verifies homogeneity against its lane 0 and peels any
  // divergent lane off to an exact scalar replay, so eligibility here is a
  // throughput decision, never a correctness one.
  std::vector<cgra::Vwr2a*> batch;
  std::vector<unsigned> batch_kid;
  std::vector<std::size_t> batch_lane;
  for (std::size_t i = 0; i < n; ++i) {
    if (!live[i]) continue;
    Device& d = *devs[i];
    cgra::Vwr2a& acc = d.platform_.vwr2a();
    std::array<const void*, arch::kNumColumns> key;
    if (cgra::tc::BatchReplayer::identity(acc, kid[i], key)) {
      d.host_.charge_control();  // the host cost host_.run would charge
      batch.push_back(&acc);
      batch_kid.push_back(kid[i]);
      batch_lane.push_back(i);
    } else {
      try {
        d.host_.run(kid[i]);
      } catch (...) {
        errors[i] = std::current_exception();
        live[i] = 0;
      }
    }
  }
  if (!batch.empty()) {
    try {
      cgra::tc::BatchReplayer::run(batch.data(), batch_kid.data(),
                                   batch.size());
    } catch (...) {
      // A replay fault escaping the batch (impossible for the shipped FIR
      // programs, which the identity fuzz covers; defensive): the replayer
      // finished or rolled back every lane before rethrowing, but lane
      // attribution is lost -- fail the batched lanes rather than guess.
      for (std::size_t i : batch_lane) {
        errors[i] = std::current_exception();
        live[i] = 0;
      }
    }
  }

  // Phase 3: per-lane epilogue (output DMAs, result assembly, bookkeeping),
  // device-local again.
  for (std::size_t i = 0; i < n; ++i) {
    if (!live[i]) continue;
    Device& d = *devs[i];
    try {
      const FirJob& fj = std::get<FirJob>(jobs[i]->work);
      d.fir_.fir11_finish(fj.n, out[i]);
      JobResult r;
      r.launches = 1;
      r.output = d.host_.from_sram(out[i], fj.n);
      r.cost = soc::Platform::delta(before[i], d.snapshot());
      r.device = d.id_;
      r.seq = seqs[i];
      r.tag = jobs[i]->tag;
      ++d.jobs_;
      obs::instant("device.run", jobs[i]->trace_id, d.id_,
                   r.cost.total_cycles(), d.stagings_ - stg0[i]);
      results[i] = std::move(r);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }
}

ReplayStats Device::replay_stats() const {
  const cgra::Vwr2a& acc = platform_.vwr2a();
  ReplayStats r;
  r.traced_launches = acc.traced_launches();
  r.traced_rollbacks = acc.traced_rollbacks();
  r.batched_launches = acc.batched_launches();
  r.decoupled_cycles = acc.replayed_decoupled_cycles();
  r.lockstep_cycles = acc.replayed_lockstep_cycles();
  r.interpreted_cycles = acc.interpreted_cycles();
  r.sync_points = acc.sync_points();
  return r;
}

kernels::FirRunStats Device::run_fir11(unsigned n, const SharedBuffer& taps,
                                       unsigned sys_in, unsigned sys_out) {
  mem::Spm& spm = platform_.vwr2a().spm();
  const bool resident = opts_.dedup && staged_taps_ == taps &&
                        spm.row_version(kernels::kFirTapRow) == taps_version_;
  const kernels::FirRunStats stats =
      fir_.fir11(n, *taps, sys_in, sys_out, resident);
  if (!resident) {
    obs::instant("device.stage", 0, id_, taps->size());
    ++stagings_;
    staged_taps_ = taps;
    taps_version_ = spm.row_version(kernels::kFirTapRow);
  }
  return stats;
}

JobResult Device::run_fir(const FirJob& job) {
  if (job.taps == nullptr || job.input == nullptr) {
    throw HostError("Device: FIR job with null buffers");
  }
  if (job.input->size() != job.n) {
    throw HostError("Device: FIR job input size != n");
  }
  const unsigned in = data_base_;
  const unsigned out = data_base_ + job.n;
  check_sys_fit(out + job.n);
  host_.to_sram(in, *job.input);
  ++stagings_;
  JobResult r;
  const kernels::FirRunStats stats = run_fir11(job.n, job.taps, in, out);
  r.launches = stats.launches;
  r.output = host_.from_sram(out, job.n);
  return r;
}

JobResult Device::run_cfft(const CfftJob& job) {
  if (job.input == nullptr) throw HostError("Device: FFT job with null input");
  if (job.input->size() != 2ull * job.n) {
    throw HostError("Device: FFT job input size != 2n");
  }
  const unsigned in = data_base_;
  const unsigned out = in + 2 * job.n;
  const unsigned scratch = out + 2 * job.n;  // used only for n == 2048
  check_sys_fit(scratch + 2 * job.n);
  host_.to_sram(in, *job.input);
  ++stagings_;
  JobResult r;
  const kernels::FftRunStats stats = fft_.cfft(job.n, in, out, scratch);
  r.launches = stats.launches;
  r.output = host_.from_sram(out, 2 * job.n);
  return r;
}

JobResult Device::run_rfft(const RfftJob& job) {
  if (job.input == nullptr) throw HostError("Device: rFFT job with null input");
  if (job.input->size() != job.n) {
    throw HostError("Device: rFFT job input size != n");
  }
  const unsigned in = data_base_;
  const unsigned out = in + job.n;
  const unsigned scratch = out + job.n + 2;
  check_sys_fit(scratch + 2 * job.n);
  host_.to_sram(in, *job.input);
  ++stagings_;
  JobResult r;
  const kernels::FftRunStats stats = fft_.rfft(job.n, in, out, scratch);
  r.launches = stats.launches;
  r.output = host_.from_sram(out, job.n + 2);  // n/2+1 interleaved bins
  return r;
}

JobResult Device::run_ifft(const IfftJob& job) {
  if (job.input == nullptr) throw HostError("Device: iFFT job with null input");
  if (job.input->size() != 2ull * job.n) {
    throw HostError("Device: iFFT job input size != 2n");
  }
  const unsigned in = data_base_;
  const unsigned out = in + 2 * job.n;
  check_sys_fit(out + 2 * job.n);
  host_.to_sram(in, *job.input);
  ++stagings_;
  JobResult r;
  const kernels::FftRunStats stats = fft_.cifft(job.n, in, out);
  r.launches = stats.launches;
  r.output = host_.from_sram(out, 2 * job.n);
  return r;
}

JobResult Device::run_reduce(const ReduceJob& job) {
  if (job.input == nullptr) {
    throw HostError("Device: reduce job with null input");
  }
  if (job.n == 0 || job.n % arch::kVwrWords != 0 || job.n > 4096) {
    throw HostError("Device: reduce job n must be a multiple of 128, <= 4096");
  }
  if (job.input->size() != job.n) {
    throw HostError("Device: reduce job input size != n");
  }
  for (std::int32_t v : *job.input) {
    if (v < kReduceLo || v > kReduceHi) {
      throw HostError("Device: reduce job value outside the 18-bit range");
    }
  }
  const unsigned nrows = job.n / arch::kVwrWords;
  stage_rows(job.input);
  JobResult r;
  std::int32_t value = 0;
  switch (job.op) {
    case ReduceOp::kMin:
      value = reduce_.min_rows(0, nrows);
      r.launches = kernels::kBisectLaunches;
      break;
    case ReduceOp::kMax:
      value = reduce_.max_rows(0, nrows);
      r.launches = kernels::kBisectLaunches;
      break;
    case ReduceOp::kMean:
      // 32-bit wrap sum on the array (exact: |sum| < 2^29 for in-range
      // inputs), truncating divide on the host -- dsp::mean_i32 semantics.
      value = reduce_.sum_rows(0, nrows) / static_cast<std::int32_t>(job.n);
      r.launches = 1;
      break;
    case ReduceOp::kEnergy:
      value = reduce_.sumsq_rows(0, nrows);
      r.launches = 1;
      break;
  }
  r.output = {value};
  return r;
}

JobResult Device::run_delineation(const DelineationJob& job) {
  if (job.input == nullptr) {
    throw HostError("Device: delineation job with null input");
  }
  if (job.n == 0 || job.n % arch::kVwrWords != 0 || job.n > 2048) {
    throw HostError(
        "Device: delineation job n must be a multiple of 128, <= 2048");
  }
  if (job.input->size() != job.n) {
    throw HostError("Device: delineation job input size != n");
  }
  stage_rows(job.input);
  const unsigned scratch = data_base_ + job.n;
  check_sys_fit(scratch + 16);
  const auto ext = delin_.run(job.n, 0, job.threshold, (*job.input)[0], scratch);
  JobResult r;
  r.launches = 2;  // candidate-flags pass + serial scan
  r.output.reserve(ext.size());
  for (const dsp::Extremum& e : ext) {
    r.output.push_back(static_cast<std::int32_t>((e.index << 1) |
                                                 (e.is_max ? 1u : 0u)));
  }
  return r;
}

JobResult Device::run_pipeline(const PipelineJob& job) {
  if (job.taps == nullptr || job.input == nullptr) {
    throw HostError("Device: pipeline job with null buffers");
  }
  if (job.n != 512 && job.n != 1024) {
    throw HostError("Device: pipeline job n must be 512 or 1024");
  }
  if (job.input->size() < static_cast<std::size_t>(job.offset) + job.n) {
    throw HostError("Device: pipeline job input does not cover offset + n");
  }
  const unsigned in = data_base_;
  const unsigned filt = in + job.n;
  const unsigned spec = filt + job.n;
  const unsigned scratch = spec + job.n + 2;
  check_sys_fit(scratch + 2 * job.n);
  {
    obs::Span stage("device.stage", 0, id_, job.n);
    host_.to_sram(in, std::span<const std::int32_t>(*job.input)
                          .subspan(job.offset, job.n));
  }
  ++stagings_;
  JobResult r;
  // FIR preprocessing (tap staging dedup'd across pipeline/FIR jobs).
  const kernels::FirRunStats fs = run_fir11(job.n, job.taps, in, filt);
  r.launches = fs.launches;
  // Energy of the filtered window, before the rFFT clobbers the SPM planes.
  const unsigned nrows = job.n / arch::kVwrWords;
  host_.dma({dma::Dir::kSysToSpm, filt,  0,
             static_cast<std::uint32_t>(job.n), 1, 1});
  ++stagings_;
  const std::int32_t energy = reduce_.sumsq_rows(0, nrows);
  r.launches += 1;
  // Real FFT of the filtered window.
  const kernels::FftRunStats ffts = fft_.rfft(job.n, filt, spec, scratch);
  r.launches += ffts.launches;
  r.output.reserve(job.n + 3);
  r.output.push_back(energy);
  const auto bins = host_.from_sram(spec, job.n + 2);
  r.output.insert(r.output.end(), bins.begin(), bins.end());
  return r;
}

std::vector<std::uint8_t> Device::checkpoint() const {
  if (!has_resident_bio()) return {};
  const mem::Spm& spm = platform_.vwr2a().spm();
  DeviceCheckpoint c;
  c.arch = platform_.arch().name();
  c.sys_base = kBioBase;
  c.bio_resident =
      spm.region_version(app::kMaskRowFirst, app::kMaskRowCount) ==
      bio_rows_version_;
  c.write_gen = spm.write_gen();
  const unsigned words = app::MBioTracker::footprint_words();
  c.sram.reserve(words);
  for (unsigned i = 0; i < words; ++i) {
    c.sram.push_back(platform_.sram().peek(kBioBase + i));
  }
  c.spm_rows.reserve(app::kMaskRowCount);
  for (unsigned r = 0; r < app::kMaskRowCount; ++r) {
    SpmRowImage row;
    row.row = app::kMaskRowFirst + r;
    row.stamp = spm.row_version(row.row);
    const Word* data = spm.array_row(row.row);
    std::copy_n(data, arch::kVwrWords, row.data.begin());
    c.spm_rows.push_back(row);
  }
  return encode_checkpoint(c);
}

Device::RestoreOutcome Device::restore(const std::vector<std::uint8_t>& blob,
                                       std::string* why) {
  DeviceCheckpoint c;
  if (!decode_checkpoint(blob, &c, why)) return RestoreOutcome::kRejected;
  if (c.sys_base != kBioBase ||
      c.sram.size() != app::MBioTracker::footprint_words()) {
    if (why != nullptr) *why = "checkpoint: layout mismatch";
    return RestoreOutcome::kRejected;
  }
  if (has_resident_bio()) {
    // The resident image holds session-independent constants: whatever this
    // device already staged is bit-identical to the checkpointed one.
    return RestoreOutcome::kSkippedResident;
  }
  // Out-of-band migration: pokes are simulator bookkeeping (no cycles, no
  // energy), but SPM pokes still advance this device's own write stamps
  // monotonically -- a restore can never rewind the residency clock.
  for (std::size_t i = 0; i < c.sram.size(); ++i) {
    platform_.sram().poke(kBioBase + static_cast<unsigned>(i), c.sram[i]);
  }
  mem::Spm& spm = platform_.vwr2a().spm();
  for (const SpmRowImage& row : c.spm_rows) {
    for (unsigned i = 0; i < arch::kVwrWords; ++i) {
      spm.poke(row.row * arch::kVwrWords + i, row.data[i]);
    }
  }
  if (bio_ == nullptr) {
    bio_ = std::make_unique<app::MBioTracker>(platform_, cache_,
                                              platform_.arch().name() + "/");
  }
  bio_->adopt(kBioBase);
  bio_inited_ = true;
  // Only an image whose mask rows were intact at capture counts as resident
  // here; otherwise the stamp 0 can never match and the next bio window
  // re-stages the masks exactly as the dead device would have.
  bio_rows_version_ =
      c.bio_resident
          ? spm.region_version(app::kMaskRowFirst, app::kMaskRowCount)
          : 0;
  return RestoreOutcome::kApplied;
}

JobResult Device::run_bio(const BioTrackerJob& job) {
  if (job.input == nullptr) {
    throw HostError("Device: bio job with null input");
  }
  if (job.input->size() <
      static_cast<std::size_t>(job.offset) + app::kWindow) {
    throw HostError("Device: bio job input must cover app::kWindow samples");
  }
  if (bio_ == nullptr) {
    bio_ = std::make_unique<app::MBioTracker>(platform_, cache_,
                                              platform_.arch().name() + "/");
  }
  // SPM residency: the resident image's only clobberable state is the
  // band-mask rows; when their write stamps are unchanged since the last
  // init(), the image is intact and the per-window re-init can be skipped.
  // With residency off (or after a clobbering job) every window pays the
  // same deterministic staging cost and is self-contained.
  mem::Spm& spm = platform_.vwr2a().spm();
  const bool resident =
      opts_.residency && bio_inited_ &&
      spm.region_version(app::kMaskRowFirst, app::kMaskRowCount) ==
          bio_rows_version_;
  const std::uint64_t launches0 = platform_.vwr2a().launches();
  if (!resident) {
    obs::Span stage("device.stage", 0, id_, app::kWindow);
    bio_->init(kBioBase);
    ++stagings_;
    bio_inited_ = true;
    bio_rows_version_ =
        spm.region_version(app::kMaskRowFirst, app::kMaskRowCount);
  }
  std::vector<double> x(app::kWindow);
  for (unsigned i = 0; i < app::kWindow; ++i) {
    x[i] = fx::from_q16_15((*job.input)[job.offset + i]);
  }
  const app::AppResult a = bio_->run(job.target, x);
  JobResult r;
  r.launches =
      static_cast<unsigned>(platform_.vwr2a().launches() - launches0);
  r.output.reserve(8);
  r.output.push_back(a.svm_class);
  r.output.push_back(static_cast<std::int32_t>(a.extrema));
  for (double f : a.feat.as_vector()) r.output.push_back(fx::to_q16_15(f));
  return r;
}

} // namespace vwr2a::runtime
