#include "stream/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "common/status.hpp"
#include "dsp/signal.hpp"
#include "obs/trace.hpp"
#include "stream/completer.hpp"

namespace vwr2a::stream {

namespace {

SessionConfig validate(SessionConfig cfg) {
  if (cfg.kind == SessionKind::kBioTracker && cfg.window != app::kWindow) {
    throw HostError("Session: bio-tracker sessions need window == 512");
  }
  if (cfg.kind == SessionKind::kPipeline && cfg.window != 512 &&
      cfg.window != 1024) {
    throw HostError("Session: pipeline sessions need window 512 or 1024");
  }
  if (cfg.hop == 0 || cfg.hop > cfg.window) {
    throw HostError("Session: need 1 <= hop <= window");
  }
  if (cfg.max_inflight == 0) {
    throw HostError("Session: max_inflight must be positive");
  }
  if (cfg.buffer_capacity == 0) cfg.buffer_capacity = 4ull * cfg.window;
  if (cfg.kind == SessionKind::kPipeline && cfg.taps == nullptr) {
    cfg.taps = runtime::make_buffer(dsp::fir11_lowpass_q15());
  }
  return cfg;
}

} // namespace

Session::Session(std::uint64_t id, runtime::DevicePool& pool, unsigned device,
                 SessionConfig cfg, Sink sink, Completer* completer,
                 ErrorSink on_error)
    : id_(id),
      pool_(&pool),
      device_(device),
      cfg_(validate(std::move(cfg))),
      sink_(std::move(sink)),
      error_sink_(std::move(on_error)),
      completer_(completer),
      win_(cfg_.window, cfg_.hop, cfg_.buffer_capacity) {
  stats_.id = id_;
  stats_.device = device_;
  if (obs::metrics_enabled()) {
    m_delivered_ = &obs::Registry::get().counter(
        "session." + std::to_string(id_) + ".windows_delivered");
  }
}

runtime::Job Session::window_job(const SessionConfig& cfg) {
  runtime::Job job;
  if (cfg.kind == SessionKind::kPipeline) {
    job.work = runtime::PipelineJob{cfg.window, nullptr, nullptr};
  } else {
    job.work = runtime::BioTrackerJob{cfg.target, nullptr};
  }
  return job;
}

Cycle Session::window_estimate(const SessionConfig& cfg) {
  return runtime::DevicePool::estimate_cost(window_job(cfg));
}

runtime::Job Session::make_job(WindowView window) {
  runtime::Job job;
  if (cfg_.kind == SessionKind::kPipeline) {
    job.work = runtime::PipelineJob{cfg_.window, cfg_.taps,
                                    std::move(window.segment), window.offset};
  } else {
    job.work = runtime::BioTrackerJob{cfg_.target, std::move(window.segment),
                                      window.offset};
  }
  // Formatted in place: building it from std::to_string pieces trips a
  // GCC 12 -Wrestrict false positive in the inlined string insert.
  char tag[48];
  std::snprintf(tag, sizeof tag, "s%llu/w%llu",
                static_cast<unsigned long long>(id_),
                static_cast<unsigned long long>(stats_.windows_submitted));
  job.tag = tag;
  job.pin = static_cast<int>(device_);
  // Flight-recorder correlation id: stable across the window's whole life
  // (placement, queue, device run, completion, delivery). windows_submitted
  // is producer-owned, so this unlocked read matches the tag above.
  if (obs::tracing_enabled()) {
    job.trace_id = obs::window_id(id_, stats_.windows_submitted);
  }
  return job;
}

void Session::submit_window(WindowView window) {
  runtime::Job job = make_job(std::move(window));
  const std::uint64_t wid = job.trace_id;
  runtime::JobHandle h = [&] {
    obs::Span slice("window.slice", wid, id_, stats_.windows_submitted);
    return pool_->submit(std::move(job));
  }();
  if (completer_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(smu_);
      ++inflight_n_;
      ++stats_.windows_submitted;
    }
    // The slot is claimed before the lane can see the handle, so a drain
    // can never observe zero in-flight while an item sits queued. If the
    // enqueue itself fails (completer stopping), no delivery will ever
    // release the slot -- roll it back or a later drain() hangs.
    try {
      completer_->enqueue(this, std::move(h));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(smu_);
        --inflight_n_;
        --stats_.windows_submitted;
      }
      // The failed slot may be the one a concurrent drain()/wait_slot() is
      // blocked on; no delivery will ever come to wake it.
      slot_cv_.notify_all();
      throw;
    }
  } else {
    inflight_.push_back(std::move(h));
    std::lock_guard<std::mutex> lock(smu_);
    ++stats_.windows_submitted;
  }
}

void Session::account_delivery_locked(const runtime::JobResult& job) {
  const Cycle lat = job.cost.total_cycles();
  stats_.latency_cycles_total += lat;
  stats_.latency_cycles_max = std::max(stats_.latency_cycles_max, lat);
  if (stats_.windows_delivered > 0 && job.device != stats_.device) {
    ++stats_.windows_migrated;  // the pin's failover chain moved us
  }
  stats_.device = job.device;
  ++stats_.windows_delivered;
  if (obs::metrics_enabled()) {
    static obs::Counter& delivered =
        obs::Registry::get().counter("session.windows_delivered");
    delivered.add(1);
    static obs::Histogram& latency =
        obs::Registry::get().histogram("session.latency_cycles");
    latency.record(lat);
    if (m_delivered_ != nullptr) m_delivered_->add(1);
  }
}

void Session::reap_front() {
  if (inflight_.empty()) throw HostError("Session: nothing in flight");
  runtime::JobHandle h = std::move(inflight_.front());
  inflight_.pop_front();
  WindowResult r;
  r.session = id_;
  r.index = stats_.windows_delivered;
  const std::uint64_t wid =
      obs::tracing_enabled() ? obs::window_id(id_, r.index) : 0;
  {
    obs::Span sp("window.complete", wid, id_);
    r.job = h.get();  // rethrows job failures on the producer thread
  }
  {
    std::lock_guard<std::mutex> lock(smu_);
    account_delivery_locked(r.job);
  }
  obs::Span sp("window.deliver", wid, id_, 1);
  if (sink_) sink_(r);
}

void Session::reap_ready() {
  if (completer_ != nullptr) return;  // the lane delivers
  using namespace std::chrono_literals;
  while (!inflight_.empty() &&
         inflight_.front().wait_for(0s) == std::future_status::ready) {
    reap_front();
  }
}

void Session::deliver_async(runtime::JobHandle h) {
  WindowResult r;
  r.session = id_;
  bool ok = true;
  std::string err;
  // next_delivery_ is only ever advanced by this session's lane (the
  // thread running here), so reading it early for the trace id is safe.
  const std::uint64_t wid =
      obs::tracing_enabled() ? obs::window_id(id_, next_delivery_) : 0;
  {
    obs::Span sp("window.complete", wid, id_);
    try {
      r.job = h.get();
    } catch (const std::exception& e) {
      ok = false;
      err = e.what();
    }
  }
  // Only this session's lane assigns indices, in enqueue (= submission)
  // order; failed windows consume their index too.
  r.index = next_delivery_++;
  // The sink runs before the slot is released (and unlocked): a producer
  // blocked on backpressure resumes only once the delivery fully happened,
  // and drain() returning means every sink call has returned.
  {
    obs::Span sp("window.deliver", wid, id_, ok ? 1 : 0);
    if (ok && sink_) sink_(r);
    if (!ok && error_sink_) error_sink_(id_, r.index, err);
  }
  {
    std::lock_guard<std::mutex> lock(smu_);
    if (ok) {
      account_delivery_locked(r.job);
    } else {
      ++stats_.windows_failed;
      if (first_error_.empty() && !error_sink_) {
        first_error_ = err;
        error_pending_ = true;
      }
    }
    --inflight_n_;
  }
  slot_cv_.notify_all();
}

bool Session::at_inflight_limit() const {
  if (completer_ != nullptr) {
    std::lock_guard<std::mutex> lock(smu_);
    return inflight_n_ >= cfg_.max_inflight;
  }
  return inflight_.size() >= cfg_.max_inflight;
}

void Session::wait_slot() {
  std::unique_lock<std::mutex> lock(smu_);
  slot_cv_.wait(lock, [this] { return inflight_n_ < cfg_.max_inflight; });
}

bool Session::pump(bool may_block) {
  while (win_.has_window()) {
    if (at_inflight_limit()) {
      if (!may_block) return false;
      if (completer_ != nullptr) {
        wait_slot();
      } else {
        reap_front();  // backpressure: deliver the oldest window first
      }
    }
    submit_window(win_.pop_window_view());
  }
  return true;
}

void Session::push(std::span<const std::int32_t> samples) {
  obs::Span sp("session.push", 0, id_, samples.size());
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::Registry::get().counter("session.samples_in");
    c.add(samples.size());
  }
  std::size_t off = 0;
  while (off < samples.size()) {
    reap_ready();
    pump(/*may_block=*/true);  // frees at least `hop` staged samples per window
    const std::size_t take =
        std::min(samples.size() - off, win_.free_space());
    win_.push(samples.subspan(off, take));
    {
      std::lock_guard<std::mutex> lock(smu_);
      stats_.samples_in += take;
    }
    off += take;
  }
  pump(/*may_block=*/true);
  reap_ready();
}

bool Session::try_push(std::span<const std::int32_t> samples) {
  obs::Span sp("session.push", 0, id_, samples.size());
  reap_ready();
  pump(/*may_block=*/false);
  if (win_.free_space() < samples.size()) {
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::get().counter("session.dropped_samples");
      c.add(samples.size());
    }
    std::lock_guard<std::mutex> lock(smu_);
    stats_.dropped_samples += samples.size();
    ++stats_.dropped_pushes;
    return false;
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::Registry::get().counter("session.samples_in");
    c.add(samples.size());
  }
  win_.push(samples);
  {
    std::lock_guard<std::mutex> lock(smu_);
    stats_.samples_in += samples.size();
  }
  pump(/*may_block=*/false);
  return true;
}

void Session::flush() {
  obs::Span sp("session.flush", 0, id_);
  pump(/*may_block=*/true);
  if (win_.has_tail()) {
    if (at_inflight_limit()) {
      if (completer_ != nullptr) {
        wait_slot();
      } else {
        reap_front();
      }
    }
    submit_window(win_.pop_tail_view());
  }
}

void Session::drain() {
  if (completer_ != nullptr) {
    std::unique_lock<std::mutex> lock(smu_);
    slot_cv_.wait(lock, [this] { return inflight_n_ == 0; });
    if (error_pending_) {
      error_pending_ = false;
      throw HostError("Session: window job failed: " + first_error_);
    }
    return;
  }
  while (!inflight_.empty()) reap_front();
}

void Session::finish() {
  flush();
  drain();
}

std::size_t Session::inflight() const {
  if (completer_ != nullptr) {
    std::lock_guard<std::mutex> lock(smu_);
    return inflight_n_;
  }
  return inflight_.size();
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(smu_);
  return stats_;
}

} // namespace vwr2a::stream
