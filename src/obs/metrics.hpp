#pragma once
// Typed metrics registry: counters, gauges and log-bucketed histograms
// behind one enumerable dot-separated namespace ("session.latency_cycles",
// "completer.queue_depth", "gateway.bytes_in", ...). It holds only
// process-wide figures with no per-instance home: counts that belong to a
// pool, server or session live in FleetStats, Server::Telemetry or
// SessionStats and reach operators through the gateway's STATS frame
// (docs/observability.md). Counters and
// histograms record through cache-line-aligned per-thread shards (a relaxed
// fetch_add on the shard picked by obs::thread_slot()) so concurrent
// recording never contends on one line; reads sum the shards and are exact
// for counters. Registration hands out stable references -- a metric, once
// created, lives until process exit, so hot paths may cache `static
// Counter&` locals. Reads (value(), quantile(), dump_prometheus()) are
// approximate-in-time snapshots, safe to call concurrently with writers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace vwr2a::obs {

/// Monotonic counter. add() is lock-free: one relaxed fetch_add on a
/// per-thread shard. value() sums the shards (exact: adds never get lost,
/// a snapshot may merely trail in-flight adds).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[thread_slot() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 16;  // power of two
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Point-in-time signed value (occupancy, queue depth).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-bucketed histogram over the full u64 range: values 0..7 get exact
/// buckets, every later power of two is split into 4 sub-buckets (bucket
/// width = value's power of two / 4, so a reported bound overestimates by
/// < 25%), 248 + 8 = 256 buckets total. record() is one
/// relaxed fetch_add per field on a per-thread shard; quantile() walks the
/// summed bucket CDF and returns the inclusive upper bound of the bucket
/// holding the requested rank, so reported percentiles never understate.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 256;

  void record(std::uint64_t v) {
    Shard& s = shards_[thread_slot() & (kShards - 1)];
    s.bucket[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const;
  /// Value at quantile p in [0,1]; 0 when empty. p=0.5 -> p50, etc.
  std::uint64_t quantile(double p) const;
  void reset();

  /// Summed per-bucket counts (for exposition / tests).
  std::vector<std::uint64_t> buckets() const;

  static std::size_t bucket_of(std::uint64_t v);
  /// Inclusive upper bound of bucket i (the value quantile() reports).
  static std::uint64_t bucket_upper(std::size_t i);

 private:
  static constexpr std::size_t kShards = 4;  // power of two
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> bucket[kBuckets]{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  Shard shards_[kShards];
};

/// Process-wide named-metric registry. counter()/gauge()/histogram()
/// find-or-create under a mutex (registration is off the hot path -- sites
/// cache the returned reference in a function-local static) and the
/// returned references stay valid forever. Names are free-form
/// dot-separated paths; dump_prometheus() sanitizes them for exposition.
class Registry {
 public:
  static Registry& get();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram };
    std::string name;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  /// Snapshot of every registered metric, sorted by name.
  std::vector<Entry> entries() const;

  /// Prometheus text exposition: counters/gauges as plain samples,
  /// histograms as summaries (quantile 0.5/0.95/0.99 + _sum + _count).
  /// '.' and any other non-[a-zA-Z0-9_] byte in names becomes '_'.
  std::string dump_prometheus() const;

  /// Zero every registered metric (benches/tests between runs). Metrics
  /// stay registered; cached references stay valid.
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

} // namespace vwr2a::obs
