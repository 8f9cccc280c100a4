#pragma once
// The serving front-end over the device fleet: a gateway::Server owns a
// stream::StreamServer (always in completion-lane delivery mode) and
// exposes it over the wire protocol (protocol.hpp) to remote clients on
// TCP and/or the deterministic in-process loopback transport.
//
// Connection model. Each accepted connection gets a reader thread (parses
// frames, drives sessions -- PUSH backpressure propagates to the peer as
// transport flow control) and a writer thread draining a bounded outbound
// frame queue. Window results are produced by the StreamServer's delivery
// lanes: the per-session sink encodes a WINDOW_RESULT frame and enqueues
// it on the owning connection's writer. A slow or stalled client therefore
// blocks -- at worst -- its own connection's sink calls on one delivery
// lane; every session's ingest and every other connection keep running
// (the ROADMAP "sinks may block" item, closed in stream/completer.hpp).
//
// Multiplexing & ordering. One connection can run many streams; stream ids
// are client-chosen. Per-stream WINDOW_RESULT order equals window order
// (delivery lanes preserve it; the writer queue is FIFO), and FLUSH_OK /
// CLOSE_OK are enqueued only after the drained windows' results, so a
// client can treat them as barriers.
//
// Admission control. OPEN_SESSION is checked against per-tenant and
// server-wide quotas (live sessions, requested in-flight bound) and
// PUSH_SAMPLES against a per-tenant byte-rate token bucket; violations get
// an ERROR frame (the connection survives; only protocol-malformed bytes
// are connection-fatal). The quota clock is injectable for deterministic
// tests.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gateway/protocol.hpp"
#include "gateway/transport.hpp"
#include "obs/journal.hpp"
#include "stream/server.hpp"

namespace vwr2a::gateway {

/// The gateway.
class Server {
 public:
  /// Per-tenant/server admission limits.
  struct Quotas {
    std::uint32_t max_sessions = 1024;           ///< live streams, server-wide
    std::uint32_t max_sessions_per_tenant = 64;  ///< live streams per tenant
    std::uint32_t max_inflight = 64;   ///< cap on OPEN_SESSION.max_inflight
    /// Sustained per-tenant ingest budget in payload bytes/second (token
    /// bucket refilled from the quota clock); 0 disables rate limiting.
    double bytes_per_second = 0.0;
    double burst_bytes = 1u << 16;  ///< bucket capacity
  };

  struct Config {
    /// The streaming layer underneath (fleet size, arch mix, scheduling).
    /// completion_threads is forced to >= 1: the gateway requires delivery
    /// off the connection reader threads.
    stream::StreamServer::Config stream;
    Quotas quotas;
    /// Outbound frames buffered per connection before sinks block.
    std::size_t writer_queue_frames = 256;
    /// Floor on STATS_SUBSCRIBE cadence: subscriptions asking for a
    /// shorter period are clamped up to this, bounding the push load one
    /// connection can demand.
    std::uint32_t min_stats_cadence_ms = 1;
    /// Monotonic nanosecond clock the rate limiter reads; null = wall
    /// clock (std::chrono::steady_clock). Tests inject a fake.
    std::function<std::uint64_t()> clock_ns;
    /// When non-empty, records every inbound frame (plus per-stream
    /// delivered-output digests) to this .vwr2jrn black-box journal,
    /// written out on stop(). Empty = no journal, zero recording cost.
    std::string journal_path;
  };

  /// Gateway-level counters (frames/results are atomic snapshots).
  struct Telemetry {
    std::uint64_t connections = 0;    ///< accepted, lifetime
    std::uint64_t sessions = 0;       ///< streams opened, lifetime
    std::uint64_t open_streams = 0;   ///< currently live streams
    std::uint64_t frames_in = 0;      ///< frames parsed from peers
    std::uint64_t results_sent = 0;   ///< WINDOW_RESULT frames enqueued
    std::uint64_t errors_sent = 0;    ///< ERROR frames enqueued
    std::uint64_t rate_limited = 0;   ///< PUSH frames rejected by the bucket

    /// Calls fn(name, kind, value) once per field, under its STATS name.
    template <class Fn>
    void for_each_scalar(Fn&& fn) const {
      using K = MetricKind;
      fn("connections", K::kCounter, connections);
      fn("sessions", K::kCounter, sessions);
      fn("open_streams", K::kGauge, open_streams);
      fn("frames_in", K::kCounter, frames_in);
      fn("windows_delivered", K::kCounter, results_sent);
      fn("errors_sent", K::kCounter, errors_sent);
      fn("rate_limited", K::kCounter, rate_limited);
    }
  };

  Server() : Server(Config()) {}
  explicit Server(Config cfg);
  ~Server();  ///< stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts accepting TCP connections on 127.0.0.1 (0 = ephemeral port).
  /// Returns the bound port. Call at most once.
  std::uint16_t listen_tcp(std::uint16_t port = 0);

  /// Opens a deterministic in-process connection and returns the client
  /// end; the server serves it exactly like an accepted TCP connection.
  std::unique_ptr<Transport> connect_loopback(std::size_t capacity = 1u << 20);

  /// Stops accepting, shuts every connection down, joins all threads and
  /// waits for the fleet to go idle. Idempotent.
  void stop();

  /// The streaming layer underneath (tests/benches: direct access).
  stream::StreamServer& streams() { return stream_; }

  /// The black-box journal, or null when Config::journal_path is empty.
  obs::Journal* journal() { return journal_.get(); }

  Telemetry telemetry() const;

  /// The STATS-frame picture: for_each_stat over the gateway counters and
  /// the pool's non-blocking fleet aggregate (DevicePool::peek_stats).
  Stats build_stats() const;
  /// Same, over an already-fetched fleet snapshot (lets STATS_PUSH build
  /// the entry list and the per-device array from one snapshot).
  Stats build_stats(const runtime::FleetStats& fleet) const;

  /// One v4 STATS_PUSH frame: build_stats() + per-device loads + the
  /// newest sessions' loads, all from live non-blocking snapshots.
  StatsPush build_stats_push(std::uint64_t seq) const;

 private:
  class Connection;

  void serve(std::unique_ptr<Transport> t);
  void accept_loop();

  /// OPEN_SESSION admission; fills `err` and returns false on rejection.
  bool admit_session(std::uint32_t tenant, const OpenSession& open,
                     Error* err);
  void release_session(std::uint32_t tenant);
  /// Charges `bytes` against the tenant's token bucket; false = rejected.
  bool charge_rate(std::uint32_t tenant, std::size_t bytes);
  std::uint64_t now_ns() const;
  // Per-frame counters are lock-free: every connection bumps them on its
  // hot path, so they must not contend on mu_.
  void note_frame_in() { frames_in_.fetch_add(1, std::memory_order_relaxed); }
  void note_result_sent() {
    results_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_error_sent() {
    errors_sent_.fetch_add(1, std::memory_order_relaxed);
  }

  Config cfg_;
  stream::StreamServer stream_;
  std::unique_ptr<obs::Journal> journal_;  ///< null = journaling off
  std::unique_ptr<Listener> listener_;
  std::thread acceptor_;

  struct Tenant {
    std::uint32_t live_sessions = 0;
    double tokens = 0.0;
    std::uint64_t last_ns = 0;
    bool bucket_init = false;
  };

  mutable std::mutex mu_;  ///< connections_, tenants_, counters, stopping_
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<std::uint32_t, Tenant> tenants_;
  std::uint32_t live_sessions_ = 0;
  Telemetry tel_;  ///< low-rate counters (sessions, connections, quota)
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> results_sent_{0};
  std::atomic<std::uint64_t> errors_sent_{0};
  bool stopping_ = false;
};

/// The STATS table: every wire metric, named once. Calls fn(name, kind,
/// value) for `devices`, then each Server::Telemetry field, then each
/// runtime::FleetStats scalar; values are encoded as StatEntry::value.
template <class Fn>
void for_each_stat(std::uint32_t devices, const Server::Telemetry& tel,
                   const runtime::FleetStats& fleet, Fn&& fn) {
  fn("devices", MetricKind::kGauge, std::uint64_t{devices});
  tel.for_each_scalar(fn);
  fleet.for_each_scalar(fn);
}

} // namespace vwr2a::gateway
