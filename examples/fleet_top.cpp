// fleet_top: a `top`-style terminal dashboard for a live fleet, driven
// entirely by v4 push-mode stats. One subscriber connection asks the
// gateway for STATS_PUSH frames every 200 ms (no polling -- the server
// initiates every frame) while 8 producer threads stream biosignals
// through their own connections. Each push repaints:
//   * every STATS entry the server sends (jobs, makespan, energy, caches,
//     faults, the replay tier mix), printed by name;
//   * per-device occupancy bars (device-local cycles relative to the
//     busiest device), job counts and the health bitmap;
//   * per-session window rates computed from consecutive pushes, plus the
//     mean end-to-end latency from the v6 WINDOW_RESULT span breakdown
//     (queue + run + deliver host ns, accumulated by the producers'
//     result callbacks) -- per-stage truth, not a push-delta guess.
// The demo renders a fixed number of frames and exits; point the same
// code at listen_tcp/connect_tcp for a real remote dashboard.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dsp/signal.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"
#include "obs/obs.hpp"

int main() {
  using namespace vwr2a;

  constexpr unsigned kProducers = 8;
  constexpr unsigned kWindowsPerProducer = 12;
  constexpr unsigned kFrames = 12;        // pushes to render before exiting
  constexpr std::uint32_t kCadenceMs = 200;

  gateway::Server::Config cfg;
  cfg.stream.pool.devices = 8;
  cfg.stream.completion_threads = 2;
  for (unsigned d = 0; d < 8; ++d) {
    cfg.stream.pool.device_arch.push_back(
        soc::ArchConfig{.vwr_count = d % 2 == 0 ? 3u : 2u,
                        .exec_mode = cgra::ExecMode::kTraceCache});
  }
  gateway::Server server(cfg);

  // v6 span breakdown: the server stamps queue/run/deliver into every
  // WINDOW_RESULT, which is where the e2e column comes from.
  obs::set_spans(true);

  // Per-session e2e accumulation, fed by the producers' result callbacks
  // (keyed by the *server-side* session id so the dashboard can join it
  // against STATS_PUSH session rows).
  struct E2eAcc {
    std::mutex mu;
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        by_session;  ///< session id -> (summed e2e ns, windows)
  };
  E2eAcc e2e;

  // --- producers: 8 tenants streaming in 256-sample chunks --------------------
  std::atomic<bool> stop_producing{false};
  std::vector<std::thread> producers;
  for (unsigned i = 0; i < kProducers; ++i) {
    producers.emplace_back([&server, &stop_producing, &e2e, i] {
      gateway::Client client(server.connect_loopback());
      gateway::Client::StreamOpts opts;
      opts.tenant = i;
      if (i % 2 == 1) opts.kind = 1;  // alternate feature-pipeline tenants
      const std::uint32_t sid = client.open(
          opts, [&client, &e2e](const gateway::WindowResult& wr) {
            const std::uint64_t session = client.session_of(wr.stream);
            std::lock_guard<std::mutex> lock(e2e.mu);
            auto& [ns, windows] = e2e.by_session[session];
            ns += wr.queue_ns + wr.run_ns + wr.deliver_ns;
            ++windows;
          });
      dsp::RespirationParams params;
      params.breath_hz = 0.14 + 0.05 * i;
      Rng rng(4200 + i);
      const auto signal = dsp::respiration_q16_15(
          kWindowsPerProducer * app::kWindow, params, rng);
      for (std::size_t off = 0;
           off < signal.size() && !stop_producing.load(); off += 256) {
        const std::size_t take =
            std::min<std::size_t>(256, signal.size() - off);
        client.push(sid, std::span<const std::int32_t>(signal)
                             .subspan(off, take));
        // Pace the stream so the dashboard sees it evolve across pushes.
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
      }
      client.flush(sid);
      client.close_stream(sid);
    });
  }

  // --- subscriber: render every STATS_PUSH ------------------------------------
  std::mutex mu;
  std::condition_variable cv;
  unsigned frames = 0;
  gateway::StatsPush prev;
  std::chrono::steady_clock::time_point prev_at;

  gateway::Client dash(server.connect_loopback());
  dash.subscribe_stats(kCadenceMs, [&](const gateway::StatsPush& p) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu);
    const double dt =
        frames > 0
            ? std::chrono::duration<double>(now - prev_at).count()
            : 0.0;

    std::printf("\x1b[2J\x1b[H");  // clear + home (harmless when piped)
    std::printf("fleet_top -- push %llu, cadence %u ms, %zu devices\n",
                static_cast<unsigned long long>(p.seq), kCadenceMs,
                p.devices.size());
    // Every STATS entry, two to a line, whatever the server sends.
    std::size_t col = 0;
    for (const gateway::StatEntry& e : p.stats.entries) {
      if (e.kind == MetricKind::kReal) {
        std::printf("  %-26s %14.1f", e.name.c_str(), e.real());
      } else {
        std::printf("  %-26s %14llu", e.name.c_str(),
                    static_cast<unsigned long long>(e.value));
      }
      if (++col % 2 == 0) std::printf("\n");
    }
    std::printf(col % 2 == 0 ? "\n" : "\n\n");

    std::uint64_t busiest = 1;
    for (const auto& d : p.devices) busiest = std::max(busiest, d.cycles);
    for (std::size_t d = 0; d < p.devices.size(); ++d) {
      const auto& dev = p.devices[d];
      const int width =
          static_cast<int>(32 * dev.cycles / busiest);
      std::printf("  dev %2zu %s [%-32.*s] %10llu cy %6llu jobs\n", d,
                  dev.dead != 0 ? "DEAD" : "ok  ", width,
                  "################################",
                  static_cast<unsigned long long>(dev.cycles),
                  static_cast<unsigned long long>(dev.jobs));
    }

    std::printf("\n  %-8s %-6s %10s %10s %9s %9s %8s\n", "session", "dev",
                "submitted", "delivered", "win/s", "e2e ms", "dropped");
    for (const auto& s : p.sessions) {
      // Rate from consecutive pushes: delivered delta over the wall gap.
      double rate = 0.0;
      if (dt > 0) {
        for (const auto& q : prev.sessions) {
          if (q.id != s.id) continue;
          rate = static_cast<double>(s.windows_delivered -
                                     q.windows_delivered) / dt;
          break;
        }
      }
      // Mean e2e (queue + run + deliver) from the v6 span breakdown.
      double e2e_ms = 0.0;
      {
        std::lock_guard<std::mutex> e2e_lock(e2e.mu);
        const auto it = e2e.by_session.find(s.id);
        if (it != e2e.by_session.end() && it->second.second > 0) {
          e2e_ms = static_cast<double>(it->second.first) /
                   static_cast<double>(it->second.second) / 1e6;
        }
      }
      std::printf("  %-8llu %-6u %10llu %10llu %9.1f %9.2f %8llu\n",
                  static_cast<unsigned long long>(s.id), s.device,
                  static_cast<unsigned long long>(s.windows_submitted),
                  static_cast<unsigned long long>(s.windows_delivered),
                  rate, e2e_ms,
                  static_cast<unsigned long long>(s.dropped_samples));
    }
    std::fflush(stdout);

    prev = p;
    prev_at = now;
    ++frames;
    cv.notify_all();
  });

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30),
                [&frames] { return frames >= kFrames; });
  }
  dash.unsubscribe_stats();
  stop_producing = true;
  for (auto& t : producers) t.join();

  const gateway::Stats final_stats = dash.stats();
  std::printf("\nrendered %u pushed frames; final: %llu windows delivered, "
              "%llu sessions served\n",
              frames,
              static_cast<unsigned long long>(
                  final_stats.at("windows_delivered").value),
              static_cast<unsigned long long>(
                  final_stats.at("sessions").value));
  server.stop();
  return frames >= kFrames ? 0 : 1;
}
