// Self-tests of the benchmark's own helpers (src/ledger.hpp): the
// percentile-support rule, metric-name validation, the result line, span
// self time, open-loop timing from the due time, and the reference speed.
// No simulator code.
// Build and run: python3 perfbench/run.py --selftest

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

void percentile_support() {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it: ten need 1000.
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(samples_beyond(999, 0.99) == 9);
  CHECK(supported_tail(1000) == 0.99);
  CHECK(supported_tail(999) == 0.95);
  CHECK(supported_tail(10000) == 0.999);
  CHECK(supported_tail(100) == 0.9);
  CHECK(supported_tail(99) == 0.0);

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = summarize(v);
  CHECK(s.n == 1000);
  CHECK(s.median == 500);
  CHECK(s.tail_p == 0.99);
  CHECK(s.tail == 990);
  CHECK(s.at(0.99) == 990);
  bool threw = false;
  try {
    summarize(std::vector<double>(999, 1.0)).at(0.99);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);  // a tail the sample cannot carry is refused
}

void metric_names() {
  CHECK(valid_metric_name("setup_s"));
  CHECK(valid_metric_name("kernels.cfft-512.sim_cycles"));
  CHECK(valid_metric_name("9lives"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".hidden"));
  CHECK(!valid_metric_name("-x"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("quote\""));
  CHECK(!valid_metric_name("slash/no"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));

  MetricSet m;
  bool threw = false;
  try {
    m.add("bad name", 1.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  m.add("a", 1.0, "s");
  threw = false;
  try {
    m.add("a", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);  // names are used once
}

void result_line() {
  MetricSet m;
  m.add("latency_ms", 1.2034, "ms");
  m.add("setup_s", 0.1 + 0.2, "s");
  const std::string j = m.to_json(true, 1000, 0);
  CHECK(j ==
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
        "{\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, "
        "\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}");
}

void span_self_time() {
  SpanLog log;
  // Root [0, 100) with two overlapping children [10, 50) and [30, 70):
  // their union covers 60, so the root's self time is 40.
  const std::int64_t root = log.add("bench.batch", 0, 100);
  log.add("runtime.Device::run", 10, 50, root);
  log.add("runtime.Device::run", 30, 70, root);
  log.add("runtime.queue_wait", 0, 10, root);
  const auto self = log.self_ns();
  CHECK(self.at("bench") == 30);
  CHECK(self.at("runtime") == 80);
  CHECK(self.at("runtime wait") == 10);
  // [100, 150) of the window [0, 150) is covered by no root span.
  CHECK(log.residual_ns(0, 150) == 50);
}

/// A stalled sink must inflate the latency of the requests queued behind
/// it: an open loop times each request from when it was due, not from when
/// the late generator finally sent it.
void open_loop_from_due() {
  constexpr std::uint64_t kPeriod = 2'000'000;  // 2 ms
  constexpr std::uint64_t kStall = 40'000'000;  // 40 ms
  constexpr unsigned kN = 12, kStalled = 3;
  const Pacer pacer(now_ns() + 5'000'000, kPeriod);
  std::vector<double> latency, send_to_done;
  for (unsigned i = 0; i < kN; ++i) {
    pacer.wait(i);
    const std::uint64_t sent = now_ns();
    // The fake sink: instant, except one request that stalls.
    if (i == kStalled) std::this_thread::sleep_for(std::chrono::nanoseconds(kStall));
    const std::uint64_t done = now_ns();
    latency.push_back(latency_ms(pacer.due(i), done));
    send_to_done.push_back(latency_ms(sent, done));
  }
  CHECK(latency[kStalled] >= 40.0);
  // The next request was due 2 ms after the stalled one and is sent ~38 ms
  // late; its own service is instant, yet its latency carries the stall.
  CHECK(latency[kStalled + 1] >= 30.0);
  CHECK(send_to_done[kStalled + 1] < 5.0);
  // Later requests still inherit the lag: 40 ms of stall / 2 ms period.
  CHECK(latency[kStalled + 5] >= 20.0);
  CHECK(latency[0] < 5.0);
}

void reference_speed() {
  const std::vector<int> cpus = allowed_cpus();
  RefSpeed ref;
  bool threw = false;
  try {
    ref.scale();
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  ref.sample(5);
  CHECK(ref.samples() == 5);
  CHECK(ref.scale() > 0);
  // Reference time is CPU time times the run's one scale.
  CHECK(std::abs(ref.ref_s(2e9) - 2.0 * ref.scale()) < 1e-12);
  // Sampling pins to one CPU at a time but leaves every CPU allowed.
  CHECK(allowed_cpus() == cpus);
  // The work is fixed: the same count gives the same result.
  CHECK(reference_work(100) == reference_work(100));
  CHECK(reference_work(100) != reference_work(101));
}

void preallocated_samples() {
  std::vector<double> v;
  preallocate(v, 1000);
  CHECK(v.empty());
  CHECK(v.capacity() >= 1000);
  const double* data = v.data();
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  CHECK(v.data() == data);  // no reallocation up to the preallocated count
}

}  // namespace

int main() {
  percentile_support();
  metric_names();
  result_line();
  span_self_time();
  open_loop_from_due();
  reference_speed();
  preallocated_samples();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
