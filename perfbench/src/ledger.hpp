#pragma once
// The benchmark's own measurement helpers: CPU time and the reference
// speed that scales it, sample summaries under the percentile-support
// rule, validated metric sets printed as the one-line JSON result,
// in-memory spans with per-layer self time, and the open-loop pacer that
// times every request from when it was due.
//
// Nothing here touches the simulator; tests/selftest.cpp covers it.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// Host-monotonic nanoseconds; the same clock as vwr2a::obs::now_ns, so
/// the program's own JobResult::Timing stamps line up with the spans here.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A cheap per-call tick counter (the x86 time-stamp counter, else the
/// steady clock) mapped onto now_ns() by a short calibration, for hooks
/// that fire once per simulated cycle.
class TickClock {
 public:
  static std::uint64_t ticks() {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return now_ns();
#endif
  }
  /// Measures ticks per ns over ~20 ms.
  static TickClock calibrate() {
    TickClock c;
    const std::uint64_t n0 = now_ns(), t0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t n1 = now_ns(), t1 = ticks();
    c.n0_ = n1;
    c.t0_ = t1;
    c.ns_per_tick_ = static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0);
    return c;
  }
  std::uint64_t to_ns(std::uint64_t tick) const {
    const double d = (static_cast<double>(tick) - static_cast<double>(t0_)) * ns_per_tick_;
    return static_cast<std::uint64_t>(static_cast<double>(n0_) + d);
  }

 private:
  std::uint64_t n0_ = 0, t0_ = 0;
  double ns_per_tick_ = 1.0;
};

// --- CPU time and host speed ------------------------------------------------------

/// CPU time of the whole process -- every thread, user and system -- in
/// nanoseconds. Unlike wall time it leaves out the time a thread waits for
/// a CPU: run-queue waits behind other processes and, on a guest with
/// paravirtual steal accounting, the time the host runs something else.
inline std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of the calling thread, in nanoseconds.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The CPUs this process may run on.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread to `cpus` (all of them, or one when `only` >= 0).
inline void pin(const std::vector<int>& cpus, int only = -1) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    if (only < 0 || c == only) CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

/// Fixed work that belongs to the benchmark, not to the program: a
/// switch-dispatch loop over an L1-resident register file, the same kind
/// of work as the cycle interpreter. The result depends on every step.
[[gnu::noinline]] inline std::uint64_t reference_work(unsigned iters) {
  static constexpr std::uint8_t kProg[16] = {0, 1, 2, 3, 1, 0, 4, 2, 3, 5, 1, 4, 0, 5, 2, 3};
  std::uint32_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint64_t acc = 0;
  for (unsigned i = 0; i < iters; ++i) {
    for (unsigned pc = 0; pc < 16; ++pc) {
      const unsigned a = (i + pc) & 7, b = (i * 3 + pc) & 7;
      switch (kProg[pc] ^ (r[a] & 1)) {
        case 0: r[a] += r[b]; break;
        case 1: r[a] ^= r[b] << 1; break;
        case 2: r[a] = r[a] * 2654435761u + 1; break;
        case 3: r[b] -= r[a] >> 3; break;
        case 4: acc += r[a]; break;
        default: r[a] = (r[a] >> 1) | (r[b] << 31); break;
      }
    }
  }
  return acc + r[0];
}

/// Converts CPU time into reference CPU time: the CPU time on a host whose
/// CPUs run reference_work(kIters) in kNominalNs. A shared host's CPUs
/// change speed with its load (clock frequency, a busy sibling thread), by
/// 15% within minutes on the host in perfbench/README.md; CPU time alone
/// keeps that drift, reference CPU time cancels it. The speed is the
/// median of samples taken through the run, one CPU after another.
class RefSpeed {
 public:
  static constexpr unsigned kIters = 8192;
  static constexpr double kNominalNs = 250'000;

  RefSpeed() : cpus_(allowed_cpus()) {}

  /// Takes `n` samples, each pinned to the next CPU in turn, and leaves the
  /// calling thread free to run on every allowed CPU.
  void sample(unsigned n = 1) {
    for (unsigned i = 0; i < n; ++i) {
      if (!cpus_.empty()) pin(cpus_, cpus_[next_++ % cpus_.size()]);
      const std::uint64_t t0 = thread_cpu_ns();
      sink_ = sink_ + reference_work(kIters);
      samples_ns_.push_back(static_cast<double>(thread_cpu_ns() - t0));
    }
    pin(cpus_);
  }
  /// Reference seconds per CPU second (1 at the nominal speed, above 1 on
  /// a faster host); throws before any sample.
  double scale() const {
    if (samples_ns_.empty()) throw std::logic_error("RefSpeed: no sample taken");
    std::vector<double> v = samples_ns_;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return kNominalNs / v[v.size() / 2];
  }
  /// `cpu_ns` of CPU time in reference seconds.
  double ref_s(double cpu_ns) const { return cpu_ns * 1e-9 * scale(); }
  std::size_t samples() const { return samples_ns_.size(); }
  /// Prints the median sample and the scale.
  void print() const {
    std::printf("  reference speed: %zu samples, scale %.4f (reference work %.1f us, "
                "nominal %.1f us)\n",
                samples(), scale(), kNominalNs / scale() * 1e-3, kNominalNs * 1e-3);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::vector<double> samples_ns_;
  volatile std::uint64_t sink_ = 0;
};

// --- percentile support --------------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(p * n). Requires a non-empty sample and 0 < p < 1.
inline double percentile(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// The percentiles a tail may be reported at, highest first.
inline constexpr double kTailLadder[] = {0.999, 0.99, 0.95, 0.9};

/// The highest ladder percentile with at least ten samples beyond it, or 0
/// when even p90 is unsupported (fewer than 100 samples).
inline double supported_tail(std::size_t n) {
  for (double p : kTailLadder) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

/// A timing as the rule wants it reported: median, the highest supported
/// tail percentile and the sample count.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_p = 0.0;  ///< 0: no tail percentile is supported
  double tail = 0.0;
  /// The tail at exactly `p` when the sample supports it; throws otherwise,
  /// so a metric can never quote a percentile its sample cannot carry.
  double at(double p) const {
    if (samples_beyond(n, p) < 10) {
      throw std::runtime_error("percentile " + std::to_string(p) +
                               " unsupported by " + std::to_string(n) +
                               " samples");
    }
    return sorted_at(p);
  }
  std::vector<double> sorted;
  double sorted_at(double p) const { return percentile(sorted, p); }
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  std::sort(v.begin(), v.end());
  s.n = v.size();
  if (!v.empty()) {
    s.median = percentile(v, 0.5);
    s.tail_p = supported_tail(v.size());
    if (s.tail_p > 0) s.tail = percentile(v, s.tail_p);
  }
  s.sorted = std::move(v);
  return s;
}

/// "p99" / "p99.9" label of a percentile.
inline std::string pct_label(double p) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", p * 100.0);
  return buf;
}

/// One human-readable line per timing: "name: median X unit, pNN Y (n=N)".
inline void print_summary(const std::string& name, const Summary& s,
                          const char* unit) {
  if (s.tail_p > 0) {
    std::printf("  %-34s median %10.4f %s, %s %10.4f %s (n=%zu)\n",
                name.c_str(), s.median, unit, pct_label(s.tail_p).c_str(),
                s.tail, unit, s.n);
  } else {
    std::printf("  %-34s median %10.4f %s, no supported tail (n=%zu)\n",
                name.c_str(), s.median, unit, s.n);
  }
}

// --- metrics and the result line ---------------------------------------------

/// Metric names are [A-Za-z0-9_.-]+, start with a letter or digit and are
/// at most 64 characters.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered, name-validated metric set.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name)) {
      throw std::invalid_argument("invalid metric name: " + name);
    }
    if (!std::isfinite(value)) {
      throw std::invalid_argument("non-finite value for metric " + name);
    }
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        throw std::invalid_argument("duplicate metric: " + name);
      }
    }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }
  bool has(const std::string& name) const {
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == name; });
  }

  /// Every metric by name with its unit, one per line.
  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}. Values
  /// keep all their digits (%.17g round-trips a double).
  std::string to_json(bool correct, std::uint64_t attempted,
                      std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      if (i != 0) out += ", ";
      // Names and units are validated/fixed strings: no escaping needed.
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

// --- spans -------------------------------------------------------------------

/// One timed call into a layer. `name` is "<layer>.<call>"; the layer is
/// the text before the first '.'. parent is an index into the log, or -1.
struct Span {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::string layer() const { return name.substr(0, name.find('.')); }
  /// Waiting, not work: a span whose call name ends in "_wait" (queueing,
  /// the generator's lag) is booked apart from the layer's busy time.
  bool waiting() const {
    return name.size() > 5 && name.compare(name.size() - 5, 5, "_wait") == 0;
  }
};

/// Total length of the union of [start, end) intervals.
inline std::uint64_t union_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// In-memory span recorder, written out once at exit. Thread-safe; used
/// only by the traced run, so the untraced run pays nothing.
class SpanLog {
 public:
  /// Records a finished span; returns its index (a parent handle).
  std::int64_t add(std::string name, std::uint64_t start, std::uint64_t end,
                   std::int64_t parent = -1, std::uint64_t request = 0) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is filled in by close(); for parents whose
  /// children are recorded before the parent finishes.
  std::int64_t open(std::string name, std::uint64_t start,
                    std::int64_t parent = -1, std::uint64_t request = 0) {
    return add(std::move(name), start, start, parent, request);
  }
  void close(std::int64_t idx, std::uint64_t end) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(idx)].end = end;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Self time per layer: each span's duration minus the part of it its
  /// children cover (children may overlap each other -- parallel jobs of
  /// one batch -- so coverage is an interval union). Waiting spans are
  /// keyed "<layer> wait". Spans on parallel threads add up, so a layer's
  /// total is thread time and can exceed the wall time.
  std::map<std::string, std::uint64_t> self_ns() const {
    const std::vector<Span> s = spans();
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        s.size());
    for (const Span& sp : s) {
      if (sp.parent >= 0) {
        kids[static_cast<std::size_t>(sp.parent)].emplace_back(sp.start, sp.end);
      }
    }
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::uint64_t dur = s[i].end > s[i].start ? s[i].end - s[i].start : 0;
      // Clip children to the parent's interval before taking the union.
      for (auto& [a, b] : kids[i]) {
        a = std::clamp(a, s[i].start, s[i].end);
        b = std::clamp(b, s[i].start, s[i].end);
      }
      const std::uint64_t covered = union_ns(kids[i]);
      out[s[i].layer() + (s[i].waiting() ? " wait" : "")] +=
          dur > covered ? dur - covered : 0;
    }
    return out;
  }

  /// Wall time inside [from, to) that no root span covers.
  std::uint64_t residual_ns(std::uint64_t from, std::uint64_t to) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
    for (const Span& sp : spans()) {
      if (sp.parent < 0) {
        roots.emplace_back(std::clamp(sp.start, from, to),
                           std::clamp(sp.end, from, to));
      }
    }
    const std::uint64_t covered = union_ns(std::move(roots));
    return to - from > covered ? to - from - covered : 0;
  }

  /// Writes every span as a JSON array (times in ns from `origin`).
  bool write(const std::string& path, std::uint64_t origin) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "[\n";
    const std::vector<Span> s = spans();
    for (std::size_t i = 0; i < s.size(); ++i) {
      out << "  {\"id\": " << i << ", \"name\": \"" << s[i].name
          << "\", \"start_ns\": " << (s[i].start - origin)
          << ", \"end_ns\": " << (s[i].end - origin)
          << ", \"parent\": " << s[i].parent
          << ", \"request\": " << s[i].request << "}"
          << (i + 1 < s.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Prints each layer's self time and the residual no span covers, as a
/// share of the measured wall time [from, to).
inline void print_ledger(const SpanLog& log, std::uint64_t from,
                         std::uint64_t to) {
  const double wall = static_cast<double>(to - from);
  std::printf("  self time by layer over %.3f s of traced wall time "
              "(thread time; parallel spans add up):\n",
              wall * 1e-9);
  for (const auto& [layer, ns] : log.self_ns()) {
    std::printf("    %-16s %10.3f ms  %7.2f%%\n", layer.c_str(), ns * 1e-6,
                100.0 * static_cast<double>(ns) / wall);
  }
  const std::uint64_t res = log.residual_ns(from, to);
  std::printf("    %-16s %10.3f ms  %7.2f%%  (no span covers it)\n", "residual",
              res * 1e-6, 100.0 * static_cast<double>(res) / wall);
}

// --- open loop -----------------------------------------------------------------

/// A fixed real-time schedule: request i is due at t0 + i * period. A
/// request is timed from its due time, never from when it was actually
/// sent, so a stall that makes the generator late is charged to every
/// request it delays.
class Pacer {
 public:
  Pacer(std::uint64_t t0_ns, double period_ns) : t0_(t0_ns), period_(period_ns) {}

  std::uint64_t due(std::uint64_t i) const {
    return t0_ + static_cast<std::uint64_t>(static_cast<double>(i) * period_);
  }

  /// Sleeps until request i is due; returns how late the caller is at
  /// return (0 when it was early).
  std::uint64_t wait(std::uint64_t i) const {
    const std::uint64_t d = due(i);
    std::uint64_t now = now_ns();
    if (now < d) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(d - now));
      now = now_ns();
    }
    return now > d ? now - d : 0;
  }

 private:
  std::uint64_t t0_;
  double period_;
};

/// Latency of a request due at `due` that completed at `done`, in ms.
inline double latency_ms(std::uint64_t due, std::uint64_t done) {
  return done > due ? static_cast<double>(done - due) * 1e-6 : 0.0;
}

// --- process -------------------------------------------------------------------

/// Gives `v` room for `n` samples and touches it now: later push_backs up
/// to `n` neither reallocate nor fault pages in, so peak RSS does not
/// depend on how many samples a run happens to take.
inline void preallocate(std::vector<double>& v, std::size_t n) {
  v.assign(n, 0.0);
  v.clear();
}

/// Peak resident set of this process (VmHWM), in MiB; 0 if unreadable.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// FNV-1a 64 fold of output words (the gateway soak's digest).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline std::uint64_t fnv_fold(std::uint64_t h, const std::vector<std::int32_t>& words) {
  for (std::int32_t w : words) {
    h = (h ^ static_cast<std::uint32_t>(w)) * 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
