#pragma once
// Trace-cached kernel execution (the interpreter -> trace-cache move).
//
// Column::step() executes one pre-resolved line per simulated cycle (see
// cgra/line.hpp: decoding, port legality, operand routing and per-line
// energy are decided once per loaded program). Loop bodies that the LCU's
// zero-overhead loops (paper Sec 3.1) replay thousands of times per kernel
// still pay the per-cycle dispatch, fault checks and meter update. The
// trace compiler here consumes the same line analysis and lifts the rest
// out of the hot loop:
//
//   * programs with a static fault (illegal field, port hazard) or a
//     static branch target past the end do not compile and stay on the
//     interpreter, which raises the documented error;
//   * straight-line runs between LCU control-flow decisions become
//     superblocks whose per-line energy deltas are summed into one block
//     list; replay only counts block executions and folds count x delta
//     into the meter once per launch;
//   * self-loop DBNZ blocks (the hardware-loop idiom every kernel uses)
//     additionally replay their whole trip count in one fused native loop,
//     with operand routing and opcode dispatch resolved once per trip
//     count.
//
// Identity contract: a traced run must be bit-identical to the interpreted
// run -- same outputs, same cycle counts, same energy event counts (hence
// exactly equal energy totals: equal integer counts give equal sums), and
// the same SPM row-stamp predicates (write sets are identical; only the
// interleaving of stamp values between decoupled columns may differ, which
// the residency logic is insensitive to). A program with a static fault
// or a static branch target past the end is non-traceable and runs on the
// interpreter; a replay that faults at runtime rolls back and reruns there.
//
// Sharing: compiled traces are cached process-wide (or pool-wide, via
// isa::ImageCache::traces()) keyed by the ArchConfig variant name plus the
// program's encoded content, so every device of a DevicePool compiles each
// hot loop body once. Content keying is sound because architecture variants
// share the functional model (soc/platform.hpp): they adjust reported
// cycle/energy at snapshot time, never the executed semantics.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cgra/line.hpp"
#include "common/types.hpp"
#include "energy/meter.hpp"
#include "isa/program.hpp"

namespace vwr2a::cgra {

/// How Vwr2a::run_kernel executes kernels (soc::ArchConfig::exec_mode).
enum class ExecMode : std::uint8_t {
  kInterpret = 0,  ///< per-cycle line interpreter (the reference model)
  kTraceCache,     ///< compiled micro-op block replay (bit/cycle/energy-identical)
};

namespace tc {

/// One superblock: a straight-line run of lines plus its terminator and the
/// pre-aggregated energy of one full replay.
struct Block {
  std::uint16_t first = 0;  ///< program address of the first line
  std::uint16_t len = 0;    ///< lines in the block (terminator included)
  Term term = Term::kFall;
  Cond cond = Cond::kEq;
  std::uint8_t ra = 0, rb = 0, rd = 0, srf = 0;
  std::int32_t imm = 0;
  std::uint16_t target = 0;     ///< branch-taken program address
  bool fuse_self_loop = false;  ///< DBNZ back to `first`, trip-count fusable
  std::vector<energy::EventDelta> energy;  ///< one full block replay
  /// Statically-addressed SPM rows one replay of this block reads / writes
  /// (LSU kImm address mode; kSpmRows = 64, one word each). Dynamically
  /// addressed accesses (SRF/pointer modes) are absent here -- they stay on
  /// the free-running tier and are validated post hoc by the runtime masks.
  std::uint64_t sread = 0;
  std::uint64_t swrite = 0;
};

} // namespace tc

/// A compiled column program: micro-op lines indexed by program address,
/// superblocks, and the pc -> block map. Immutable once built; shared
/// across every device whose configuration memory holds the same program.
class CompiledTrace {
 public:
  bool ok = false;           ///< false: program is non-traceable (see reason)
  std::string bail_reason;   ///< why compilation fell back to the interpreter
  std::vector<tc::Line> lines;
  std::vector<tc::Block> blocks;
  std::vector<std::uint16_t> block_of;  ///< pc -> index into blocks
  /// Whole-trace unions of the per-block static SPM row masks, and whether
  /// any kRcCross operand survives into the micro-ops (such a trace replays
  /// only on the per-cycle lockstep tier, which has partner snapshots).
  std::uint64_t static_reads = 0;
  std::uint64_t static_writes = 0;
  bool has_cross = false;

  unsigned length() const { return static_cast<unsigned>(lines.size()); }
};

/// Compiles one column program from its line analysis. Never throws on
/// untraceable input: the result carries ok = false and the interpreter
/// stays authoritative.
std::shared_ptr<const CompiledTrace> compile_trace(const DecodedProgram& dec);

/// compile_trace() over decode_program(prog).
std::shared_ptr<const CompiledTrace> compile_trace(const isa::ColumnProgram& prog);

/// A read-only provider of precompiled traces consulted on cache miss
/// (implemented by artifact::Store, the mmap'd binary artifact). Must be
/// safe to call concurrently. Returning nullptr means "not in the
/// artifact": the caller compiles in-process, transparently.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual std::shared_ptr<const CompiledTrace> load_trace(
      const std::string& variant, const isa::ColumnProgram& prog) = 0;
};

/// Thread-safe cache of program line analyses and compiled traces, keyed by
/// (variant namespace, program content). Negative results (ok = false) are
/// cached too, so a non-traceable kernel costs one compile attempt
/// fleet-wide, not one per launch. Owned by isa::ImageCache so a
/// DevicePool's devices share it.
class TraceCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;      ///< lookups served from the cache
    std::uint64_t compiled = 0;  ///< programs compiled to replayable traces
    std::uint64_t bailed = 0;    ///< programs that stayed on the interpreter
    std::uint64_t hydrated = 0;  ///< misses served by the artifact source
  };

  /// The line analysis of `prog` (decode_program), computed once per
  /// (variant, content) and shared by every device on this cache and by
  /// the trace compiler.
  std::shared_ptr<const DecodedProgram> decoded(const std::string& variant,
                                                const isa::ColumnProgram& prog) {
    std::lock_guard<std::mutex> lock(mu_);
    return decoded_locked(entry_locked(variant, prog));
  }

  /// Returns the compiled trace for `prog` under the `variant` namespace
  /// (soc::ArchConfig::name()), on first use loading it from the attached
  /// artifact source (when it has the entry) or compiling it in-process
  /// from the shared line analysis.
  std::shared_ptr<const CompiledTrace> get_or_compile(
      const std::string& variant, const isa::ColumnProgram& prog) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entry_locked(variant, prog);
    if (e.trace != nullptr) {
      ++hits_;
      return e.trace;
    }
    if (source_ != nullptr) e.trace = source_->load_trace(variant, prog);
    if (e.trace != nullptr) {
      ++hydrated_;
    } else {
      e.trace = compile_trace(*decoded_locked(e));
      e.trace->ok ? ++compiled_ : ++bailed_;
    }
    return e.trace;
  }

  /// Attaches (or detaches, nullptr) the precompiled-trace source. Attach
  /// before the cache goes concurrent (see ImageCache::set_source).
  void set_source(TraceSource* source) {
    std::lock_guard<std::mutex> lock(mu_);
    source_ = source;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Stats{hits_, compiled_, bailed_, hydrated_};
  }

  /// Visits every cached trace (hash order; the artifact builder re-sorts
  /// by content). Runs under the cache lock with the cache quiescent by
  /// contract -- the builder's enumeration hook, not a runtime path.
  void for_each_trace(
      const std::function<void(const std::string&, const isa::ColumnProgram&,
                               const std::shared_ptr<const CompiledTrace>&)>&
          fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [h, e] : entries_) {
      if (e.trace != nullptr) fn(e.variant, e.prog, e.trace);
    }
  }

 private:
  struct Entry {
    std::string variant;
    isa::ColumnProgram prog;  ///< full copy: collision-proof equality check
    std::shared_ptr<const DecodedProgram> dec;   ///< null until first needed
    std::shared_ptr<const CompiledTrace> trace;  ///< null until first needed
  };

  /// The entry for (variant, prog), created empty on first use. Caller
  /// holds mu_.
  Entry& entry_locked(const std::string& variant, const isa::ColumnProgram& prog) {
    const std::uint64_t h = hash_program(variant, prog);
    auto [it, end] = entries_.equal_range(h);
    for (; it != end; ++it) {
      if (it->second.variant == variant && it->second.prog == prog) {
        return it->second;
      }
    }
    return entries_.emplace(h, Entry{variant, prog, nullptr, nullptr})->second;
  }

  static const std::shared_ptr<const DecodedProgram>& decoded_locked(Entry& e) {
    if (e.dec == nullptr) {
      e.dec = std::make_shared<const DecodedProgram>(decode_program(e.prog));
    }
    return e.dec;
  }

  static std::uint64_t hash_program(const std::string& variant,
                                    const isa::ColumnProgram& prog) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 1099511628211ull;
    };
    for (char c : variant) mix(static_cast<unsigned char>(c));
    mix(prog.length());
    for (unsigned s = 0; s < arch::kSlotsPerColumn; ++s) {
      for (std::uint32_t w : prog.stream(static_cast<Slot>(s))) mix(w);
    }
    return h;
  }

  mutable std::mutex mu_;
  std::multimap<std::uint64_t, Entry> entries_;
  TraceSource* source_ = nullptr;
  std::uint64_t hits_ = 0;
  std::uint64_t compiled_ = 0;
  std::uint64_t bailed_ = 0;
  std::uint64_t hydrated_ = 0;
};

namespace tc {

/// Thrown by Column::run_traced when a decoupled replay exceeds its cycle
/// budget. A column polling SPM state its partner has not produced yet
/// (cross-column dataflow the conflict masks would only catch after the
/// fact) spins forever when free-run alone; the budget turns that into a
/// rollback + lockstep rerun, which interleaves the columns like the
/// interpreter and therefore terminates exactly when it does. The thrower
/// abandons mid-kernel state -- the caller always rolls back.
struct ReplayBudgetExceeded {};

/// Decoupled-replay cycle budget per column: ~40x the largest catalog
/// kernel (~10^5 cycles), so only pathological cross-column polls or
/// runaway loops ever hit it -- and when they do, the wasted replay stays
/// in the tens of milliseconds before lockstep takes over.
inline constexpr Cycle kReplayBudget = 1ull << 22;

/// Copy-on-write SPM undo log for one traced kernel launch: decoupled
/// two-column replay saves each row (data + stamp) before its first write,
/// so a detected cross-column conflict can roll the SPM back and rerun the
/// kernel on the interpreter. kSpmRows = 64, so access masks are one word.
struct SpmUndo {
  std::uint64_t saved_mask = 0;
  std::uint64_t write_gen = 0;
  std::array<std::array<Word, arch::kVwrWords>, arch::kSpmRows> rows;
  std::array<std::uint64_t, arch::kSpmRows> versions{};

  void reset(std::uint64_t gen) {
    saved_mask = 0;
    write_gen = gen;
  }
};

/// The compiled sync schedule of one two-column kernel: which replay tier
/// the launch takes, and -- on the scheduled tier -- which superblocks of
/// each column are sync points. A block is a sync point when its static SPM
/// rows intersect the partner trace's static unions (write/write,
/// write/read or read/write); such blocks replay one line per local cycle
/// under the behind-column-first schedule, which reproduces the
/// interpreter's access order exactly. All other blocks free-run (fused
/// loops included) and their runtime access masks are validated post hoc.
struct SyncPlan {
  enum class Mode : std::uint8_t {
    kDecoupled = 0,  ///< no static overlap: whole-kernel free-run per column
    kScheduled,      ///< static overlap: free stretches + per-line sync blocks
    kLockstep,       ///< kRcCross present: per-cycle alternation, cross snapshots
  };
  Mode mode = Mode::kDecoupled;
  std::array<std::vector<std::uint8_t>, arch::kNumColumns> sync;  ///< [col][block]
  std::array<std::uint32_t, arch::kNumColumns> sync_blocks{};     ///< SYNC count
};

/// Builds the sync schedule for a kernel occupying the given column traces
/// (nullptr = column idle). Null/non-ok traces yield the decoupled plan:
/// the caller gates on has_trace() before replaying at all.
SyncPlan make_sync_plan(const CompiledTrace* t0, const CompiledTrace* t1);

} // namespace tc

} // namespace vwr2a::cgra
