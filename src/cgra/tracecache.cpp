#include "cgra/tracecache.hpp"

#include <algorithm>

namespace vwr2a::cgra {

namespace {

using energy::Event;
using isa::LcuOp;
using isa::LsuAddrMode;
using isa::LsuOp;

/// Accumulates the statically-addressed SPM rows one execution of `line`
/// touches (LSU kImm address mode only). Dynamic modes (SRF/pointer)
/// contribute nothing: those accesses stay on the free tier and the runtime
/// masks validate them post hoc. Statically out-of-range rows contribute
/// nothing either -- replay faults there before the access lands, and the
/// launch reruns on the interpreter.
void add_static_spm(const tc::Line& line, std::uint64_t& sread,
                    std::uint64_t& swrite) {
  if (!line.has_lsu || line.lsu.amode != LsuAddrMode::kImm) return;
  const unsigned addr = static_cast<unsigned>(line.lsu.imm);
  unsigned row = 0;
  bool is_write = false;
  switch (line.lsu.op) {
    case LsuOp::kLdVwr:
      row = addr;
      break;
    case LsuOp::kStVwr:
      row = addr;
      is_write = true;
      break;
    case LsuOp::kLdSrf:
      row = addr / arch::kVwrWords;
      break;
    case LsuOp::kStSrf:
      row = addr / arch::kVwrWords;
      is_write = true;
      break;
    default:
      return;
  }
  if (row >= arch::kSpmRows) return;
  (is_write ? swrite : sread) |= 1ull << row;
}

} // namespace

void derive_dependence_facts(CompiledTrace& trace) {
  trace.static_reads = 0;
  trace.static_writes = 0;
  trace.has_cross = false;
  for (const tc::Line& line : trace.lines) {
    if (tc::reads_cross(line)) trace.has_cross = true;
  }
  for (tc::Block& b : trace.blocks) {
    b.sread = 0;
    b.swrite = 0;
    for (unsigned i = b.first; i < b.first + b.len; ++i) {
      add_static_spm(trace.lines[i], b.sread, b.swrite);
    }
    trace.static_reads |= b.sread;
    trace.static_writes |= b.swrite;
  }
}

std::shared_ptr<const CompiledTrace> compile_trace(
    const isa::ColumnProgram& prog) {
  return compile_trace(decode_program(prog));
}

std::shared_ptr<const CompiledTrace> compile_trace(const DecodedProgram& dec) {
  auto trace = std::make_shared<CompiledTrace>();
  auto bail = [&trace](std::string why) {
    trace->ok = false;
    trace->bail_reason = std::move(why);
    trace->lines.clear();
    trace->blocks.clear();
    trace->block_of.clear();
    return std::shared_ptr<const CompiledTrace>(trace);
  };

  const unsigned len = static_cast<unsigned>(dec.size());
  if (len == 0) return bail("empty program");

  // Static faults and static branch targets past the end keep the program
  // interpreted, so the fault surfaces from the reference engine. (Replay
  // faults that depend on runtime state roll back to it as well.)
  for (unsigned pc = 0; pc < len; ++pc) {
    const DecodedLine& L = dec[pc];
    if (L.fault != LineFault::kNone) return bail(L.fault_what);
    const bool branches = L.term != tc::Term::kFall && L.term != tc::Term::kExit;
    if (branches && L.target >= len) return bail("branch target past program end");
  }

  trace->lines.resize(len);
  for (unsigned pc = 0; pc < len; ++pc) trace->lines[pc] = dec[pc].uop;

  // Superblock construction. Leaders: entry, every branch target, and every
  // successor of a control line.
  auto is_control = [&dec](unsigned pc) { return dec[pc].term != tc::Term::kFall; };
  std::vector<bool> leader(len, false);
  leader[0] = true;
  for (unsigned pc = 0; pc < len; ++pc) {
    if (!is_control(pc)) continue;
    if (dec[pc].term != tc::Term::kExit) leader[dec[pc].target] = true;
    if (pc + 1 < len) leader[pc + 1] = true;
  }
  trace->block_of.assign(len, 0);
  for (unsigned pc = 0; pc < len;) {
    unsigned end = pc;  // inclusive index of the terminator line
    while (!is_control(end) && end + 1 < len && !leader[end + 1]) ++end;
    const DecodedLine& T = dec[end];
    tc::Block b;
    b.first = static_cast<std::uint16_t>(pc);
    b.len = static_cast<std::uint16_t>(end - pc + 1);
    b.term = T.term;  // kFall: a plain line cut at a leader boundary
    b.cond = T.cond;
    b.ra = T.ra;
    b.rb = T.rb;
    b.rd = T.rd;
    b.srf = T.srf;
    b.imm = T.imm;
    b.target = T.target;

    // Energy of one full block replay.
    std::array<std::uint64_t, static_cast<unsigned>(Event::kCount)> counts{};
    for (unsigned i = pc; i <= end; ++i) {
      for (const energy::LineDelta& d : dec[i].energy_deltas()) {
        counts[static_cast<unsigned>(d.e)] += d.n;
      }
    }
    for (unsigned e = 0; e < counts.size(); ++e) {
      if (counts[e] != 0) {
        b.energy.push_back({static_cast<Event>(e), counts[e]});
      }
    }

    // Hardware-loop fusion: a DBNZ back to this block's own start whose
    // body never touches the trip-count register elsewhere replays its
    // whole (runtime-read) trip count as one fused native loop.
    if (b.term == tc::Term::kDbnz && b.target == b.first) {
      bool clean = true;
      for (unsigned i = pc; i < end; ++i) {
        const isa::LcuInstr& I = dec[i].lcu;
        switch (I.op) {
          case LcuOp::kSetI:
          case LcuOp::kAddI:
          case LcuOp::kMvSrf:
            if (I.rd == b.rd) clean = false;
            break;
          case LcuOp::kMvR:
          case LcuOp::kAddR:
          case LcuOp::kSubR:
            if (I.rd == b.rd || I.ra == b.rd) clean = false;
            break;
          case LcuOp::kStSrf:
            if (I.ra == b.rd) clean = false;
            break;
          default:
            break;
        }
      }
      b.fuse_self_loop = clean;
    }

    const auto bi = static_cast<std::uint16_t>(trace->blocks.size());
    for (unsigned i = pc; i <= end; ++i) trace->block_of[i] = bi;
    trace->blocks.push_back(std::move(b));
    pc = end + 1;
  }

  derive_dependence_facts(*trace);
  trace->ok = true;
  return trace;
}

namespace tc {

SyncPlan make_sync_plan(const CompiledTrace* t0, const CompiledTrace* t1) {
  SyncPlan p;
  if (t0 == nullptr || t1 == nullptr || !t0->ok || !t1->ok) {
    // Single-column kernel (or a non-replayable partner, which the caller
    // gates on anyway): nothing to order against, free-run.
    return p;
  }
  if (t0->has_cross || t1->has_cross) {
    // The cross-column operand network needs per-cycle partner snapshots.
    p.mode = SyncPlan::Mode::kLockstep;
    return p;
  }
  const std::array<const CompiledTrace*, arch::kNumColumns> t{t0, t1};
  bool any = false;
  for (unsigned c = 0; c < arch::kNumColumns; ++c) {
    const CompiledTrace& self = *t[c];
    const CompiledTrace& peer = *t[1 - c];
    p.sync[c].assign(self.blocks.size(), 0);
    for (std::size_t i = 0; i < self.blocks.size(); ++i) {
      const Block& b = self.blocks[i];
      // Ordered iff the block's rows can carry data across columns: my
      // write vs any peer access, or my read vs a peer write. Read-read
      // sharing (e.g. both columns loading one coefficient row) stays free.
      if (((b.swrite & (peer.static_reads | peer.static_writes)) |
           (b.sread & peer.static_writes)) != 0) {
        p.sync[c][i] = 1;
        ++p.sync_blocks[c];
        any = true;
      }
    }
  }
  p.mode = any ? SyncPlan::Mode::kScheduled : SyncPlan::Mode::kDecoupled;
  return p;
}

} // namespace tc

} // namespace vwr2a::cgra
