#include "cgra/tracecache.hpp"

#include <algorithm>

#include "cgra/alu.hpp"

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

/// One map line over n positions, opcode and operand shapes fixed at
/// compile time. Computed in blocks the compiler can vectorize; each block
/// loads before it stores, so a destination that is also a source stays
/// exact.
template <typename Alu, bool kRowA, bool kRowB>
void map_run(const Word* pa, const Word* pb, Word* pd, unsigned n) {
  constexpr unsigned kBlk = 8;
  unsigned i = 0;
  for (; i + kBlk <= n; i += kBlk) {
    Word t[kBlk];
    for (unsigned k = 0; k < kBlk; ++k) {
      t[k] = Alu{}(kRowA ? pa[i + k] : pa[0], kRowB ? pb[i + k] : pb[0]);
    }
    for (unsigned k = 0; k < kBlk; ++k) pd[i + k] = t[k];
  }
  for (; i < n; ++i) pd[i] = Alu{}(kRowA ? pa[i] : pa[0], kRowB ? pb[i] : pb[0]);
}

/// A map line over the four lanes (tc::MapFn).
template <typename Alu, bool kRowA, bool kRowB>
void lane_map(const tc::SrcLanes& a, const tc::SrcLanes& b,
              const tc::DstLanes& d, unsigned n) {
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    map_run<Alu, kRowA, kRowB>(a[r], b[r], d[r], n);
  }
}

/// An accumulator line R = R + x over n positions. The RC adder wraps
/// modulo 2^32, so summing the terms first and adding once gives the
/// register the value n sequential adds leave.
template <bool kRowX>
void lane_fold(const tc::SrcLanes& x, const tc::SrcLanes&,
               const tc::DstLanes& acc, unsigned n) {
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const Word* px = x[r];
    Word sum = 0;
    for (unsigned i = 0; i < n; ++i) sum += kRowX ? px[i] : px[0];
    *acc[r] = AluFn<isa::RcOp::kSadd>{}(*acc[r], sum);
  }
}

/// Compiles the loop plan of the fused self-loop `b`, or returns an empty
/// plan when one of the map rules fails (docs/tracecache.md, "Fused
/// hardware loops"). Every iteration then works on its own slice words and
/// its own temporaries; the only values crossing iterations are per-lane
/// constants, wrap-around sums and the words ride-along loads re-read.
tc::LoopPlan plan_loop(const CompiledTrace& trace, const tc::Block& b) {
  using K = tc::Src::K;
  using R = tc::MapRef::K;
  constexpr unsigned S = arch::kSliceWords;
  const tc::Line* lines = trace.lines.data() + b.first;
  const unsigned len = b.len;
  tc::LoopPlan plan;

  // Shape: quad lines with at most an index step and a kImm SRF load.
  std::array<unsigned, arch::kProgramWords> off{};
  unsigned at = 0;
  for (unsigned i = 0; i < len; ++i) {
    const tc::Line& L = lines[i];
    if (!L.quad || L.has_lcu) return {};
    if (L.has_mxcu && L.mxcu.op != isa::MxcuOp::kAddIdx) return {};
    if (L.has_lsu && (L.lsu.op != LsuOp::kLdSrf ||
                      L.lsu.amode != LsuAddrMode::kImm ||
                      static_cast<unsigned>(L.lsu.imm) >= arch::kSpmWords)) {
      return {};
    }
    off[i] = at;
    if (L.has_mxcu) at = (at + static_cast<unsigned>(L.mxcu.imm)) % S;
  }
  // (a) The index walks +-1 per iteration, so n <= kSliceWords iterations
  // visit distinct words at every offset.
  if (at != 1 && at != S - 1) return {};
  plan.step = at == 1 ? 1 : -1;

  // (a) A row the body writes is read and written at one offset only, so
  // no iteration sees another iteration's word.
  std::array<int, arch::kVwrsPerColumn> row_off;
  row_off.fill(-1);
  for (unsigned i = 0; i < len; ++i) {
    const tc::RcUop& q = lines[i].rc[0];
    if (q.d == tc::Dst::kVwr) row_off[q.vwr] = static_cast<int>(off[i]);
  }
  for (unsigned i = 0; i < len; ++i) {
    const tc::RcUop& q = lines[i].rc[0];
    for (const tc::Src* src : {&q.a, &q.b}) {
      if (src == &q.b && q.unary) continue;
      if (src->k == K::kVwr && row_off[src->vwr] >= 0 &&
          row_off[src->vwr] != static_cast<int>(off[i])) {
        return {};
      }
    }
    if (q.d == tc::Dst::kVwr && row_off[q.vwr] != static_cast<int>(off[i])) {
      return {};
    }
  }

  // Registers: written before read -> a temporary per iteration; never
  // written -> a per-lane constant; read before written -> loop-carried,
  // which maps only as (b) an accumulator R = R + x, R's only writer and
  // only reader.
  std::array<unsigned, arch::kRcRegs> writers{}, readers{};
  std::array<bool, arch::kRcRegs> written{}, read_first{};
  for (unsigned i = 0; i < len; ++i) {
    const tc::RcUop& q = lines[i].rc[0];
    for (const tc::Src* src : {&q.a, &q.b}) {
      if (src == &q.b && q.unary) continue;
      if (src->k != K::kRf) continue;
      ++readers[src->idx];
      if (!written[src->idx]) read_first[src->idx] = true;
    }
    if (q.d == tc::Dst::kRf) {
      written[q.idx] = true;
      ++writers[q.idx];
    }
  }
  auto accumulates = [](const tc::RcUop& q, unsigned e) {
    const bool ra = q.a.k == K::kRf && q.a.idx == e;
    const bool rb = q.b.k == K::kRf && q.b.idx == e;
    return q.op == isa::RcOp::kSadd && q.d == tc::Dst::kRf && q.idx == e &&
           ra != rb;
  };
  std::array<bool, arch::kRcRegs> acc{};
  for (unsigned e = 0; e < arch::kRcRegs; ++e) {
    if (!written[e] || !read_first[e]) continue;
    if (writers[e] != 1 || readers[e] != 1) return {};
    for (unsigned i = 0; i < len; ++i) {
      const tc::RcUop& q = lines[i].rc[0];
      if (q.d == tc::Dst::kRf && q.idx == e && !accumulates(q, e)) return {};
    }
    acc[e] = true;
  }
  for (unsigned e = 0; e < arch::kRcRegs; ++e) {
    if (written[e] && !acc[e]) plan.temps |= 1u << e;
  }

  // (c) Ride-along loads: the body stores nothing, so each load re-reads
  // one word; a line reads what the body's last earlier load of its entry
  // leaves (the previous iteration's, wrapping around).
  std::array<int, arch::kSrfEntries> last_load;
  last_load.fill(-1);
  for (unsigned i = 0; i < len; ++i) {
    if (!lines[i].has_lsu) continue;
    last_load[lines[i].lsu.srf_data] = static_cast<int>(plan.loads.size());
    plan.loads.push_back({lines[i].lsu.srf_data,
                          static_cast<std::uint16_t>(lines[i].lsu.imm)});
  }
  std::array<int, arch::kSrfEntries> loaded;
  loaded.fill(-1);

  auto source = [&](const tc::Src& src) -> tc::MapRef {
    switch (src.k) {
      case K::kRf:
        return {written[src.idx] ? R::kTemp : R::kReg, src.idx, 0};
      case K::kVwr:
        return {R::kRow, src.vwr, 0};
      case K::kSrf:
        if (loaded[src.idx] >= 0) {
          return {R::kLoad, static_cast<std::uint8_t>(loaded[src.idx]), 0};
        }
        if (last_load[src.idx] >= 0) {
          plan.entry_srf |= 1u << src.idx;
          return {R::kLoad, static_cast<std::uint8_t>(last_load[src.idx]), 0};
        }
        return {R::kSrf, src.idx, 0};
      default:  // kImm (quad_shape admits no lane-crossing source)
        return {R::kImm, 0, src.imm};
    }
  };
  unsigned load = 0;
  for (unsigned i = 0; i < len; ++i) {
    const tc::Line& L = lines[i];
    const tc::RcUop& q = L.rc[0];
    tc::MapLine m;
    m.off = static_cast<std::uint8_t>(off[i]);
    if (q.d == tc::Dst::kRf && acc[q.idx]) {
      m.a = source(q.a.k == K::kRf && q.a.idx == q.idx ? q.b : q.a);
      m.d = {R::kReg, q.idx, 0};
      m.fn = m.a.row() ? &lane_fold<true> : &lane_fold<false>;
    } else {
      m.a = source(q.a);
      m.b = q.unary ? tc::MapRef{} : source(q.b);
      switch (q.d) {
        case tc::Dst::kRf:
          m.d = {R::kTemp, q.idx, 0};
          break;
        case tc::Dst::kVwr:
          m.d = {R::kRow, q.vwr, 0};
          break;
        default:  // kNone: the result only reaches rc_prev_
          m.d = {R::kTemp, arch::kRcRegs, 0};
          break;
      }
      const bool row_a = m.a.row();
      const bool row_b = m.b.row();
      with_alu_op(q.op, [&m, row_a, row_b](auto alu) {
        using Alu = decltype(alu);
        m.fn = row_a ? (row_b ? &lane_map<Alu, true, true>
                              : &lane_map<Alu, true, false>)
                     : (row_b ? &lane_map<Alu, false, true>
                              : &lane_map<Alu, false, false>);
      });
    }
    // A load commits after its line's RCs (which cannot read the SRF: the
    // load holds its single port).
    if (L.has_lsu) loaded[L.lsu.srf_data] = static_cast<int>(load++);
    plan.lines.push_back(m);
  }
  return plan;
}

} // namespace

void derive_trace_facts(CompiledTrace& trace) {
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
    b.plan = b.fuse_self_loop ? plan_loop(trace, b) : tc::LoopPlan{};
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

  derive_trace_facts(*trace);
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
